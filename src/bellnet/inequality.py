"""Subset-correlator spectra and the star-network Bell inequality.

The central object is the spectrum of signed, setting-averaged full
correlators indexed by subsets of branch positions.  For a subset mask X
the entry is

    2^-T sum_x sign(x, X) sum_{a,b} (-1)^(b + weight(a)) P(a, b | x, y_X)

where T is the total branch-observer count, ``sign`` flips with the
parity of the settings chosen inside X (truncated per source on uneven
networks) and y_X is the center-observer setting assigned to X by an
explicit map.  The sign sum over setting words is a Walsh–Hadamard
transform, so one :func:`fwht` of the correlator table yields every
entry at once.  Classical models obey

    sum_X |entry_X|^(1/n)  <=  classical_bound(config)

with bound 1 when all sources have the same branch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkConfig, fwht, over_budget, subset_setting_mask
from .quantum import CorrelationTable, MeasurementScheme, network_correlators
from .quantum import scheme_setting_map, separable_table_cap

# The check reaches the table route through network_correlators; the name
# stays bound here, as in ``cli``, since perfbench's tracer wraps that
# route at every name it is bound under.
from .quantum import network_table  # noqa: F401

_ENTRY_TOL = 1e-9
# Absolute tolerance of a Bell value against its closed form or bound.
VALUE_TOL = 1e-9
# Width of the visibility bracket that two noisy simulations certify.
VISIBILITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SubsetSpectrum:
    """Correlator entries for every subset mask, and a kernel's factors."""

    config: NetworkConfig
    entries: np.ndarray  # (2**max_branch,)
    factors: np.ndarray | None = None  # (n, 2**max_branch)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (1 << self.config.max_branch,):
            raise ValueError("spectrum length does not match the branch count")
        _check_entries(entries)


def table_correlators(table: CorrelationTable) -> np.ndarray:
    """Full correlators (outcome-parity expectations), one per (x, y): the
    read-only array that the table's construction computed in the pass
    that checks it."""
    return table.correlators


def truncated_spectrum(table: CorrelationTable, setting_map) -> SubsetSpectrum:
    """Spectrum with per-source truncation of each subset.

    Sources with fewer branches than the subset mask addresses ignore the
    excess positions; on even networks this reduces to the plain spectrum.
    Every entry is read off one Walsh–Hadamard transform of the
    correlators over the setting words: the one row of
    :func:`truncated_spectra`.
    """
    return SubsetSpectrum(table.config, truncated_spectra([table], setting_map)[0])


def truncated_spectra(tables, setting_map) -> np.ndarray:
    """:func:`truncated_spectrum` entries of each table of one network, one
    row per table, from one Walsh–Hadamard transform of their stacked
    correlators.  ``tables`` may be an iterator, such as
    :func:`bellnet.classical.model_tables`; only each table's config and
    correlators are kept, so no table outlives its reading."""
    read = list(map(lambda table: (table.config, table_correlators(table)), tables))
    if not read:
        raise ValueError("need at least one table")
    configs, correlators = zip(*read)
    if any(config != configs[0] for config in configs):
        raise ValueError("truncated_spectra expects tables of one network")
    return _correlator_spectra(configs[0], np.stack(correlators), setting_map)


def simulated_spectrum(scheme: MeasurementScheme, visibilities=None) -> SubsetSpectrum:
    """``truncated_spectrum(network_table(scheme, visibilities), map)`` at
    :func:`scheme_setting_map`, from :func:`bellnet.quantum.network_correlators`,
    which past one block multiplies the sources' checked correlators."""
    correlators = network_correlators(scheme, visibilities)
    entries = _correlator_spectra(scheme.config, correlators[None], scheme_setting_map(scheme))
    return SubsetSpectrum(scheme.config, entries[0])


def _correlator_spectra(config: NetworkConfig, correlators, setting_map) -> np.ndarray:
    """:func:`truncated_spectra` of tables' stacked ``(m, 2**T, n_settings)``
    correlators, each entry checked to lie in ``[-1, 1]``."""
    setting_map = np.asarray(setting_map)
    if setting_map.shape != (1 << config.max_branch,):
        raise ValueError("need one center setting per subset mask")
    if setting_map.min() < 0 or setting_map.max() >= correlators.shape[2]:
        raise ValueError("setting map refers to a missing center setting")
    words = subset_setting_mask(np.arange(1 << config.max_branch), config)
    spectrum = fwht(correlators, axis=1) / (1 << config.total)
    entries = spectrum[:, words, setting_map]
    _check_entries(entries)
    return entries


def _check_entries(entries: np.ndarray) -> None:
    """Refuse an entry outside ``[-1, 1]``, NaN included: ``max`` carries a
    NaN through, so the test passes only on a number within the bound."""
    if not np.abs(entries).max() <= 1.0 + _ENTRY_TOL:
        raise ValueError("correlator entry outside [-1, 1]")


def kernel_cap(config: NetworkConfig) -> str | None:
    """The refusal of the exact kernel's ``(T, 2**max_branch)`` array, or None."""
    return over_budget("the exact kernel", math.log2(config.total) + config.max_branch)


def source_factors(config: NetworkConfig, branch_angles, turns) -> np.ndarray:
    """``Re[i^{turns[j, X]} P_j(X)]`` for every source ``j`` and subset mask
    ``X``, with ``P_j(X) = prod_{k in X_j} d_k prod_{k not in X_j} s_k``
    over source ``j``'s observers, ``X_j`` the positions of ``X`` it has and
    ``d_k, s_k = (e^{iθ_k0} ∓ e^{iθ_k1}) / 2``.  ``P_j(X)`` is the
    ``X``-signed setting average of ``e^{i(sum of the source's angles)}``,
    whose real part is a pure GHZ source's full correlator; ``i^turns`` is
    the center's phase.  A real part within ``L_j eps |P_j(X)|``, the
    rounding of ``L_j`` factors, counts as zero.  O(T 2**max_branch) work
    and memory for T observers, refused past :func:`kernel_cap`.
    """
    phases = np.exp(1j * np.asarray(branch_angles, dtype=np.float64))
    if phases.shape != (config.total, 2):
        raise ValueError("branch_angles must have shape (total observers, 2)")
    if refusal := kernel_cap(config):
        raise ValueError(refusal)
    masks = np.arange(1 << config.max_branch)
    # Observer t, the k-th of its source, takes d_t where bit k of X is set.
    k = np.arange(config.total) - np.repeat(config.offsets, config.branches)
    first, second = phases[:, :1], phases[:, 1:]
    picks = np.where((masks >> k[:, None]) & 1, first - second, first + second) / 2
    products = np.multiply.reduceat(picks, config.offsets, axis=0)
    # Multiplying by a power of i is exact.
    factors = (np.array([1, 1j, -1, -1j])[turns % 4] * products).real
    noise = np.finfo(np.float64).eps * np.reshape(config.branches, (-1, 1))
    factors[np.abs(factors) <= noise * np.abs(products)] = 0.0
    return factors


def separable_spectrum(scheme: MeasurementScheme, visibilities=None) -> SubsetSpectrum:
    """Exact ``truncated_spectrum(network_table(scheme, visibilities), map)``
    for the scheme's setting map: ``K_X = prod_j V_j Re[i^{b_j} P_j(X)]``
    (see :func:`source_factors`), ``b_j`` the bit of source ``j``'s block in
    the setting of ``X``, as the center's X or Y axis adds phase 0 or pi/2.
    """
    config = scheme.config
    blocks = np.array([config.block_index(j) for j in range(config.n)])
    bits = (scheme_setting_map(scheme) >> blocks[:, None]) & 1
    factors = source_factors(config, scheme.branch_angles, bits)
    if visibilities is not None:
        factors *= np.reshape(visibilities, (config.n, 1))  # noise only scales
    return SubsetSpectrum(config, factors.prod(axis=0), factors)


def table_floor(config: NetworkConfig) -> float:
    """eps * 2**(T+n): a table sums at most 2**(T+n) outcome words per
    setting (T branch observers, n sources), so a spectrum entry read off
    it within this of zero, or of another route's value, is rounding
    noise.  From T + n = 53 on the floor exceeds every entry, so its
    exponent stops there."""
    return np.finfo(np.float64).eps * 2.0 ** min(config.total + config.n, 53)


def bell_value(spectrum: SubsetSpectrum) -> float:
    """sum_X |entry_X|**(1/n).

    A kernel spectrum roots each per-source factor before the product,
    which could underflow (1100 factors of 1/2).  A table's entry within
    :func:`table_floor` of zero counts as zero; the root would magnify it.
    """
    config = spectrum.config
    if spectrum.factors is not None:
        return float((np.abs(spectrum.factors) ** (1.0 / config.n)).prod(axis=0).sum())
    entries = np.abs(spectrum.entries)
    entries[entries <= table_floor(config)] = 0.0
    return float((entries ** (1.0 / config.n)).sum())


def classical_bound(config: NetworkConfig) -> float:
    """Largest Bell value any classical model can reach.

    1 for even networks; 2**(Lmax - sum(L_j)/n) in general, taken as one
    power so that no factor overflows on its own.
    """
    return 2.0 ** (config.max_branch - sum(config.branches) / config.n)


def predicted_quantum_value(config: NetworkConfig, kind: str) -> float:
    """Closed-form Bell value of GHZ sources under the named scheme."""
    if kind == "xy":
        if not config.is_homogeneous():
            raise ValueError("the xy scheme has no closed form on uneven networks")
        return 2.0 ** (config.max_branch // 2)
    if kind == "rotated":
        return 2.0 ** (config.max_branch - sum(config.branches) / (2.0 * config.n))
    raise ValueError(f"unknown scheme kind {kind!r}")


def critical_visibility(config: NetworkConfig) -> float:
    """Total network visibility below which no violation is possible.

    2**(-sum(L_j)/2); the rotated scheme attains this threshold.
    """
    return 2.0 ** (-sum(config.branches) / 2.0)


def find_critical_visibility(scheme: MeasurementScheme):
    """The total visibility at which the scheme stops violating, certified
    on simulated tables when :func:`separable_table_cap` lets them fit, and
    the noiseless value ``top`` it is read from.

    The total visibility V is split evenly as V**(1/n) per source.  White
    noise has no full correlator, so every spectrum entry is V times its
    noiseless value and the Bell value at V is exactly V**(1/n) times the
    noiseless value ``top`` from :func:`separable_spectrum`.  The crossing
    is therefore V* = (bound/top)**n, and two noisy simulations certify it:
    value(V* - VISIBILITY_TOL/2) <= bound < value(V* + VISIBILITY_TOL/2),
    both ends clipped to [0, 1].  The crossing is None when ``top`` does
    not exceed the bound by more than ``VALUE_TOL``, once one noiseless
    simulation agrees, and it underflows to 0.0 where ``n log2(bound/top)``
    does not; raises ArithmeticError when the simulated tables contradict
    the kernel.
    """
    config = scheme.config
    bound = classical_bound(config)

    def value_at(total: float) -> float:
        per_source = total ** (1.0 / config.n)
        return bell_value(simulated_spectrum(scheme, (per_source,) * config.n))

    top = bell_value(separable_spectrum(scheme))
    crossing = (bound / top) ** config.n if top > bound + VALUE_TOL else None
    if separable_table_cap(config) is not None:
        return crossing, top  # the certificate tables would not fit
    if crossing is None:
        noiseless = value_at(1.0)
        if noiseless > bound + VALUE_TOL:
            raise ArithmeticError(
                f"simulated noiseless value {noiseless!r} exceeds the bound {bound!r}"
            )
        return None, top
    lo, hi = max(crossing - VISIBILITY_TOL / 2, 0.0), min(crossing + VISIBILITY_TOL / 2, 1.0)
    low, high = value_at(lo), value_at(hi)
    if not low <= bound < high:
        raise ArithmeticError(
            f"simulated values {low!r} at {lo!r} and {high!r} at {hi!r} "
            f"do not bracket the bound {bound!r}"
        )
    return crossing, top


def sweep_value(theta0, theta1, size: int):
    """Bell value when every branch observer measures at (theta0, theta1).

    Closed form of one GHZ source: with m = (theta0 + theta1) / 2 and
    delta = (theta0 - theta1) / 2, a subset of c branches has correlator
    +-sin(delta)**c cos(delta)**(size - c) sin(size m) (cos(size m) when
    4 divides size) under the two-setting center convention, so the sum
    over subsets is |sin(size m)| (|sin delta| + |cos delta|)**size.  It
    is the same for every source count because per-source factors are
    identical.  ``theta0`` and ``theta1`` broadcast against each other,
    so one call evaluates a whole grid; scalar angles give a ``float``.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    theta1 = np.asarray(theta1, dtype=np.float64)
    # Scalars run through the same array loops as grids (numpy's scalar
    # arithmetic rounds differently), so a point's value does not depend
    # on the grid it is evaluated in.
    t0, t1 = np.atleast_1d(theta0), np.atleast_1d(theta1)
    mean, delta = (t0 + t1) / 2, (t0 - t1) / 2
    phase = np.cos(size * mean) if size % 4 == 0 else np.sin(size * mean)
    total = np.abs(phase) * (np.abs(np.sin(delta)) + np.abs(np.cos(delta))) ** size
    if theta0.ndim == theta1.ndim == 0:
        return float(total[0])
    return total


def diagonal_sweep_closed_form(theta: float, size: int) -> float:
    """Value of the sweep along theta1 = pi/2 - theta0.

    2**floor(L/2) * cos(theta)**L on [0, pi/4], the sine branch beyond.
    This follows from the :func:`sweep_value` formula at m = pi/4, where
    |sin(L pi/4)| (or |cos(L pi/4)|) equals 2**(floor(L/2) - L/2) and, for
    theta in [0, pi/2], (|sin delta| + |cos delta|)**L equals
    2**(L/2) max(cos theta, sin theta)**L.
    """
    scale = 2.0 ** (size // 2)
    edge = math.cos(theta) if theta <= math.pi / 4 else math.sin(theta)
    return scale * edge ** size
