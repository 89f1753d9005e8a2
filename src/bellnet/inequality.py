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
from math import comb

import numpy as np

from .network import NetworkConfig, subset_setting_mask, subsets_of
from .quantum import CorrelationTable, MeasurementScheme, network_table, scheme_setting_map

_ENTRY_TOL = 1e-9


def parity_signs(width: int) -> np.ndarray:
    """Vector of (-1)**bit_count(i) for all words i of the given width: the
    Walsh–Hadamard transform of the one-hot vector at the all-ones word."""
    onehot = np.zeros(1 << width)
    onehot[-1] = 1.0
    return fwht(onehot)


def fwht(values, axis: int = 0) -> np.ndarray:
    """Unnormalized Walsh–Hadamard transform along ``axis``.

    ``out[X] = sum_x (-1)**bit_count(x & X) * values[x]``, computed with
    one butterfly per bit in O(m 2**m) for an axis of length 2**m.
    """
    out = np.moveaxis(np.asarray(values, dtype=np.float64), axis, 0).copy()
    size = out.shape[0]
    if size & (size - 1):
        raise ValueError("transform length must be a power of two")
    half = 1
    while half < size:
        pairs = out.reshape(size // (2 * half), 2, half, -1)
        low = pairs[:, 0] + pairs[:, 1]
        pairs[:, 1] = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] = low
        half *= 2
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True, eq=False)
class SubsetSpectrum:
    """Correlator entries for every subset mask."""

    config: NetworkConfig
    entries: np.ndarray  # (2**max_branch,)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (1 << self.config.max_branch,):
            raise ValueError("spectrum length does not match the branch count")
        if np.abs(entries).max() > 1.0 + _ENTRY_TOL:
            raise ValueError("correlator entry outside [-1, 1]")


def table_correlators(table: CorrelationTable) -> np.ndarray:
    """Full correlators (outcome-parity expectations), one per (x, y)."""
    sa = parity_signs(table.config.total)
    return np.einsum("xyab,a,b->xy", table.values, sa, np.array([1.0, -1.0]))


def truncated_spectrum(table: CorrelationTable, setting_map) -> SubsetSpectrum:
    """Spectrum with per-source truncation of each subset.

    Sources with fewer branches than the subset mask addresses ignore the
    excess positions; on even networks this reduces to the plain spectrum.
    Every entry is read off one Walsh–Hadamard transform of the
    correlators over the setting words.
    """
    config = table.config
    setting_map = np.asarray(setting_map)
    if setting_map.shape != (1 << config.max_branch,):
        raise ValueError("need one center setting per subset mask")
    if setting_map.min() < 0 or setting_map.max() >= table.n_bob_settings:
        raise ValueError("setting map refers to a missing center setting")
    words = subset_setting_mask(np.array(subsets_of(config.max_branch)), config)
    spectrum = fwht(table_correlators(table)) / (1 << config.total)
    return SubsetSpectrum(config, spectrum[words, setting_map])


def subset_spectrum(table: CorrelationTable, setting_map) -> SubsetSpectrum:
    """Spectrum for an even network (every source the same branch count)."""
    if not table.config.is_homogeneous():
        raise ValueError("uneven network: use truncated_spectrum")
    return truncated_spectrum(table, setting_map)


def bell_value(spectrum: SubsetSpectrum) -> float:
    """sum_X |entry_X|**(1/n).

    A table sums at most 2**(T+n) outcome words per setting (T branch
    observers, n sources), so an entry within eps * 2**(T+n) of zero is
    rounding noise and counts as zero; the root would magnify it.
    """
    config = spectrum.config
    entries = np.abs(spectrum.entries)
    entries[entries <= np.finfo(np.float64).eps * 2.0 ** (config.total + config.n)] = 0.0
    return float((entries ** (1.0 / config.n)).sum())


def classical_bound(config: NetworkConfig) -> float:
    """Largest Bell value any classical model can reach.

    1 for even networks; 2**Lmax * 2**(-sum(L_j)/n) in general.
    """
    return 2.0 ** config.max_branch * 2.0 ** (-sum(config.branches) / config.n)


def predicted_quantum_value(config: NetworkConfig, kind: str) -> float:
    """Closed-form Bell value of GHZ sources under the named scheme."""
    if kind == "xy":
        if not config.is_homogeneous():
            raise ValueError("the xy scheme has no closed form on uneven networks")
        return 2.0 ** (config.max_branch // 2)
    if kind == "rotated":
        s = sum(config.branches)
        return 2.0 ** config.max_branch * 2.0 ** (-s / (2.0 * config.n))
    raise ValueError(f"unknown scheme kind {kind!r}")


def critical_visibility(config: NetworkConfig) -> float:
    """Total network visibility below which no violation is possible.

    2**(-sum(L_j)/2); the rotated scheme attains this threshold.
    """
    return 2.0 ** (-sum(config.branches) / 2.0)


def find_critical_visibility(
    config: NetworkConfig, scheme: MeasurementScheme, tol: float = 1e-6
):
    """Locate the violation threshold by bisection on simulated tables.

    The total visibility V is split evenly as V**(1/n) per source; each
    probe simulates the noisy network from scratch.  Returns None when the
    noiseless value does not exceed the classical bound.
    """
    smap = scheme_setting_map(scheme)
    bound = classical_bound(config)

    def value_at(total: float) -> float:
        per_source = total ** (1.0 / config.n)
        table = network_table(scheme, (per_source,) * config.n)
        return bell_value(truncated_spectrum(table, smap))

    if value_at(1.0) <= bound + 1e-9:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol / 4:
        mid = (lo + hi) / 2
        if value_at(mid) > bound:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def contribution_count(size: int, residue: int) -> int:
    """Number of setting words of the given length whose weight is ≡
    ``residue`` (mod 4); only residues 0 and 3 occur in the analysis.

    Evaluates both the binomial sum and its trigonometric closed form and
    checks that they agree before returning.
    """
    exact = _contribution_sum(size, residue)
    closed = contribution_count_closed_form(size, residue)
    if abs(closed - exact) > 1e-6:
        raise ArithmeticError(
            f"count mismatch at size={size}, residue={residue}: {exact} vs {closed}"
        )
    return exact


def _contribution_sum(size: int, residue: int) -> int:
    if size < 1:
        raise ValueError("size must be at least 1")
    if residue not in (0, 3):
        raise ValueError("residue must be 0 or 3")
    return sum(comb(size, k) for k in range(residue, size + 1, 4))


def contribution_count_closed_form(size: int, residue: int) -> float:
    """Trigonometric closed form of :func:`contribution_count`."""
    if residue not in (0, 3):
        raise ValueError("residue must be 0 or 3")
    half = 2.0 ** (size / 2.0)
    quarter = math.pi * size / 4.0
    parity = -1.0 if size & 1 else 1.0
    if residue == 0:
        inner = half + math.cos(quarter) + parity * math.cos(3 * quarter)
    else:
        inner = half - math.sin(quarter) + parity * math.sin(3 * quarter)
    return inner * half / 4.0


def correlator_expansion_coefficient(size: int, cardinality: int, k: int) -> int:
    """Coefficient of t**k in (1+t)**(size-cardinality) * (1-t)**cardinality.

    These weight the cosine harmonics when the subset correlator of a
    one-source experiment is expanded over common measurement angles.
    """
    if not 0 <= cardinality <= size:
        raise ValueError("cardinality must lie in 0..size")
    if not 0 <= k <= size:
        raise ValueError("k must lie in 0..size")
    return sum(
        (-1) ** s * comb(size - cardinality, k - s) * comb(cardinality, s)
        for s in range(0, min(cardinality, k) + 1)
        if k - s <= size - cardinality
    )


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


def single_experiment_value(correlators, setting_map) -> float:
    """Bell value of a one-source experiment given its raw correlators.

    ``correlators[x, y]`` is the full-correlator of the branch outcomes
    and the center outcome at branch settings x and center setting y.
    With one branch this is the CHSH expression; with two, Mermin's.
    """
    corr = np.asarray(correlators, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] & (corr.shape[0] - 1):
        raise ValueError("correlators must have shape (2**L, settings)")
    setting_map = np.asarray(setting_map)
    if setting_map.shape != (corr.shape[0],):
        raise ValueError("need one center setting per subset mask")
    if setting_map.min() < 0 or setting_map.max() >= corr.shape[1]:
        raise ValueError("setting map refers to a missing center setting")
    spectrum = fwht(corr)[np.arange(corr.shape[0]), setting_map]
    return float(np.abs(spectrum).sum() / corr.shape[0])
