"""Dense simulation of star-network measurement statistics.

Sources emit GHZ states of ``branches[j] + 1`` qubits, optionally mixed
with white noise.  Branch observers measure along directions in the
equatorial (XY) plane of the Bloch sphere; the center observer either
measures each of his qubits separately along a coordinate axis of that
plane and announces the parity, or projects all of them jointly onto a
GHZ-like entangled basis.

Tables returned by this module hold one probability per (settings,
outcomes) combination:

* ``CorrelationTable.values[x, y, a, b]`` with ``x``/``a`` packed over
  branch observers (little-endian, source-major), ``y`` the center
  observer's setting index and ``b`` his announced parity bit.
* ``SwapJointTable.values[x, a, v]`` for the joint entangled measurement,
  where ``v`` packs the center observer's n-bit outcome (bit ``j`` for the
  qubit received from source ``j``).

Within one source the qubit order is branch observers first, the center
observer's qubit last.

Both center measurements start from each source's pure GHZ amplitudes
in product form: the state is a sum of two product states, so each
amplitude is ``1/sqrt(2)`` times one overlap per observer, batched over
every setting word.  White noise enters the separable route linearly: a
unitary basis change maps the maximally mixed state to itself, so a
source of visibility ``V`` has outcome probabilities
``V * |amplitude|**2 + (1 - V) / 2**(L+1)``, the same as its density
operator gives.  One-source tables join by batched matmuls in the
Walsh–Hadamard domain of the center's parity bit.

Every correlation table is checked and signed by its constructor, in one
blocked pass of about ``_BLOCK_ENTRIES`` entries per block: each block
must hold no negative entry, and one product with the ``(2 * 2**T, 2)``
matrix ``[1, (-1)^(|a| + b)]`` gives its rows' sums, checked against one
once the pass ends, and its full correlators, which the table keeps.
:func:`compose_network` writes the network table in one batched matmul
and hands it to that constructor.  Past :func:`fits_one_block` the command
line's check composes none: :func:`bellnet.inequality.simulated_spectrum`
multiplies the spectrum entries of the :func:`source_tables`.

The exact kernels :func:`bellnet.inequality.separable_spectrum` and
:func:`bellnet.swap.swap_spectrum` give every quantum Bell value; these
tables are only their cross-check, built where :func:`separable_table_cap`
and :func:`joint_table_cap` let them fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .network import NetworkConfig, over_budget, parity_signs, rotated_setting_map, xy_setting_map

HALF_PI = math.pi / 2

_NORM_TOL = 1e-12

# Entries per checked block: 1 MiB of float64, so a block just written is
# checked and signed while it is still in cache.
_BLOCK_ENTRIES = 1 << 17


def measurement_basis(theta) -> np.ndarray:
    """Eigenvector matrix of the equatorial observable, stacked over the
    leading axes when ``theta`` is an array of angles.

    Column ``o`` is the eigenvector for outcome ``o``, so conjugating a
    state with this matrix moves it to the measurement basis.
    """
    phase = np.exp(1j * np.asarray(theta, dtype=np.float64))
    basis = np.empty(phase.shape + (2, 2), dtype=np.complex128)
    basis[..., 0, :] = 1.0
    basis[..., 1, 0], basis[..., 1, 1] = phase, -phase
    return basis / math.sqrt(2)


def _check_least(least) -> None:
    """Refuse a table whose least entry is negative or NaN.  ``min``
    carries a NaN through and every comparison with one is false, so the
    test is written to pass only on a number at or above the tolerance."""
    if not least >= -_NORM_TOL:
        what = "NaN" if np.isnan(least) else "negative"
        raise ValueError(f"{what} probability entry")


def _check_sums(sums: np.ndarray) -> None:
    """Refuse row sums off one, NaN included (see :func:`_check_least`)."""
    if not np.abs(sums - 1.0).max() <= _NORM_TOL:
        raise ValueError("per-setting probabilities do not sum to one")


@lru_cache(maxsize=None)
def _sum_and_sign(total: int) -> np.ndarray:
    """``[1, (-1)^(|a| + b)]`` for each outcome word ``2a + b`` of ``total``
    branch observers: one row per word, read-only."""
    matrix = np.stack((np.ones(2 << total), parity_signs(total + 1)), axis=1)
    matrix.setflags(write=False)
    return matrix


def _signed_rows(rows: np.ndarray, total: int) -> np.ndarray:
    """``(sum, correlator)`` of each row of outcome probabilities, once the
    rows hold no negative or NaN entry."""
    _check_least(rows.min())
    return rows @ _sum_and_sign(total)


def _signed_table(values: np.ndarray, total: int) -> np.ndarray:
    """:func:`_signed_rows` of every ``(x, y)`` row of ``values[x, y, a, b]``,
    about ``_BLOCK_ENTRIES`` entries at a time.  A broadcast view that
    repeats one center setting is signed once and never copied."""
    count, n_y = values.shape[:2]
    if n_y > 1 and values.strides[1] == 0:
        return np.broadcast_to(_signed_table(values[:, :1], total), (count, n_y, 2))
    signed = np.empty((count, n_y, 2))
    width = 2 << total
    step = max(1, _BLOCK_ENTRIES // (n_y * width))
    for lo in range(0, count, step):
        block = values[lo : lo + step].reshape(-1, width)
        signed[lo : lo + step] = _signed_rows(block, total).reshape(-1, n_y, 2)
    return signed


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint conditional distribution of all outcomes given all settings.

    ``correlators[x, y]`` is the full correlator, the expectation of
    ``(-1)^(|a| + b)`` at settings ``(x, y)``; the pass that checks the
    table computes it.
    """

    config: NetworkConfig
    values: np.ndarray  # (2**total, n_settings, 2**total, 2)
    correlators: np.ndarray = field(init=False, repr=False)  # (2**total, n_settings)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        total = self.config.total
        dim = 1 << total
        if v.ndim != 4 or v.shape[0] != dim or v.shape[2] != dim or v.shape[3] != 2:
            raise ValueError(f"table shape {v.shape} does not match config")
        signed = _signed_table(v, total)
        _check_sums(signed[..., 0])
        correlators = signed[..., 1]
        correlators.setflags(write=False)
        object.__setattr__(self, "correlators", correlators)

    @property
    def n_bob_settings(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SwapJointTable:
    """Joint distribution for the entangled center measurement.

    No center setting exists; his n-bit outcome replaces the parity bit.
    """

    config: NetworkConfig
    values: np.ndarray  # (2**total, 2**total, 2**n)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        dim = 1 << self.config.total
        if v.shape != (dim, dim, 1 << self.config.n):
            raise ValueError(f"table shape {v.shape} does not match config")
        _check_least(v.min())
        _check_sums(v.sum(axis=(1, 2)))


def single_source_table(
    size: int,
    branch_angles,
    bob_angles=(0.0, HALF_PI),
    visibility: float = 1.0,
) -> CorrelationTable:
    """Measurement statistics of one noisy GHZ source.

    ``branch_angles[k]`` holds the two equatorial angles of branch observer
    ``k`` (one per setting); ``bob_angles`` lists the center observer's
    angle for each of his settings.  The center qubit of
    :func:`_branch_amplitudes` is rotated into each of those bases, and
    white noise of weight ``1 - visibility`` is then mixed into the
    squared amplitudes linearly, which is exact for any measurement plane.
    """
    # values[x, y, a, b]: 4**size * 2 entries per center setting
    bits = 2 * size + math.log2(len(bob_angles)) + 1
    if refusal := over_budget("one source's table", bits):
        raise ValueError(refusal)
    angles = np.asarray(branch_angles, dtype=np.float64)
    if angles.shape != (size, 2):
        raise ValueError(f"branch_angles must have shape ({size}, 2)")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    # (x, c, a) -> values[x, y, a, b]: the center qubit measured last.
    amp = np.einsum(
        "yod,xda->xyao", _basis_adjoints(bob_angles), _branch_amplitudes(angles)
    )
    values = np.square(amp.real)
    values += np.square(amp.imag, out=amp.imag)
    values *= visibility
    values += (1.0 - visibility) / 2 ** (size + 1)
    return CorrelationTable(NetworkConfig(1, (size,)), values)


def _branch_amplitudes(angles: np.ndarray) -> np.ndarray:
    """``amp[x, c, a]`` of one pure GHZ source: setting word ``x``, center
    qubit ``c`` (computational basis) and branch outcome word ``a``, with
    branch observer ``k`` at angles ``angles[k]`` in bit ``k`` of ``x``
    and ``a``.  The GHZ state is the sum of two product states, one per
    value of ``c``, so each entry is ``1/sqrt(2)`` times one overlap per
    observer; each observer adds its setting and outcome bits above the
    earlier ones, so all setting words are batched.
    """
    amp = np.full((1, 2, 1), 1 / math.sqrt(2), dtype=np.complex128)
    for theta in angles:
        amp = np.einsum("soc,xca->sxcoa", _basis_adjoints(theta), amp)
        amp = amp.reshape(2 * amp.shape[1], 2, -1)
    return amp


def _basis_adjoints(thetas) -> np.ndarray:
    """``measurement_basis(theta)^dagger`` for each angle, stacked."""
    return measurement_basis(thetas).conj().swapaxes(-1, -2)


def compose_network(tables) -> CorrelationTable:
    """Join independent single-source tables into one network table.

    Sources are packed in list order: the first table owns the least
    significant setting and outcome bits.  One table is returned as it is.

    The center observer announces the XOR of his per-source parity bits, so
    composition is an XOR convolution over those bits: a product of each
    source's Walsh pair ``(p0 + p1, p0 - p1)``.  The largest source's table
    is multiplied into the product of the others, which carries its
    transform and the inverse one, in one batched matmul; the table's
    constructor then checks and signs it.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table")
    if any(t.config.n != 1 for t in tables):
        raise ValueError("compose_network expects single-source tables")
    n_y = tables[0].n_bob_settings
    if any(t.n_bob_settings != n_y for t in tables):
        raise ValueError("all per-source tables must share the setting count")
    if len(tables) == 1:
        return tables[0]
    branches = tuple(t.config.branches[0] for t in tables)
    walsh = np.array([[1.0, 1.0], [1.0, -1.0]])
    # The largest source j (the last of equals) enters the batched matmul, so
    # rest[X, y, s, A], the others' Walsh terms s times the inverse
    # transform's 1/2, stays small; later sources take higher bits.
    j = max(range(len(tables)), key=lambda k: (branches[k], k))
    rest = np.full((1, n_y, 2, 1), 0.5)
    for t in tables[:j] + tables[j + 1 :]:
        pair = (t.values @ walsh).transpose(0, 1, 3, 2)
        d = len(pair) * len(rest)
        rest = (pair[:, None, :, :, :, None] * rest[None, :, :, :, None, :]).reshape(d, n_y, 2, d)
    # j's bits split the others' into high and low ones: out[X, x, Z, y, A, a, (C, b)]
    # = sum_t p_j[x, y, a, t] sum_s walsh[t, s] rest[X, Z, y, s, A, C] walsh[s, b],
    # so j's own pair is folded into the small factor too.
    dim, d_j, d_lo = 1 << sum(branches), len(tables[j].values), 1 << sum(branches[:j])
    d_hi = len(rest) // d_lo
    rest = rest.reshape(d_hi, d_lo, n_y, 2, d_hi, d_lo).transpose(0, 1, 2, 4, 3, 5)
    factor = walsh @ (rest[..., None] * walsh[:, None, :]).reshape(d_hi, 1, d_lo, n_y, d_hi, 2, -1)
    table = np.empty((d_hi, d_j, d_lo, n_y, d_hi, d_j, 2 * d_lo))
    np.matmul(tables[j].values[None, :, None, :, None], factor, out=table)
    config = NetworkConfig(len(tables), branches)
    return CorrelationTable(config, table.reshape(dim, n_y, dim, 2))


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """Branch-observer angles, named by ``kind``.

    ``branch_angles[t, s]`` is the equatorial angle observer ``t`` uses for
    setting ``s``.  The scheme does not fix the center measurement:
    :func:`network_table` measures his qubits one by one and
    :func:`swap_joint_table` jointly, both from the same branch angles, as
    do the exact kernels that these tables check.
    """

    config: NetworkConfig
    branch_angles: np.ndarray
    kind: str

    def __post_init__(self):
        angles = np.asarray(self.branch_angles, dtype=np.float64)
        object.__setattr__(self, "branch_angles", angles)
        if angles.shape != (self.config.total, 2):
            raise ValueError("branch_angles must have shape (total observers, 2)")

    @cached_property
    def _setting_map(self) -> np.ndarray:
        """:func:`scheme_setting_map`, computed on first read and kept read-only."""
        if self.kind == "rotated":
            smap = rotated_setting_map(self.config)
        elif self.config.is_homogeneous():
            smap = xy_setting_map(self.config.max_branch)
        else:
            raise ValueError(f"the {self.kind} scheme requires a homogeneous network")
        smap.setflags(write=False)
        return smap


def xy_scheme(config: NetworkConfig) -> MeasurementScheme:
    """Branch observers on the two coordinate axes of the equatorial plane."""
    angles = np.tile(np.array([0.0, HALF_PI]), (config.total, 1))
    return MeasurementScheme(config, angles, "xy")


def rotated_scheme(config: NetworkConfig) -> MeasurementScheme:
    """Branch observers on the two diagonals of the equatorial plane.

    Setting 0 measures (X+Y)/sqrt(2) and setting 1 measures (X-Y)/sqrt(2);
    this lifts the violation of odd branch counts up to that of the next
    even one.
    """
    angles = np.tile(np.array([math.pi / 4, -math.pi / 4]), (config.total, 1))
    return MeasurementScheme(config, angles, "rotated")


def scheme_setting_map(scheme: MeasurementScheme) -> np.ndarray:
    """Subset-to-center-setting map of the scheme's convention, one per scheme."""
    return scheme._setting_map


def bob_setting_count(config: NetworkConfig) -> int:
    """Number of separable center settings: one bit per distinct branch count."""
    return 1 << len(config.block_sizes)


def separable_table_cap(config: NetworkConfig) -> str | None:
    """The refusal of :func:`network_table`'s array, or None; each source's is
    smaller.  Past :func:`fits_one_block` the check builds only the sources',
    so there this bounds which networks are checked, not the check's work."""
    return over_budget("the separable table", 2 * config.total + len(config.block_sizes) + 1)


def fits_one_block(config: NetworkConfig) -> bool:
    """Whether :func:`network_table`'s array fits one block of ``_BLOCK_ENTRIES``."""
    return 2 * 4**config.total * bob_setting_count(config) <= _BLOCK_ENTRIES


def network_table(scheme: MeasurementScheme, visibilities=None) -> CorrelationTable:
    """Simulate the full network under a separable center measurement.

    Composes the tables of :func:`source_tables`.  ``visibilities`` holds
    one GHZ weight per source (default all 1).
    """
    return compose_network(source_tables(scheme, visibilities))


def source_tables(scheme: MeasurementScheme, visibilities=None) -> list[CorrelationTable]:
    """Each source's noisy table under a separable center measurement.

    The center observer's angle on the qubit from source ``j`` is X or Y
    according to the setting bit of that source's block.  Sources that
    share their angles, center angles and visibility share one table,
    simulated once per call.
    """
    config = scheme.config
    if visibilities is None:
        visibilities = (1.0,) * config.n
    visibilities = tuple(float(v) for v in visibilities)
    if len(visibilities) != config.n:
        raise ValueError("need one visibility per source")
    n_y = bob_setting_count(config)
    simulated = {}
    tables = []
    for j in range(config.n):
        off, size = config.offsets[j], config.branches[j]
        block = config.block_index(j)
        bob_angles = tuple(HALF_PI * ((y >> block) & 1) for y in range(n_y))
        angles = scheme.branch_angles[off : off + size]
        key = (angles.tobytes(), bob_angles, visibilities[j])
        if key not in simulated:
            simulated[key] = single_source_table(size, angles, bob_angles, visibilities[j])
        tables.append(simulated[key])
    return tables


def joint_table_cap(config: NetworkConfig) -> str | None:
    """The refusal of :func:`swap_joint_table`'s array, or None; only a check reads it."""
    return over_budget("the joint table", 2 * config.total + config.n, 16)


def swap_joint_table(config: NetworkConfig, branch_angles) -> SwapJointTable:
    """Simulate the network with the center observer measuring jointly.

    Sources are independent, so the amplitude of branch outcome word ``a``
    and center word ``w`` at setting word ``x`` is the product of each
    source's branch amplitudes at its bits of ``x``, ``w`` and ``a``.
    Outcome ``v`` is the GHZ state with Z on his qubit 0 when bit 0 of
    ``v`` is set and X on his qubit ``q >= 1`` when bit ``q`` is: 1/sqrt(2)
    at word ``w = v & ~1`` and at its complement, signed by bit 0.
    """
    if refusal := joint_table_cap(config):
        raise ValueError(refusal)
    angles = np.asarray(branch_angles, dtype=np.float64)
    if angles.shape != (config.total, 2):
        raise ValueError("branch_angles must have shape (total observers, 2)")
    # joint[x, a, w]: the amplitude product at setting word x, branch outcome
    # word a and center word w; each later source's bits sit above the earlier.
    # Sources that share their angles share one amplitude array.
    joint = np.ones((1, 1, 1), dtype=np.complex128)
    simulated = {}
    for off, size in zip(config.offsets, config.branches):
        source = angles[off : off + size]
        key = source.tobytes()
        if key not in simulated:
            simulated[key] = _branch_amplitudes(source)
        amp = simulated[key]
        d = len(amp) * len(joint)
        joint = np.einsum("xca,XAW->xXaAcW", amp, joint).reshape(d, d, -1)
    v = np.arange(1 << config.n)
    w, sign = v & ~1, 1 - 2 * (v & 1)
    amp = (joint[..., w] + sign * joint[..., w ^ v[-1]]) / math.sqrt(2)
    values = np.abs(amp)
    values *= values
    return SwapJointTable(config, values)
