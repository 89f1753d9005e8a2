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
with the branch qubits rotated, batched over every setting word.  White
noise enters the separable route linearly: a unitary basis change maps
the maximally mixed state to itself, so a source of visibility ``V`` has
outcome probabilities ``V * |amplitude|**2 + (1 - V) / 2**(L+1)``, the
same as its density operator gives.  One-source tables join by one batched
matmul in the Walsh–Hadamard domain of the center's parity bit.

The exact kernels :func:`bellnet.inequality.separable_spectrum` and
:func:`bellnet.swap.swap_spectrum` give every quantum Bell value; these
tables are only their cross-check, built where :func:`separable_table_cap`
lets them fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkConfig, over_budget, parity_signs, rotated_setting_map, xy_setting_map

HALF_PI = math.pi / 2

_NORM_TOL = 1e-12


def ghz_state(m: int) -> np.ndarray:
    """GHZ state of ``m`` qubits: equal superposition of all-0 and all-1."""
    if m < 1:
        raise ValueError("a GHZ state needs at least one qubit")
    if refusal := over_budget("the GHZ state", m):
        raise ValueError(refusal)
    psi = np.zeros(1 << m, dtype=np.complex128)
    psi[0] = psi[-1] = 1 / math.sqrt(2)
    return psi


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


def _check_distributions(values: np.ndarray, outcome_axes) -> None:
    """Entries must be nonnegative and sum to one over ``outcome_axes``."""
    if values.min() < -_NORM_TOL:
        raise ValueError("negative probability entry")
    if np.abs(values.sum(axis=outcome_axes) - 1.0).max() > _NORM_TOL:
        raise ValueError("per-setting probabilities do not sum to one")


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Joint conditional distribution of all outcomes given all settings."""

    config: NetworkConfig
    values: np.ndarray  # (2**total, n_settings, 2**total, 2)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        dim = 1 << self.config.total
        if v.ndim != 4 or v.shape[0] != dim or v.shape[2] != dim or v.shape[3] != 2:
            raise ValueError(f"table shape {v.shape} does not match config")
        _check_distributions(v, (2, 3))

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
        _check_distributions(v, (1, 2))


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
    values = amp.real**2 + amp.imag**2
    values *= visibility
    values += (1.0 - visibility) / 2 ** (size + 1)
    return CorrelationTable(NetworkConfig(1, (size,)), values)


def _branch_amplitudes(angles: np.ndarray) -> np.ndarray:
    """``amp[x, c, a]`` of one pure GHZ source: setting word ``x``, center
    qubit ``c`` (computational basis) and branch outcome word ``a``, with
    branch observer ``k`` at angles ``angles[k]`` in bit ``k`` of ``x``
    and ``a``.  Each qubit's rotation adds its setting bit as a new
    leading axis, so all setting words are batched.
    """
    size = len(angles)
    # amp[x, i]: amplitude of outcome word i (qubit q in bit q) after the
    # branch qubits seen so far were rotated for setting word x.  Qubit k
    # splits i into (higher bits, bit k, lower bits).
    amp = ghz_state(size + 1)[None, :]
    for k in range(size):
        parts = amp.reshape(amp.shape[0], 1 << (size - k), 2, 1 << k)
        amp = np.einsum("sod,xhdl->sxhol", _basis_adjoints(angles[k]), parts)
        amp = amp.reshape(2 * parts.shape[0], -1)
    # The center qubit is the top bit of i.
    return amp.reshape(1 << size, 2, 1 << size)


def _basis_adjoints(thetas) -> np.ndarray:
    """``measurement_basis(theta)^dagger`` for each angle, stacked."""
    return measurement_basis(thetas).conj().swapaxes(-1, -2)


def _quarter_cos(m) -> np.ndarray:
    """cos(pi/2 * m) for integer m, evaluated exactly."""
    return np.asarray([1.0, 0.0, -1.0, 0.0])[np.asarray(m) % 4]


def single_source_closed_form_table(size: int) -> CorrelationTable:
    """Closed-form table of one noiseless GHZ source measured along the
    coordinate axes of the equatorial plane (setting 0 -> X, 1 -> Y).

    Each entry is ``2**-(size+1) * (1 + sign * c)`` where ``sign`` is the
    parity of all outcomes and ``c = cos(pi/2 * (weight(x) + y))``.
    """
    return network_closed_form_table(NetworkConfig(1, (size,)))


def network_closed_form_table(config: NetworkConfig) -> CorrelationTable:
    """Closed-form table of a noiseless homogeneous network with every
    observer on the coordinate axes of the equatorial plane."""
    dim = 1 << config.total
    prod = np.ones((dim, 2))
    xs = np.arange(dim)
    for j in range(config.n):
        xw = np.array([config.source_bits(int(x), j).bit_count() for x in xs])
        prod *= _quarter_cos(xw[:, None] + np.arange(2)[None, :])
    sign = np.outer(parity_signs(config.total), [1.0, -1.0])
    values = (1.0 + prod[:, :, None, None] * sign[None, None, :, :]) / (2 * dim)
    return CorrelationTable(config, values)


def compose_network(tables) -> CorrelationTable:
    """Join independent single-source tables into one network table.

    The center observer announces the XOR of his per-source parity bits, so
    composition is an XOR convolution over those bits: a product of each
    source's Walsh pair ``(p0 + p1, p0 - p1)``.  One batched matmul takes
    the largest source's table into the product of the others, which carries
    its transform and the inverse one.  Sources are packed in list order:
    the first table owns the least significant setting and outcome bits.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table")
    if any(t.config.n != 1 for t in tables):
        raise ValueError("compose_network expects single-source tables")
    n_y = tables[0].n_bob_settings
    if any(t.n_bob_settings != n_y for t in tables):
        raise ValueError("all per-source tables must share the setting count")
    branches = tuple(t.config.branches[0] for t in tables)
    walsh = np.array([[1.0, 1.0], [1.0, -1.0]])
    # The largest source j (the last of equals) enters one batched matmul, so
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
    out = np.empty((d_hi, d_j, d_lo, n_y, d_hi, d_j, 2 * d_lo))
    np.matmul(tables[j].values[None, :, None, :, None], factor, out=out)
    return CorrelationTable(NetworkConfig(len(tables), branches), out.reshape(dim, n_y, dim, 2))


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


def custom_scheme(config: NetworkConfig, theta0: float, theta1: float) -> MeasurementScheme:
    """Every branch observer measuring at angles (theta0, theta1).

    Only defined for homogeneous networks, where the two-setting center
    convention applies unchanged.
    """
    if not config.is_homogeneous():
        raise ValueError("custom angle schemes require a homogeneous network")
    angles = np.tile(np.array([float(theta0), float(theta1)]), (config.total, 1))
    return MeasurementScheme(config, angles, "custom")


def scheme_setting_map(scheme: MeasurementScheme) -> np.ndarray:
    """Subset-to-center-setting map matching the scheme's convention."""
    if scheme.kind == "rotated":
        return rotated_setting_map(scheme.config)
    if not scheme.config.is_homogeneous():
        raise ValueError(f"the {scheme.kind} scheme requires a homogeneous network")
    return xy_setting_map(scheme.config.max_branch)


def bob_setting_count(config: NetworkConfig) -> int:
    """Number of separable center settings: one bit per distinct branch count."""
    return 1 << len(config.block_sizes)


def separable_table_cap(config: NetworkConfig) -> str | None:
    """The refusal of :func:`network_table`'s array, or None; each source's is smaller."""
    return over_budget("the separable table", 2 * config.total + len(config.block_sizes) + 1)


def network_table(scheme: MeasurementScheme, visibilities=None) -> CorrelationTable:
    """Simulate the full network under a separable center measurement.

    Builds each source's noisy table and composes them.  ``visibilities``
    holds one GHZ weight per source (default all 1).  The center observer's
    angle on the qubit from source ``j`` is X or Y according to the setting
    bit of that source's block.
    """
    config = scheme.config
    if visibilities is None:
        visibilities = (1.0,) * config.n
    visibilities = tuple(float(v) for v in visibilities)
    if len(visibilities) != config.n:
        raise ValueError("need one visibility per source")
    n_y = bob_setting_count(config)
    tables = []
    for j in range(config.n):
        off, size = config.offsets[j], config.branches[j]
        block = config.block_index(j)
        bob_angles = tuple(HALF_PI * ((y >> block) & 1) for y in range(n_y))
        tables.append(
            single_source_table(
                size,
                scheme.branch_angles[off : off + size],
                bob_angles,
                visibilities[j],
            )
        )
    return compose_network(tables)


def swap_joint_table(config: NetworkConfig, branch_angles) -> SwapJointTable:
    """Simulate the network with the center observer measuring jointly.

    Outcome ``v`` is the GHZ state with Z on his qubit 0 when bit 0 of
    ``v`` is set and X on his qubit ``q >= 1`` when bit ``q`` is: 1/sqrt(2)
    at word ``w = v & ~1`` and at its complement, signed by bit 0.  Sources
    are independent, so the amplitude of center word ``w`` is the product
    of each source's branch amplitudes at its bit of ``w``; each of the two
    products is the last source's amplitudes times those of the rest,
    formed into one reused buffer.
    """
    if refusal := over_budget("the joint table", 2 * config.total + config.n):
        raise ValueError(refusal)
    angles = np.asarray(branch_angles, dtype=np.float64)
    if angles.shape != (config.total, 2):
        raise ValueError("branch_angles must have shape (total observers, 2)")

    amps = [
        _branch_amplitudes(angles[off : off + size])
        for off, size in zip(config.offsets, config.branches)
    ]
    # rest[u, x, a]: the product over every source but the last, u packing
    # their center qubits; each later source's bits sit above the earlier.
    rest = np.ones((1, 1, 1), dtype=np.complex128)
    for amp in amps[:-1]:
        d = amp.shape[0] * rest.shape[1]
        rest = np.einsum("xca,uXA->cuxXaA", amp, rest).reshape(2 * len(rest), d, d)
    # The two nonzero words of a basis state differ in every bit, so the
    # last source's center qubit is 0 in one term and 1 in the other:
    # buf[x, a] = sum_c last[x_last, c, a_last] * terms[x_rest, c, a_rest].
    last = amps[-1].transpose(0, 2, 1)[:, None]
    d_last, d_rest = last.shape[0], rest.shape[1]
    terms = np.empty((d_rest, 2, d_rest), dtype=np.complex128)
    buf = np.empty((d_last, d_rest, d_last, d_rest), dtype=np.complex128)
    top, all_bits, s = config.n - 1, (1 << config.n) - 1, 1 / math.sqrt(2)
    dim = 1 << config.total
    values = np.empty((dim, dim, 1 << config.n))
    for v in range(1 << config.n):
        w = v & ~1
        for word, coeff in ((w, s), (w ^ all_bits, -s if v & 1 else s)):
            np.multiply(coeff, rest[word & ~(1 << top)], out=terms[:, word >> top])
        np.matmul(last, terms[None], out=buf)
        np.abs(buf.reshape(dim, dim), out=values[..., v])
    values *= values
    return SwapJointTable(config, values)
