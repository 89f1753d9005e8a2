"""Exact quantum evaluation of star-network measurement statistics.

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

Separable-center statistics come from a state-vector simulation of each
source, batched over every setting word.  White noise enters linearly:
a unitary basis change maps the maximally mixed state to itself, so a
source of visibility ``V`` has outcome probabilities
``V * |amplitude|**2 + (1 - V) / 2**(L+1)``, the same as its density
operator gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import NetworkConfig, rotated_setting_map, xy_setting_map

HALF_PI = math.pi / 2

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# Dense state vectors over m qubits cost 2**m amplitudes, and one source
# batched over its setting words 4**L * n_settings * 2; these caps keep
# any single object under ~1 GiB.
MAX_STATE_QUBITS = 12
MAX_SOURCE_BRANCHES = 10

_NORM_TOL = 1e-12


def ghz_state(m: int) -> np.ndarray:
    """GHZ state of ``m`` qubits: equal superposition of all-0 and all-1."""
    if not 1 <= m <= MAX_STATE_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_STATE_QUBITS}")
    psi = np.zeros(1 << m, dtype=np.complex128)
    psi[0] = psi[-1] = 1 / math.sqrt(2)
    return psi


def xy_observable(theta: float) -> np.ndarray:
    """Equatorial-plane observable cos(theta) X + sin(theta) Y."""
    return math.cos(theta) * PAULI_X + math.sin(theta) * PAULI_Y


def xy_projector(theta: float, outcome: int) -> np.ndarray:
    """Projector onto the ``(-1)**outcome`` eigenspace of the observable."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    sign = 1 if outcome == 0 else -1
    return (np.eye(2, dtype=np.complex128) + sign * xy_observable(theta)) / 2


def measurement_basis(theta: float) -> np.ndarray:
    """Eigenvector matrix of the equatorial observable.

    Column ``o`` is the eigenvector for outcome ``o``, so conjugating a
    state with this matrix moves it to the measurement basis.
    """
    phase = np.exp(1j * theta)
    return np.array([[1, 1], [phase, -phase]], dtype=np.complex128) / math.sqrt(2)


def _apply_rows(op: np.ndarray, tensor: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(op, tensor, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _rotate_state(psi: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    return _apply_rows(measurement_basis(theta).conj().T, psi, qubit)


def _little_endian_flatten(tensor: np.ndarray) -> np.ndarray:
    """Flatten a (2,)*m tensor so axis q becomes bit q of the index."""
    return tensor.transpose(tuple(reversed(range(tensor.ndim)))).reshape(-1)


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
        if v.min() < -_NORM_TOL:
            raise ValueError("negative probability entry")
        sums = v.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > _NORM_TOL:
            raise ValueError("per-setting probabilities do not sum to one")

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
        if v.min() < -_NORM_TOL:
            raise ValueError("negative probability entry")
        sums = v.sum(axis=(1, 2))
        if np.abs(sums - 1.0).max() > _NORM_TOL:
            raise ValueError("per-setting probabilities do not sum to one")


def uniform_table(config: NetworkConfig, n_bob_settings: int = 2) -> CorrelationTable:
    """The fully random table: every outcome equally likely."""
    dim = 1 << config.total
    values = np.full((dim, n_bob_settings, dim, 2), 1.0 / (2 * dim))
    return CorrelationTable(config, values)


def single_source_table(
    size: int,
    branch_angles,
    bob_angles=(0.0, HALF_PI),
    visibility: float = 1.0,
) -> CorrelationTable:
    """Measurement statistics of one noisy GHZ source.

    ``branch_angles[k]`` holds the two equatorial angles of branch observer
    ``k`` (one per setting); ``bob_angles`` lists the center observer's
    angle for each of his settings.  The pure GHZ amplitudes are rotated
    into every measurement basis at once: each qubit's rotation adds its
    setting bit as a new leading axis.  White noise of weight
    ``1 - visibility`` is then mixed into the squared amplitudes linearly,
    which is exact for any measurement plane.
    """
    if not 1 <= size <= MAX_SOURCE_BRANCHES:
        raise ValueError(f"branch count must be in 1..{MAX_SOURCE_BRANCHES}")
    angles = np.asarray(branch_angles, dtype=np.float64)
    if angles.shape != (size, 2):
        raise ValueError(f"branch_angles must have shape ({size}, 2)")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    dim = 1 << size
    # amp[x, i]: amplitude of outcome word i (qubit q in bit q) after the
    # branch qubits seen so far were rotated for setting word x.  Qubit k
    # splits i into (higher bits, bit k, lower bits).
    amp = ghz_state(size + 1)[None, :]
    for k in range(size):
        parts = amp.reshape(amp.shape[0], 1 << (size - k), 2, 1 << k)
        amp = np.einsum("sod,xhdl->sxhol", _basis_adjoints(angles[k]), parts)
        amp = amp.reshape(2 * parts.shape[0], -1)
    # The center qubit is the top bit: (x, b, a) -> values[x, y, a, b].
    amp = np.einsum(
        "yod,xda->xyao", _basis_adjoints(bob_angles), amp.reshape(dim, 2, dim)
    )
    values = amp.real**2 + amp.imag**2
    values *= visibility
    values += (1.0 - visibility) / (2 * dim)
    return CorrelationTable(NetworkConfig(1, (size,)), values)


def _basis_adjoints(thetas) -> np.ndarray:
    """``measurement_basis(theta)^dagger`` for each angle, stacked."""
    return np.stack([measurement_basis(float(t)).conj().T for t in thetas])


def _quarter_cos(m) -> np.ndarray:
    """cos(pi/2 * m) for integer m, evaluated exactly."""
    return np.asarray([1.0, 0.0, -1.0, 0.0])[np.asarray(m) % 4]


def single_source_closed_form(size: int, x: int, y: int, a: int, b: int) -> float:
    """Closed-form probability for one noiseless GHZ source measured along
    the coordinate axes of the equatorial plane (setting 0 -> X, 1 -> Y).

    Equals ``2**-(size+1) * (1 + sign * c)`` where ``sign`` is the parity
    of all outcomes and ``c = cos(pi/2 * (weight(x) + y))``.
    """
    sign = -1.0 if (b + int(a).bit_count()) & 1 else 1.0
    c = float(_quarter_cos(int(x).bit_count() + y))
    return (1.0 + sign * c) / (1 << (size + 1))


def single_source_closed_form_table(size: int) -> CorrelationTable:
    """Closed form of :func:`single_source_closed_form` as a full table."""
    dim = 1 << size
    xw = np.array([x.bit_count() for x in range(dim)])
    aw = np.array([a.bit_count() for a in range(dim)])
    cos = _quarter_cos(xw[:, None] + np.arange(2)[None, :])  # (x, y)
    sign = np.where((aw[:, None] + np.arange(2)[None, :]) & 1, -1.0, 1.0)  # (a, b)
    values = (1.0 + cos[:, :, None, None] * sign[None, None, :, :]) / (2 * dim)
    return CorrelationTable(NetworkConfig(1, (size,)), values)


def network_closed_form(
    config: NetworkConfig, x: int, y: int, a: int, b: int
) -> float:
    """Closed-form joint probability for a homogeneous noiseless network
    with every observer on the coordinate axes of the equatorial plane."""
    if not config.is_homogeneous():
        raise ValueError("closed form requires a homogeneous network")
    sign = -1.0 if (b + int(a).bit_count()) & 1 else 1.0
    prod = 1.0
    for j in range(config.n):
        prod *= float(_quarter_cos(config.source_bits(x, j).bit_count() + y))
    return (1.0 + sign * prod) / (1 << (config.total + 1))


def network_closed_form_table(config: NetworkConfig) -> CorrelationTable:
    dim = 1 << config.total
    prod = np.ones((dim, 2))
    xs = np.arange(dim)
    for j in range(config.n):
        xw = np.array([config.source_bits(int(x), j).bit_count() for x in xs])
        prod *= _quarter_cos(xw[:, None] + np.arange(2)[None, :])
    aw = np.array([a.bit_count() for a in range(dim)])
    sign = np.where((aw[:, None] + np.arange(2)[None, :]) & 1, -1.0, 1.0)
    values = (1.0 + prod[:, :, None, None] * sign[None, None, :, :]) / (2 * dim)
    return CorrelationTable(config, values)


def compose_network(tables) -> CorrelationTable:
    """Join independent single-source tables into one network table.

    The center observer announces the XOR of his per-source parity bits, so
    composition is an XOR convolution over those bits.  Sources are packed
    in list order: the first table owns the least significant setting and
    outcome bits.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table")
    for t in tables:
        if t.config.n != 1:
            raise ValueError("compose_network expects single-source tables")
    n_y = tables[0].n_bob_settings
    if any(t.n_bob_settings != n_y for t in tables):
        raise ValueError("all per-source tables must share the setting count")
    branches = tuple(t.config.branches[0] for t in tables)
    acc = tables[0].values
    for t in tables[1:]:
        tv = t.values
        dim_new, dim_acc = tv.shape[0], acc.shape[0]
        # out[x, X, y, a, A, b]: the new source's bits above the earlier ones.
        out = np.empty((dim_new, dim_acc, n_y, dim_new, dim_acc, 2))
        tmp = np.empty(out.shape[:-1])
        earlier = acc[None, :, :, None, :, :]
        new = tv[:, None, :, :, None, :]
        for b in (0, 1):
            np.multiply(earlier[..., 0], new[..., b], out=out[..., b])
            np.multiply(earlier[..., 1], new[..., b ^ 1], out=tmp)
            out[..., b] += tmp
        acc = out.reshape(dim_new * dim_acc, n_y, dim_new * dim_acc, 2)
    return CorrelationTable(NetworkConfig(len(tables), branches), acc)


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """Branch-observer angles plus the center observer's measurement style.

    ``branch_angles[t, s]`` is the equatorial angle observer ``t`` uses for
    setting ``s``.  ``bob`` is ``"separable"`` (per-qubit axis measurements,
    parity announced) or ``"swap"`` (joint GHZ-like basis measurement).
    """

    config: NetworkConfig
    branch_angles: np.ndarray
    kind: str
    bob: str = field(default="separable")

    def __post_init__(self):
        angles = np.asarray(self.branch_angles, dtype=np.float64)
        object.__setattr__(self, "branch_angles", angles)
        if angles.shape != (self.config.total, 2):
            raise ValueError("branch_angles must have shape (total observers, 2)")
        if self.bob not in ("separable", "swap"):
            raise ValueError("bob must be 'separable' or 'swap'")


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


def network_table(scheme: MeasurementScheme, visibilities=None) -> CorrelationTable:
    """Simulate the full network under a separable center measurement.

    Builds each source's noisy table and composes them.  ``visibilities``
    holds one GHZ weight per source (default all 1).  The center observer's
    angle on the qubit from source ``j`` is X or Y according to the setting
    bit of that source's block.
    """
    if scheme.bob != "separable":
        raise ValueError("network_table needs a separable-center scheme")
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


def ghz_like_basis(n: int) -> np.ndarray:
    """Orthonormal entangled basis for the center observer's ``n`` qubits.

    Column ``v`` is the basis state obtained from the n-qubit GHZ state by
    applying Z to qubit 0 when bit 0 of ``v`` is set and X to qubit ``q``
    when bit ``q`` is set, for q >= 1.  Rows are indexed little-endian.
    """
    if not 1 <= n <= MAX_STATE_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_STATE_QUBITS}")
    g = ghz_state(n).reshape((2,) * n)
    cols = []
    for v in range(1 << n):
        vec = g
        for q in range(n):
            if (v >> q) & 1:
                op = PAULI_Z if q == 0 else PAULI_X
                vec = _apply_rows(op, vec, q)
        cols.append(_little_endian_flatten(vec))
    return np.stack(cols, axis=1)


def swap_joint_table(config: NetworkConfig, branch_angles) -> SwapJointTable:
    """Simulate the network with the center observer measuring jointly.

    All sources' qubits form one pure state; for every branch setting word
    the branch qubits are rotated into their measurement bases and the
    center observer's qubits are projected onto each GHZ-like basis state.
    """
    m = config.total + config.n
    if m > MAX_STATE_QUBITS:
        raise ValueError(f"total qubit count {m} exceeds {MAX_STATE_QUBITS}")
    angles = np.asarray(branch_angles, dtype=np.float64)
    if angles.shape != (config.total, 2):
        raise ValueError("branch_angles must have shape (total observers, 2)")

    psi = np.ones((), dtype=np.complex128)
    for size in config.branches:
        psi = np.tensordot(psi, ghz_state(size + 1).reshape((2,) * (size + 1)), axes=0)

    # Per-qubit axes: source j occupies axes [qoff, qoff + size], center last.
    branch_axes, bob_axes = [], []
    qoff = 0
    for size in config.branches:
        branch_axes.extend(range(qoff, qoff + size))
        bob_axes.append(qoff + size)
        qoff += size + 1

    basis = ghz_like_basis(config.n)
    dim = 1 << config.total
    values = np.empty((dim, dim, 1 << config.n))
    for x in range(dim):
        psi_x = psi
        for t, axis in enumerate(branch_axes):
            psi_x = _rotate_state(psi_x, axis, angles[t, (x >> t) & 1])
        # Branch outcome axes first (little-endian), center qubits last.
        moved = np.moveaxis(psi_x, bob_axes, range(config.total, m))
        order = tuple(range(config.total - 1, -1, -1)) + tuple(
            range(m - 1, config.total - 1, -1)
        )
        amp = moved.transpose(order).reshape(dim, 1 << config.n)
        values[x] = np.abs(amp @ basis.conj()) ** 2
    return SwapJointTable(config, values)


def table_to_csv(table: CorrelationTable, stream) -> None:
    """Write a table as CSV with one row per nonzero probability entry.

    Columns: per-observer setting bits, center setting, per-observer
    outcome bits, center parity bit, probability.  Rows are ordered
    lexicographically in that column order.
    """
    config = table.config
    names = [
        f"x_{j + 1}_{k + 1}"
        for j in range(config.n)
        for k in range(config.branches[j])
    ]
    names += ["y"]
    names += [
        f"a_{j + 1}_{k + 1}"
        for j in range(config.n)
        for k in range(config.branches[j])
    ]
    names += ["b", "p"]
    stream.write(",".join(names) + "\n")
    total = config.total
    # Lexicographic order: the first column is the slowest-varying one.
    for x_bits in _bit_words(total):
        for y in range(table.n_bob_settings):
            for a_bits in _bit_words(total):
                for b in (0, 1):
                    p = table.values[_pack(x_bits), y, _pack(a_bits), b]
                    if p == 0.0:
                        continue
                    row = list(x_bits) + [y] + list(a_bits) + [b]
                    stream.write(
                        ",".join(str(v) for v in row) + f",{p:.12g}\n"
                    )


def _bit_words(width: int):
    from itertools import product

    return product((0, 1), repeat=width)


def _pack(bits) -> int:
    word = 0
    for t, bit in enumerate(bits):
        word |= bit << t
    return word
