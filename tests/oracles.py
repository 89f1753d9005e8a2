"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit Kronecker
products, operator traces, direct enumeration) and deliberately shares no
code with ``bellnet`` beyond the network layout dataclass.  Keep it that
way: these routines are the second opinion the tests compare against.
Four exceptions are second opinions on a search, a summation or a
layout rather than on a simulation: :func:`simulated_bisection` probes the
package's own noisy tables at every bisection step, :func:`loop_model_table`
and :func:`dense_sampled_spectra` read sampled models with the package's
own stream reader and outcome-word helper, and :func:`loop_emit_rows`
rounds with the package's own ``_fmt`` and ``_plain``.
:func:`network_closed_form_table` and :func:`loop_model_table` hand their
values to the package's ``CorrelationTable``, which only checks and holds
them.

The last part holds the combinatorial quantities behind the analysis,
which no command reports: :func:`contribution_count`, checked against its
closed form, and :func:`correlator_expansion_coefficient`.  The tests
compare them with :func:`subset_count` and :func:`expansion_coefficients`.
:func:`single_experiment_value` reads a one-source experiment's entries
with the package's own ``_correlator_spectra``.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

_ID2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def projector(theta, outcome):
    """Rank-one projector onto the ``outcome`` eigenvector of
    cos(theta) X + sin(theta) Y."""
    obs = np.cos(theta) * _X + np.sin(theta) * _Y
    return 0.5 * (_ID2 + (1.0 - 2.0 * outcome) * obs)


def uniform_table(config, n_bob_settings=2):
    """Values of the fully random (x, y, a, b) table: every outcome
    equally likely."""
    dim = 1 << config.total
    return np.full((dim, n_bob_settings, dim, 2), 1.0 / (2 * dim))


def ghz_density(n_qubits, visibility=1.0):
    dim = 1 << n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[dim - 1] = 1.0 / np.sqrt(2.0)
    pure = np.outer(psi, psi.conj())
    return visibility * pure + (1.0 - visibility) * np.eye(dim) / dim


def _kron_chain(ops):
    """Kronecker product with ops[0] acting on the lowest-order bit."""
    full = ops[0]
    for op in ops[1:]:
        full = np.kron(op, full)
    return full


def brute_force_network_table(config, branch_angles, bob_block_angle,
                              n_bob_settings, visibilities=None):
    """Joint outcome table computed from one global density matrix.

    ``branch_angles`` has shape (total, 2): measurement angle per branch
    observer and setting.  The central observer measures qubit j at angle
    ``bob_block_angle * bit`` where ``bit`` is the block bit of source j
    extracted from the setting label y; his reported outcome is the parity
    of his per-qubit outcomes.
    """
    if visibilities is None:
        visibilities = [1.0] * config.n
    rho = None
    for j, size in enumerate(config.branches):
        block = ghz_density(size + 1, visibilities[j])
        rho = block if rho is None else np.kron(block, rho)

    total = config.total
    n_qubits = total + config.n
    branch_qubit = []
    bob_qubit = []
    pos = 0
    for size in config.branches:
        branch_qubit.extend(range(pos, pos + size))
        bob_qubit.append(pos + size)
        pos += size + 1

    values = np.zeros((1 << total, n_bob_settings, 1 << total, 2))
    for x_word in range(1 << total):
        for y in range(n_bob_settings):
            for a_word in range(1 << total):
                for bob_word in range(1 << config.n):
                    ops = [_ID2] * n_qubits
                    for t in range(total):
                        ops[branch_qubit[t]] = projector(
                            branch_angles[t, (x_word >> t) & 1],
                            (a_word >> t) & 1)
                    for j in range(config.n):
                        bit = (y >> config.block_index(j)) & 1
                        ops[bob_qubit[j]] = projector(
                            bob_block_angle * bit, (bob_word >> j) & 1)
                    # tr(rho P) without forming the product
                    prob = (rho * _kron_chain(ops).T).sum().real
                    values[x_word, y, a_word, bob_word.bit_count() & 1] += prob
    return values


def bell_basis_two_qubits():
    """The four two-qubit basis states written out by hand, indexed by
    (z-label, x-label) packed little endian."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([
        [s, 0.0, 0.0, s],     # v=0: |00> + |11>
        [s, 0.0, 0.0, -s],    # v=1: |00> - |11>
        [0.0, s, s, 0.0],     # v=2: |01> + |10>
        [0.0, -s, s, 0.0],    # v=3: Z then X on |00> + |11>

    ], dtype=complex).T


def subset_count(size, residue):
    """Number of subsets whose cardinality is ``residue`` mod 4, counted
    one subset at a time."""
    return sum(1 for mask in range(1 << size)
               if mask.bit_count() % 4 == residue)


def expansion_coefficients(size, cardinality):
    """Coefficients of (1+t)^(size-cardinality) (1-t)^cardinality, low
    order first, via polynomial multiplication."""
    plus = npoly.polypow([1.0, 1.0], size - cardinality)
    minus = npoly.polypow([1.0, -1.0], cardinality)
    return npoly.polymul(plus, minus)


def direct_sweep_value(theta0, theta1, size):
    """Two-angle sweep objective evaluated straight from the subset sum,
    one branch-setting word at a time (single source)."""
    total = 0.0
    for mask in range(1 << size):
        card = mask.bit_count()
        flip = 1 if size % 4 == 0 else 0
        y = ((card + flip) & 1) ^ 1
        acc = 0.0
        for word in range(1 << size):
            sign = -1.0 if (word & mask).bit_count() & 1 else 1.0
            angle = sum(theta1 if (word >> k) & 1 else theta0
                        for k in range(size))
            acc += sign * np.cos(angle + 0.5 * np.pi * y)
        total += abs(acc) / (1 << size)
    return total


def harmonic_sweep_value(theta0, theta1, size):
    """Two-angle sweep objective through the cosine-harmonic expansion of
    each subset correlator (single source): a subset of ``c`` branches has
    correlator 2^-L sum_k beta_k cos(k theta1 + (L - k) theta0 + pi y / 2),
    beta from :func:`expansion_coefficients`."""
    flip = 1 if size % 4 == 0 else 0
    total = 0.0
    for card in range(size + 1):
        y = ((card + flip) & 1) ^ 1
        acc = sum(
            beta * np.cos(k * theta1 + (size - k) * theta0 + 0.5 * np.pi * y)
            for k, beta in enumerate(expansion_coefficients(size, card))
        )
        total += math.comb(size, card) * abs(acc) / 2.0**size
    return total


def _truncated_sign(mask, word, branches):
    """(-1)**m, where m counts the set setting bits at the subset's
    positions inside each source block; a position beyond a source's
    branch count is skipped for that source."""
    count, offset = 0, 0
    for size in branches:
        for k in range(size):
            if (mask >> k) & 1 and (word >> (offset + k)) & 1:
                count += 1
        offset += size
    return -1.0 if count & 1 else 1.0


def _parity(word):
    return -1.0 if bin(word).count("1") & 1 else 1.0


def pairwise_composition(tables):
    """XOR convolution of per-source (x, y, a, b) tables, written out
    pairwise with one einsum per parity term; later tables take the
    higher setting and outcome bits."""
    acc = tables[0]
    for tv in tables[1:]:
        new_dim = acc.shape[0] * tv.shape[0]
        parts = []
        for b in (0, 1):
            term = np.einsum("XyA,xya->xXyaA", acc[..., 0], tv[..., b])
            term += np.einsum("XyA,xya->xXyaA", acc[..., 1], tv[..., b ^ 1])
            parts.append(term.reshape(new_dim, acc.shape[1], new_dim))
        acc = np.stack(parts, axis=-1)
    return acc


def single_matmul_composition(tables):
    """Network table of per-source (x, y, a, b) tables as one batched
    matmul: the largest source's table (the last of equals) times one
    factor holding the others' Walsh pairs ``(p0 + p1, p0 - p1)``, both
    transforms and the inverse's 1/2.  ``compose_network`` writes the
    same products in one matmul of its own, so it must match this bit
    for bit."""
    branches = [len(t).bit_length() - 1 for t in tables]
    n_y = tables[0].shape[1]
    walsh = np.array([[1.0, 1.0], [1.0, -1.0]])
    j = max(range(len(tables)), key=lambda k: (branches[k], k))
    rest = np.full((1, n_y, 2, 1), 0.5)
    for t in tables[:j] + tables[j + 1:]:
        pair = (t @ walsh).transpose(0, 1, 3, 2)
        d = len(pair) * len(rest)
        rest = (pair[:, None, :, :, :, None] * rest[None, :, :, :, None, :]).reshape(d, n_y, 2, d)
    dim, d_j, d_lo = 1 << sum(branches), len(tables[j]), 1 << sum(branches[:j])
    d_hi = len(rest) // d_lo
    rest = rest.reshape(d_hi, d_lo, n_y, 2, d_hi, d_lo).transpose(0, 1, 2, 4, 3, 5)
    factor = walsh @ (rest[..., None] * walsh[:, None, :]).reshape(d_hi, 1, d_lo, n_y, d_hi, 2, -1)
    out = np.empty((d_hi, d_j, d_lo, n_y, d_hi, d_j, 2 * d_lo))
    np.matmul(tables[j][None, :, None, :, None], factor, out=out)
    return out.reshape(dim, n_y, dim, 2)


def _quarter_cos(m):
    """cos(pi/2 * m) for integer m, evaluated exactly."""
    return np.asarray([1.0, 0.0, -1.0, 0.0])[np.asarray(m) % 4]


def source_bits(config, word, source):
    """One source's bits of a packed setting or outcome word."""
    return (word >> config.offsets[source]) & ((1 << config.branches[source]) - 1)


def network_closed_form_table(config):
    """Closed-form table of a noiseless homogeneous network with every
    observer on the coordinate axes of the equatorial plane."""
    from bellnet.quantum import CorrelationTable

    dim = 1 << config.total
    prod = np.ones((dim, 2))
    for j in range(config.n):
        xw = np.array([bin(source_bits(config, x, j)).count("1") for x in range(dim)])
        prod *= _quarter_cos(xw[:, None] + np.arange(2)[None, :])
    sign = np.outer([_parity(a) for a in range(dim)], [1.0, -1.0])
    values = (1.0 + prod[:, :, None, None] * sign[None, None, :, :]) / (2 * dim)
    return CorrelationTable(config, values)


def einsum_correlators(values):
    """Full correlators of an (x, y, a, b) table: one einsum over the
    outcome signs (-1)**(weight(a) + b)."""
    signs = np.array([_parity(a) for a in range(values.shape[2])])
    return np.einsum("xyab,a,b->xy", values, signs, np.array([1.0, -1.0]))


def direct_spectrum(values, branches, setting_map):
    """Subset spectrum of an (x, y, a, b) table, one subset mask and one
    setting word at a time."""
    dim = values.shape[0]
    outcome_sign = np.array([[_parity(a) * (1.0 - 2.0 * b) for b in (0, 1)]
                             for a in range(dim)])
    entries = np.zeros(1 << max(branches))
    for mask in range(entries.size):
        acc = 0.0
        for word in range(dim):
            corr = (values[word, setting_map[mask]] * outcome_sign).sum()
            acc += _truncated_sign(mask, word, branches) * corr
        entries[mask] = acc / dim
    return entries


def direct_swap_spectrum(values, branches, masks):
    """Subset spectrum of an (x, a, v) joint-measurement table, one subset
    mask and one setting word at a time; subset X reads the parity of the
    center outcome bits in ``masks[X]``."""
    dim, n_center = values.shape[0], values.shape[2]
    entries = np.zeros(1 << max(branches))
    for mask in range(entries.size):
        sign = np.array([[_parity(a) * _parity(v & int(masks[mask]))
                          for v in range(n_center)] for a in range(dim)])
        acc = 0.0
        for word in range(dim):
            acc += _truncated_sign(mask, word, branches) * (values[word] * sign).sum()
        entries[mask] = acc / dim
    return entries


_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def brute_force_swap_table(config, branch_angles):
    """Joint table (x, a, v) of the entangled center measurement computed
    from one global state vector.

    The network state is the Kronecker product of every source's GHZ
    vector (source 0 on the lowest-order qubits, each source's center
    qubit after its branch qubits).  A permutation matrix moves the branch
    qubits to the low bits and the center qubits, in source order, to the
    high bits.  Outcome v of the center projects onto the GHZ state with Z
    applied to center qubit 0 when bit 0 of v is set and X to center qubit
    q when bit q is set; each branch observer projects with
    :func:`projector`.
    """
    total, n = config.total, config.n
    n_qubits = total + n
    psi = np.ones(1, dtype=complex)
    for size in config.branches:
        ghz = np.zeros(1 << (size + 1), dtype=complex)
        ghz[0] = ghz[-1] = 1.0 / np.sqrt(2.0)
        psi = np.kron(ghz, psi)

    new_position = []  # global qubit -> qubit after the permutation
    offset = 0
    for j, size in enumerate(config.branches):
        new_position.extend(range(offset, offset + size))
        new_position.append(total + j)
        offset += size
    perm = np.zeros((1 << n_qubits, 1 << n_qubits))
    for index in range(1 << n_qubits):
        moved = sum(1 << new_position[q] for q in range(n_qubits)
                    if (index >> q) & 1)
        perm[moved, index] = 1.0
    phi = perm @ psi

    ghz_center = np.zeros(1 << n, dtype=complex)
    ghz_center[0] = ghz_center[-1] = 1.0 / np.sqrt(2.0)
    center_projectors = []
    for v in range(1 << n):
        ops = [_ID2] * n
        if v & 1:
            ops[0] = _Z
        for q in range(1, n):
            if (v >> q) & 1:
                ops[q] = _X
        state = _kron_chain(ops) @ ghz_center
        center_projectors.append(np.outer(state, state.conj()))

    values = np.zeros((1 << total, 1 << total, 1 << n))
    for x_word in range(1 << total):
        for a_word in range(1 << total):
            branch = _kron_chain([
                projector(branch_angles[t, (x_word >> t) & 1], (a_word >> t) & 1)
                for t in range(total)
            ])
            for v in range(1 << n):
                op = np.kron(center_projectors[v], branch)
                values[x_word, a_word, v] = (phi.conj() @ op @ phi).real
    return values


def direct_xy_setting_map(size):
    """Center setting of each subset under the two-setting convention, one
    mask at a time: the cardinality parity, complemented unless 4 divides
    ``size``."""
    flip = 1 if size % 4 == 0 else 0
    return np.array([((mask.bit_count() + flip) & 1) ^ 1
                     for mask in range(1 << size)])


def direct_rotated_setting_map(branches):
    """Center settings for rotated branch measurements, one mask and one
    block at a time: bit i is the parity of the subset's positions inside
    the i-th smallest distinct branch count."""
    out = []
    for mask in range(1 << max(branches)):
        y = 0
        for i, r in enumerate(sorted(set(branches))):
            y |= ((mask & ((1 << r) - 1)).bit_count() & 1) << i
        out.append(y)
    return np.array(out)


def simulated_bisection(config, scheme, tol):
    """Critical visibility by bisection with a fresh noisy simulation at
    every probe, the total visibility V split as V**(1/n) per source.
    None when the noiseless value does not exceed the classical bound."""
    from bellnet.inequality import bell_value, classical_bound, truncated_spectrum
    from bellnet.quantum import network_table, scheme_setting_map

    smap = scheme_setting_map(scheme)
    bound = classical_bound(config)

    def value_at(total):
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


def loop_model_table(model):
    """Correlation table of a sampled model, one hidden word at a time in
    combo order, with one fancy-indexed ``+=`` per center setting."""
    from bellnet.classical import _outcome_words
    from bellnet.quantum import CorrelationTable

    config = model.config
    dim = 1 << config.total
    n_y = model.n_center_settings
    values = np.zeros((dim, n_y, dim, 2))
    words = np.arange(dim)
    # Per source: outcome word for each (setting word, hidden value).
    local = [_outcome_words(answers) for answers in model.responses]
    for combo in range(model.lattice ** config.n):
        digits = [(combo // model.lattice ** j) % model.lattice for j in range(config.n)]
        weight = 1.0
        outcome = np.zeros(dim, dtype=np.int64)
        for j in range(config.n):
            weight *= model.weights[j, digits[j]]
            sub = (words >> config.offsets[j]) & ((1 << config.branches[j]) - 1)
            outcome |= local[j][sub, digits[j]] << config.offsets[j]
        for y in range(n_y):
            values[words, y, outcome, model.center_bits[combo, y]] += weight
    return CorrelationTable(config, values)


def dense_sampled_spectra(seeds, config, lattice=2):
    """Spectrum entries of seeded sampled models by the dense per-mask route.

    Each model is read from the stream with the package's own ``_draw``,
    every seed at once.  Per source, the response sign of each setting word
    goes through an explicit Walsh matrix; its factor at every subset mask,
    truncated to the source's branch count, times the weights, is then
    contracted with the center signs of every (hidden word, mask), the
    source's digit summed out one source at a time."""
    from bellnet.classical import _draw, _outcome_words

    smap = direct_xy_setting_map(config.max_branch)
    masks = np.arange(smap.size)
    weights, responses, center = _draw(seeds, config, lattice)
    entries = np.array([1.0, -1.0])[center[:, :, smap]]  # (model, hidden word, mask)
    for j, size in enumerate(config.branches):
        dim = 1 << size
        parity = np.array([_parity(word) for word in range(dim)])
        walsh = np.array([[_parity(x & y) for y in range(dim)] for x in range(dim)])
        signs = parity[_outcome_words(responses[j].transpose(1, 2, 0, 3))]
        f = np.tensordot(walsh, signs, axes=1) / dim  # (local mask, model, hidden value)
        factor = f[masks & (dim - 1)].transpose(1, 2, 0) * weights[:, j, :, None]
        entries = entries.reshape(len(factor), -1, lattice, masks.size)
        entries = np.einsum("brdm,bdm->brm", entries, factor)
    return entries[:, 0]


def loop_emit_rows(fmt, run, columns, rows, comments=()):
    """The text of a sweep or region artifact, one value at a time: each
    row a tuple of floats, rounded by the package's ``_fmt`` and, for JSON,
    written by ``json.dumps(indent=2)`` after the package's ``_plain``."""
    import json

    from bellnet.cli import _fmt, _plain

    if (fmt or "csv") == "json":
        payload = {"run": run, "columns": list(columns), "rows": rows}
        return json.dumps(_plain(payload), indent=2) + "\n"
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def grid_region_slice(config, fixed_value, grid, fixed_mask=3, tol=None):
    """A classical-region slice with all four entries evaluated on the full
    ``meshgrid`` of the saturating family, then cut by boolean indexing."""
    if tol is None:
        tol = config.n / (grid - 1)
    ps = np.linspace(0.0, 1.0, grid)
    p1, p2 = np.meshgrid(ps, ps, indexing="ij")
    n = config.n
    entries = [
        (p1 * p2) ** n,
        ((1 - p1) * p2) ** n,
        (p1 * (1 - p2)) ** n,
        ((1 - p1) * (1 - p2)) ** n,
    ]
    keep = np.abs(entries[fixed_mask] - fixed_value) < tol
    free = [m for m in range(4) if m != fixed_mask]
    names = {0: "K_empty", 1: "K_1", 2: "K_2", 3: "K_12"}
    rows = np.stack([entries[m][keep] for m in free], axis=1)
    return [names[m] for m in free], rows


def geometric_mean_inequality_sides(c) -> tuple[float, float]:
    """Both sides of the mixed-power bound used by the classical proof.

    For a nonnegative matrix c with one row per source: the sum over
    columns of the geometric means never exceeds the geometric mean of the
    row sums.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("need a 2-d array (sources by terms)")
    if c.min() < 0:
        raise ValueError("entries must be nonnegative")
    n = c.shape[0]
    lhs = float((np.prod(c, axis=0) ** (1.0 / n)).sum())
    rhs = float(np.prod(c.sum(axis=1) ** (1.0 / n)))
    return lhs, rhs


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


def single_experiment_value(correlators, setting_map) -> float:
    """Bell value of a one-source experiment given its raw correlators.

    ``correlators[x, y]`` is the full-correlator of the branch outcomes
    and the center outcome at branch settings x and center setting y.
    With one branch this is the CHSH expression; with two, Mermin's.
    The entries, and their checks, are those of :func:`truncated_spectra`.
    """
    from bellnet.inequality import _correlator_spectra
    from bellnet.network import NetworkConfig

    corr = np.asarray(correlators, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] & (corr.shape[0] - 1):
        raise ValueError("correlators must have shape (2**L, settings)")
    config = NetworkConfig(1, (corr.shape[0].bit_length() - 1,))
    return float(np.abs(_correlator_spectra(config, corr[None], setting_map)).sum())
