"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit Kronecker
products, operator traces, direct enumeration) and deliberately shares no
code with ``bellnet`` beyond the network layout dataclass.  Keep it that
way: these routines are the second opinion the tests compare against.
"""

from __future__ import annotations

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
