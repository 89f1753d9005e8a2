"""Star networks of multipartite sources joined at a shared center observer.

A configuration couples ``n`` independent sources to one center observer
(Bob); source ``j`` additionally feeds ``branches[j]`` branch observers,
so source ``j`` emits ``branches[j] + 1`` particles in total.

Everything downstream of this module relies on two packing conventions:

* Branch observers are ordered source-major (source 0's observers first),
  and observer ``t`` owns bit ``t`` of a packed setting or outcome word.
  Packing is little-endian: source 0's first observer sits in the least
  significant bit.
* A subset of branch positions ``{1, ..., L}`` is a plain bitmask whose bit
  ``k - 1`` marks position ``k``.  ``subsets_of`` enumerates masks in
  ascending order, which fixes entry order in every emitted file.

Every parity rule over such words reads one Walsh–Hadamard core,
:func:`fwht` and its all-ones character :func:`parity_signs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Every size guard states its step's largest array as 2**bits entries and
# holds it to this budget (128 MiB of float64) through over_budget.
BUDGET_BITS = 24


def over_budget(what: str, bits, budget: int = BUDGET_BITS) -> str | None:
    """None when ``what``, holding ``2**bits`` entries, fits ``2**budget``;
    else the refusal, with ``bits`` rounded up to a tenth so that it never
    prints as the budget itself."""
    if bits <= budget:
        return None
    tenths = math.ceil(bits * 10)
    shown = f"{tenths // 10}" if tenths % 10 == 0 else f"{tenths // 10}.{tenths % 10}"
    return f"{what} would hold 2^{shown} entries, over 2^{budget}"


@dataclass(frozen=True)
class NetworkConfig:
    """Source count plus the branch-observer count of every source."""

    n: int
    branches: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "branches", tuple(int(b) for b in self.branches))
        if self.n < 1:
            raise ValueError("a network needs at least one source")
        if len(self.branches) != self.n:
            raise ValueError(
                f"expected {self.n} branch sizes, got {len(self.branches)}"
            )
        if any(b < 1 for b in self.branches):
            raise ValueError("every source needs at least one branch observer")

    @classmethod
    def homogeneous(cls, n: int, size: int) -> "NetworkConfig":
        """All ``n`` sources with the same branch count ``size``."""
        return cls(n, (size,) * int(n))

    @property
    def max_branch(self) -> int:
        """Largest branch count; subsets of ``{1..max_branch}`` index spectra."""
        return max(self.branches)

    @property
    def total(self) -> int:
        """Number of branch observers, also the bit width of packed words."""
        return sum(self.branches)

    def is_homogeneous(self) -> bool:
        return len(set(self.branches)) == 1

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Bit offset of each source's observer block in a packed word."""
        offs, acc = [], 0
        for b in self.branches:
            offs.append(acc)
            acc += b
        return tuple(offs)

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        """Distinct branch counts in ascending order.

        The center observer's separable measurements group his particles by
        the branch count of the emitting source; one setting bit is spent
        per distinct count.
        """
        return tuple(sorted(set(self.branches)))

    def block_index(self, source: int) -> int:
        """Index of the setting-bit block that ``source`` belongs to."""
        return self.block_sizes.index(self.branches[source])

    def to_json(self) -> dict:
        return {"n": self.n, "branches": list(self.branches)}


def subsets_of(size: int) -> range:
    """All subsets of ``{1..size}`` as bitmasks, in ascending-mask order."""
    if size < 1:
        raise ValueError("a subset universe needs at least one position")
    if refusal := over_budget("the subset universe", size):
        raise ValueError(refusal)
    return range(1 << size)


def subset_setting_mask(mask, config: NetworkConfig):
    """Packed-word mask selecting, in every source block, the branch
    positions named by ``mask`` (an int, or an integer array elementwise).

    Positions beyond a source's branch count are dropped for that source,
    which is the truncation rule used by heterogeneous networks.
    """
    word = 0
    for off, size in zip(config.offsets, config.branches):
        word |= (mask & ((1 << size) - 1)) << off
    return word


def parity_signs(width: int) -> np.ndarray:
    """Vector of (-1)**bit_count(i) for all words i of the given width: the
    Walsh character of the all-ones word, i.e. the Walsh–Hadamard
    transform of the one-hot vector there, built by doubling."""
    signs = np.ones(1)
    for _ in range(width):
        signs = np.concatenate((signs, -signs))
    return signs


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


def xy_setting_map(size: int) -> np.ndarray:
    """Per-subset center setting for the two-setting convention: the
    subset's cardinality parity, complemented unless 4 divides ``size``,
    which keeps all subset correlators at equal magnitude for sources
    measured along the two coordinate axes of the equatorial plane."""
    subsets_of(size)  # bounds the size before 2**size signs are built
    return ((parity_signs(size) < 0) ^ (size % 4 != 0)).astype(np.int64)


def rotated_setting_map(config: NetworkConfig) -> np.ndarray:
    """Per-subset center settings for diagonally rotated branch measurements.

    Each distinct branch count owns one setting bit; a subset's bit for a
    block is the parity of its positions that fit inside that branch count.
    On a homogeneous network this reduces to "cardinality mod 2".
    """
    masks = np.array(subsets_of(config.max_branch))
    odd = (parity_signs(config.max_branch) < 0).astype(np.int64)
    out = np.zeros_like(odd)
    for i, r in enumerate(config.block_sizes):
        out |= odd[masks & ((1 << r) - 1)] << i
    return out
