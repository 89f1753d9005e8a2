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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Subset enumeration is dense over 2**L masks; cap L so callers cannot ask
# for an array that will not fit in memory.
MAX_SUBSET_BITS = 20


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

    def source_bits(self, word: int, source: int) -> int:
        """Extract one source's bits from a packed setting or outcome word."""
        return (word >> self.offsets[source]) & ((1 << self.branches[source]) - 1)

    def to_json(self) -> dict:
        return {"n": self.n, "branches": list(self.branches)}


def subsets_of(size: int) -> range:
    """All subsets of ``{1..size}`` as bitmasks, in ascending-mask order."""
    if not 1 <= size <= MAX_SUBSET_BITS:
        raise ValueError(f"subset universe size must be in 1..{MAX_SUBSET_BITS}")
    return range(1 << size)


def subset_cardinality(mask: int) -> int:
    return int(mask).bit_count()


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


def bob_setting_bit(mask: int, size: int) -> int:
    """Center-observer setting bit assigned to a subset by the two-setting
    measurement convention.

    The bit alternates with subset cardinality; the parity flips when the
    branch count is a multiple of four, which keeps all subset correlators
    at equal magnitude for sources measured along the two coordinate axes
    of the equatorial plane.
    """
    flip = 1 if size % 4 == 0 else 0
    return ((subset_cardinality(mask) + flip) & 1) ^ 1


def xy_setting_map(size: int) -> np.ndarray:
    """Per-subset center-observer setting for the two-setting convention."""
    return np.fromiter(
        (bob_setting_bit(mask, size) for mask in subsets_of(size)),
        dtype=np.int64,
        count=1 << size,
    )


def rotated_setting_map(config: NetworkConfig) -> np.ndarray:
    """Per-subset center settings for diagonally rotated branch measurements.

    Each distinct branch count owns one setting bit; a subset's bit for a
    block is the parity of its positions that fit inside that branch count.
    On a homogeneous network this reduces to "cardinality mod 2".
    """
    size = config.max_branch
    out = np.empty(1 << size, dtype=np.int64)
    blocks = config.block_sizes
    for mask in subsets_of(size):
        y = 0
        for i, r in enumerate(blocks):
            y |= ((mask & ((1 << r) - 1)).bit_count() & 1) << i
        out[mask] = y
    return out

