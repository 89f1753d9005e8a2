"""Spectra for the entangled center measurement.

The center observer projects his qubits onto the GHZ-like basis and
announces an n-bit outcome.  Each subset's correlator is built from one
derived bit of that outcome: a parity over a caller-chosen set of outcome
bit positions, supplied as a mask per subset.  :func:`swap_spectrum` is
exact from per-source phase products; :func:`joint_table_spectrum`
reduces the dense joint table as its independent check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .network import NetworkConfig, fwht, parity_signs, subset_setting_mask, subsets_of
from .quantum import swap_joint_table
from .inequality import SubsetSpectrum, source_factors


# Conditioning masks are int64 words holding one outcome bit per source.
MAX_SWAP_SOURCES = 63


def check_source_count(n: int) -> None:
    if n > MAX_SWAP_SOURCES:
        raise ValueError(f"swap supports at most {MAX_SWAP_SOURCES} sources, got {n}")


@dataclass(frozen=True, eq=False)
class SwapConditioning:
    """Per-subset parity masks over the center observer's outcome bits."""

    n: int
    masks: np.ndarray  # (2**max_branch,), each in [0, 2**n)

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=np.int64)
        object.__setattr__(self, "masks", masks)
        if masks.ndim != 1 or masks.size & (masks.size - 1):
            raise ValueError("need one mask per subset, a power-of-two count")
        if masks.min() < 0 or masks.max() >= (1 << self.n):
            raise ValueError("conditioning mask addresses a missing outcome bit")


def default_conditioning(config: NetworkConfig, setting_map) -> SwapConditioning:
    """The conditioning that reproduces the separable-center statistics.

    Subsets whose separable center setting is 0 (all his qubits on the
    first axis) read outcome bit 0, which carries the same stabilizer;
    setting-1 subsets read the parity of all n bits.  The second half
    holds only for an even source count, and the map must be two-valued.
    """
    check_source_count(config.n)
    setting_map = np.asarray(setting_map)
    if setting_map.max() > 1:
        raise ValueError("default conditioning needs a two-setting map")
    if config.n % 2:
        raise ValueError("no default conditioning for an odd source count")
    all_bits = (1 << config.n) - 1
    masks = np.where(setting_map == 0, 1, all_bits)
    return SwapConditioning(config.n, masks)


def conditioning_from_json(text: str, config: NetworkConfig) -> SwapConditioning:
    """Parse {"<subset mask>": {"bit": i} | {"parity": [i, ...]}, ...}."""
    check_source_count(config.n)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"conditioning is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("conditioning must be a JSON object keyed by subset mask")
    count = 1 << config.max_branch
    masks = np.zeros(count, dtype=np.int64)
    seen = set()
    for key, rule in data.items():
        try:
            subset = int(key)
        except ValueError:
            raise ValueError(f"subset key {key!r} is not an integer") from None
        if not 0 <= subset < count:
            raise ValueError(f"subset key {key!r} outside 0..{count - 1}")
        if not isinstance(rule, dict) or len(rule) != 1:
            raise ValueError(f"rule for subset {key!r} must be a single-entry object")
        (kind, value), = rule.items()
        if kind == "bit":
            if not isinstance(value, int) or not 0 <= value < config.n:
                raise ValueError(f"subset {key!r}: bit index must lie in 0..{config.n - 1}")
            masks[subset] = 1 << value
        elif kind == "parity":
            if not isinstance(value, list) or not all(
                isinstance(b, int) and 0 <= b < config.n for b in value
            ):
                raise ValueError(
                    f"subset {key!r}: parity must list bit indices in 0..{config.n - 1}"
                )
            mask = 0
            for b in value:
                mask ^= 1 << b
            masks[subset] = mask
        else:
            raise ValueError(f"subset {key!r}: unknown rule kind {kind!r}")
        seen.add(subset)
    missing = [m for m in range(count) if m not in seen]
    if missing:
        raise ValueError(f"conditioning missing subsets: {missing}")
    return SwapConditioning(config.n, masks)


def _check_conditioning(config: NetworkConfig, conditioning: SwapConditioning) -> None:
    if conditioning.n != config.n:
        raise ValueError("conditioning source count does not match the network")
    if conditioning.masks.size != 1 << config.max_branch:
        raise ValueError("need one conditioning mask per subset of the network")


def swap_spectrum(
    config: NetworkConfig, branch_angles, conditioning: SwapConditioning
) -> SubsetSpectrum:
    """Subset correlators of the jointly measured network, in stabilizer
    form: outcome bit 0 is the ``X^{⊗n}`` eigenvalue and bit ``q`` that of
    ``Z_0 Z_q``.  Mask ``M`` without bit 0 gives 0; else, with ``r`` the
    popcount of ``M >> 1``, ``z_0 = r mod 2`` and ``z_q`` bit ``q`` of ``M``,
    ``K_X = Re[(-i)^{z_0 + r}] prod_j Re[i^{z_j} P_j(X)]`` (``P`` as in
    :func:`~bellnet.inequality.source_factors`).
    """
    _check_conditioning(config, conditioning)
    masks = conditioning.masks
    z = (masks >> np.arange(config.n)[:, None]) & 1
    r = z[1:].sum(axis=0)
    # z_0 + r is even, so (-i)^(z_0 + r) = i^(z_0 + r) is real: it joins
    # source 0's turn z_0.
    z[0] = 2 * (r % 2) + r
    entries = source_factors(config, branch_angles, z).prod(axis=0)
    return SubsetSpectrum(config, np.where(masks & 1, entries, 0.0))


def joint_table_spectrum(
    config: NetworkConfig, branch_angles, conditioning: SwapConditioning
) -> SubsetSpectrum:
    """:func:`swap_spectrum` the dense way, from the simulated joint table.

    The conditioning mask of each subset replaces the separable center
    parity bit; the remaining outcome bits are marginalized by the parity
    sum itself.  After the branch-outcome parity is summed out, one
    Walsh–Hadamard transform over the setting words and one over the
    center outcomes give every (subset word, conditioning mask) entry.
    """
    _check_conditioning(config, conditioning)
    table = swap_joint_table(config, branch_angles)
    correlators = parity_signs(config.total) @ table.values  # (x, v)
    spectrum = fwht(fwht(correlators, axis=0), axis=1) / (1 << config.total)
    words = subset_setting_mask(np.array(subsets_of(config.max_branch)), config)
    return SubsetSpectrum(config, spectrum[words, conditioning.masks])
