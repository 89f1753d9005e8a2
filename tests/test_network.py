"""Tests for the network layout and subset bookkeeping."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnet.network import (
    BUDGET_BITS,
    NetworkConfig,
    over_budget,
    rotated_setting_map,
    subset_setting_mask,
    subsets_of,
    xy_setting_map,
)

from oracles import direct_rotated_setting_map, direct_xy_setting_map


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(0, ())
    with pytest.raises(ValueError):
        NetworkConfig(2, (1,))
    with pytest.raises(ValueError):
        NetworkConfig(1, (0,))


def test_config_basics():
    cfg = NetworkConfig.homogeneous(2, 2)
    assert cfg.branches == (2, 2)
    assert cfg.total == 4
    assert cfg.max_branch == 2
    assert cfg.is_homogeneous()

    het = NetworkConfig(3, (1, 2, 3))
    assert not het.is_homogeneous()
    assert het.offsets == (0, 1, 3)
    assert het.total == 6
    assert het.max_branch == 3


def test_block_structure():
    cfg = NetworkConfig(3, (1, 2, 1))
    assert cfg.block_sizes == (1, 2)
    assert [cfg.block_index(j) for j in range(3)] == [0, 1, 0]

    homog = NetworkConfig.homogeneous(3, 2)
    assert homog.block_sizes == (2,)
    assert all(homog.block_index(j) == 0 for j in range(3))


def test_source_bits():
    cfg = NetworkConfig(2, (1, 2))
    word = 0b110
    assert cfg.source_bits(word, 0) == 0
    assert cfg.source_bits(word, 1) == 0b11


def test_config_json_round_trip():
    cfg = NetworkConfig(2, (1, 3))
    assert json.loads(json.dumps(cfg.to_json())) == {"n": 2, "branches": [1, 3]}


def test_subsets_of():
    assert list(subsets_of(2)) == [0, 1, 2, 3]
    assert len(subsets_of(BUDGET_BITS)) == 1 << BUDGET_BITS
    with pytest.raises(ValueError):
        subsets_of(0)
    with pytest.raises(ValueError, match=r"^the subset universe would hold 2\^25 entries, over 2\^24$"):
        subsets_of(BUDGET_BITS + 1)


@pytest.mark.parametrize(
    "bits, budget, message",
    [
        (24, 24, None),
        (16.5, 16, "x would hold 2^16.5 entries, over 2^16"),
        (26, 24, "x would hold 2^26 entries, over 2^24"),
        # rounded up, so a step just past the budget never prints as the budget
        (24.006, 24, "x would hold 2^24.1 entries, over 2^24"),
        (26.32, 24, "x would hold 2^26.4 entries, over 2^24"),
        (3 * 10**400, 24, f"x would hold 2^{3 * 10**400} entries, over 2^24"),
    ],
)
def test_over_budget(bits, budget, message):
    assert over_budget("x", bits, budget) == message


def test_subset_setting_mask_examples():
    homog = NetworkConfig.homogeneous(2, 2)
    assert subset_setting_mask(0b01, homog) == 0b0101
    assert subset_setting_mask(0b11, homog) == 0b1111

    het = NetworkConfig(2, (1, 2))
    # branch 2 does not exist at the first source, so only bit 2 survives
    assert subset_setting_mask(0b10, het) == 0b100
    assert subset_setting_mask(0b11, het) == 0b111
    # integer arrays are mapped elementwise
    masks = np.arange(4)
    assert subset_setting_mask(masks, het).tolist() == [0b000, 0b011, 0b100, 0b111]


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_setting_mask_distributes_over_xor(m1, m2):
    cfg = NetworkConfig(3, (2, 3, 1))
    assert (
        subset_setting_mask(m1 ^ m2, cfg)
        == subset_setting_mask(m1, cfg) ^ subset_setting_mask(m2, cfg)
    )


def test_bob_setting_bit_examples():
    # Bob's setting bit for a mask is one entry of the xy setting map
    assert xy_setting_map(2)[0b00] == 1
    assert xy_setting_map(2)[0b01] == 0
    assert xy_setting_map(4)[0b0000] == 0
    assert xy_setting_map(4)[0b0001] == 1


def test_xy_setting_map():
    assert xy_setting_map(2).tolist() == [1, 0, 0, 1]
    four = xy_setting_map(4)
    assert four[0] == 0
    cards = np.array([int(m).bit_count() for m in subsets_of(4)])
    assert np.array_equal(four, cards % 2)


def test_rotated_setting_map_homogeneous_is_parity():
    cfg = NetworkConfig.homogeneous(2, 3)
    got = rotated_setting_map(cfg)
    cards = np.array([int(m).bit_count() for m in subsets_of(3)])
    assert np.array_equal(got, cards % 2)


def test_rotated_setting_map_heterogeneous():
    cfg = NetworkConfig(3, (1, 2, 3))
    got = rotated_setting_map(cfg)
    assert got[0b001] == 0b111
    assert got[0b010] == 0b110
    assert got[0b100] == 0b100
    assert got[0b011] == 0b001
    assert got[0b111] == 0b101
    # one setting bit per distinct branch count
    assert got.max() < 1 << len(cfg.block_sizes)



@pytest.mark.parametrize("size", range(1, 13))
def test_setting_maps_match_per_mask_reference(size):
    got = xy_setting_map(size)
    assert got.dtype == np.int64
    assert np.array_equal(got, direct_xy_setting_map(size))
    got = rotated_setting_map(NetworkConfig.homogeneous(2, size))
    assert np.array_equal(got, direct_rotated_setting_map([size, size]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5))
def test_rotated_setting_map_matches_reference_on_random_networks(branches):
    got = rotated_setting_map(NetworkConfig(len(branches), tuple(branches)))
    assert got.dtype == np.int64
    assert np.array_equal(got, direct_rotated_setting_map(branches))
