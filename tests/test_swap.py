"""Tests for the entangled-center measurement and its conditioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnet.inequality import bell_value
from bellnet.network import NetworkConfig, rotated_setting_map, xy_setting_map
from bellnet.quantum import rotated_scheme, swap_joint_table, xy_scheme
from bellnet.swap import (
    SwapConditioning,
    conditioning_from_json,
    default_conditioning,
    joint_table_spectrum,
    swap_spectrum,
)

from oracles import brute_force_swap_table, direct_swap_spectrum


def test_conditioning_validation():
    SwapConditioning(2, np.array([1, 3, 3, 1]))
    with pytest.raises(ValueError):
        SwapConditioning(2, np.array([1, 3, 3]))
    with pytest.raises(ValueError):
        SwapConditioning(2, np.array([1, 3, 4, 1]))
    with pytest.raises(ValueError):
        SwapConditioning(2, np.array([1, 3, -1, 1]))


def test_default_conditioning():
    cfg = NetworkConfig.homogeneous(2, 2)
    cond = default_conditioning(cfg, xy_setting_map(2))
    # xy map is [1, 0, 0, 1]: setting-0 subsets read bit 0, the others all bits
    assert cond.masks.tolist() == [3, 1, 1, 3]

    cond = default_conditioning(cfg, rotated_setting_map(cfg))
    assert cond.masks.tolist() == [1, 3, 3, 1]


def test_default_conditioning_guards():
    odd = NetworkConfig.homogeneous(3, 2)
    with pytest.raises(ValueError):
        default_conditioning(odd, xy_setting_map(2))
    het = NetworkConfig(2, (1, 2))
    with pytest.raises(ValueError):
        default_conditioning(het, rotated_setting_map(het))  # four-valued map


def test_conditioning_json_round_trip():
    # the default xy conditioning, written out by hand, parses back to it
    cfg = NetworkConfig.homogeneous(2, 2)
    cond = default_conditioning(cfg, xy_setting_map(2))
    text = """{
      "0": {"parity": [0, 1]},
      "1": {"bit": 0},
      "2": {"bit": 0},
      "3": {"parity": [0, 1]}
    }"""
    again = conditioning_from_json(text, cfg)
    assert np.array_equal(again.masks, cond.masks)


def test_conditioning_json_errors():
    cfg = NetworkConfig.homogeneous(2, 1)
    with pytest.raises(ValueError, match="not valid JSON"):
        conditioning_from_json("{", cfg)
    with pytest.raises(ValueError, match="JSON object"):
        conditioning_from_json("[1, 2]", cfg)
    with pytest.raises(ValueError, match="not an integer"):
        conditioning_from_json('{"a": {"bit": 0}, "1": {"bit": 0}}', cfg)
    with pytest.raises(ValueError, match="outside"):
        conditioning_from_json('{"5": {"bit": 0}, "1": {"bit": 0}}', cfg)
    with pytest.raises(ValueError, match="single-entry"):
        conditioning_from_json('{"0": {"bit": 0, "parity": []}, "1": {"bit": 0}}', cfg)
    with pytest.raises(ValueError, match="bit index"):
        conditioning_from_json('{"0": {"bit": 7}, "1": {"bit": 0}}', cfg)
    with pytest.raises(ValueError, match="parity"):
        conditioning_from_json('{"0": {"parity": [9]}, "1": {"bit": 0}}', cfg)
    with pytest.raises(ValueError, match="unknown rule"):
        conditioning_from_json('{"0": {"xor": 1}, "1": {"bit": 0}}', cfg)
    with pytest.raises(ValueError, match="missing subsets"):
        conditioning_from_json('{"0": {"bit": 0}}', cfg)


def test_swap_matches_separable_two_sources_two_branches():
    cfg = NetworkConfig.homogeneous(2, 2)
    scheme = rotated_scheme(cfg)
    cond = default_conditioning(cfg, rotated_setting_map(cfg))
    spec = swap_spectrum(cfg, scheme.branch_angles, cond)
    assert np.abs(np.abs(spec.entries) - 0.25).max() < 1e-9
    assert bell_value(spec) == pytest.approx(2.0, abs=1e-9)


def test_swap_two_sources_single_branch():
    cfg = NetworkConfig.homogeneous(2, 1)
    scheme = rotated_scheme(cfg)
    cond = default_conditioning(cfg, rotated_setting_map(cfg))
    spec = swap_spectrum(cfg, scheme.branch_angles, cond)
    assert np.abs(np.abs(spec.entries) - 0.5).max() < 1e-9
    assert bell_value(spec) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_swap_constant_conditioning_bit_gives_zero():
    # a parity the state does not stabilize carries no correlation
    cfg = NetworkConfig.homogeneous(2, 2)
    scheme = xy_scheme(cfg)
    cond = SwapConditioning(2, np.array([2, 2, 2, 2]))
    spec = swap_spectrum(cfg, scheme.branch_angles, cond)
    assert np.abs(spec.entries).max() < 1e-9


def test_swap_spectrum_config_mismatch():
    cfg = NetworkConfig.homogeneous(2, 2)
    cond = SwapConditioning(3, np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        swap_spectrum(cfg, xy_scheme(cfg).branch_angles, cond)
    cond = SwapConditioning(2, np.zeros(8, dtype=int))  # one mask per subset of 3
    with pytest.raises(ValueError):
        swap_spectrum(cfg, xy_scheme(cfg).branch_angles, cond)


@settings(max_examples=10, deadline=None)
@given(
    branches=st.sampled_from([(2, 1), (2, 2), (3, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_swap_spectrum_matches_direct_sum(branches, seed):
    cfg = NetworkConfig(len(branches), branches)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, (cfg.total, 2))
    masks = rng.integers(0, 1 << cfg.n, 1 << cfg.max_branch)
    got = swap_spectrum(cfg, angles, SwapConditioning(cfg.n, masks))
    want = direct_swap_spectrum(swap_joint_table(cfg, angles).values, branches, masks)
    assert np.abs(got.entries - want).max() < 1e-12


# Uneven networks of at most 6 qubits, where the global-state oracle is quick.
ORACLE_NETWORKS = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
    lambda b: sum(b) + len(b) <= 6
)


@settings(max_examples=40, deadline=None)
@given(branches=ORACLE_NETWORKS, seed=st.integers(0, 2**32 - 1))
def test_swap_kernel_matches_joint_table_and_oracle(branches, seed):
    cfg = NetworkConfig(len(branches), tuple(branches))
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, (cfg.total, 2))
    masks = rng.integers(0, 1 << cfg.n, 1 << cfg.max_branch)
    masks[0] &= ~1  # one subset reads a mask without bit 0, one with it
    masks[-1] |= 1
    cond = SwapConditioning(cfg.n, masks)
    got = swap_spectrum(cfg, angles, cond).entries
    dense = joint_table_spectrum(cfg, angles, cond).entries
    oracle = direct_swap_spectrum(brute_force_swap_table(cfg, angles), branches, masks)
    # signed, entry by entry
    assert np.abs(got - dense).max() < 1e-12
    assert np.abs(got - oracle).max() < 1e-12
    assert got[0] == 0.0
