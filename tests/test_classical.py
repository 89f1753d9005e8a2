"""Tests for classical strategy families, sampling, and the region tools."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellnet.classical import (
    MAX_ENUMERATION_BRANCHES,
    deterministic_maximum,
    geometric_mean_inequality_sides,
    model_table,
    region_slice,
    sample_model,
    sampled_bell_values,
    sampled_spectra,
    saturating_entries,
    saturating_probabilities,
    saturating_table,
)
from bellnet.inequality import (
    bell_value,
    classical_bound,
    subset_spectrum,
    truncated_spectrum,
)
from bellnet.network import NetworkConfig, rotated_setting_map, xy_setting_map
from bellnet.quantum import CorrelationTable

RNG = np.random.default_rng(31)


def test_saturating_probabilities_broadcast():
    cfg = NetworkConfig.homogeneous(2, 2)
    assert saturating_probabilities(0.3, cfg).shape == (2, 2)
    full = saturating_probabilities([[0.1, 0.2], [0.3, 0.4]], cfg)
    assert full[1, 0] == 0.3
    with pytest.raises(ValueError):
        saturating_probabilities(1.2, cfg)
    with pytest.raises(ValueError):
        saturating_probabilities(0.5, NetworkConfig(2, (1, 2)))


def test_saturating_entries_examples():
    one = NetworkConfig.homogeneous(1, 1)
    assert np.allclose(saturating_entries(0.7, one), [0.7, 0.3])

    cfg = NetworkConfig.homogeneous(2, 2)
    certain = saturating_entries(1.0, cfg)
    assert certain[0] == 1.0
    assert np.abs(certain[1:]).max() == 0.0

    fair = saturating_entries(0.5, cfg)
    assert np.allclose(fair, 2.0 ** (-2 * 2))


def test_saturating_family_attains_the_bound():
    for n, size in [(2, 2), (3, 2), (2, 3)]:
        cfg = NetworkConfig.homogeneous(n, size)
        for _ in range(10):
            p = RNG.uniform(0.0, 1.0, size)  # same vector at every source
            entries = saturating_entries(np.tile(p, (n, 1)), cfg)
            value = (np.abs(entries) ** (1.0 / n)).sum()
            assert value == pytest.approx(classical_bound(cfg), abs=1e-12)


@pytest.mark.parametrize(
    "n, size", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)]
)
def test_saturating_table_matches_formula(n, size):
    # p per observer; the center bit is 0 at even L, the source bit at odd L
    cfg = NetworkConfig.homogeneous(n, size)
    smap = xy_setting_map(size)
    for _ in range(10):
        p = RNG.uniform(0.0, 1.0, (n, size))
        table = saturating_table(p, cfg)
        spec = subset_spectrum(table, smap)
        assert np.abs(spec.entries - saturating_entries(p, cfg)).max() < 1e-12


def test_saturating_table_odd_branch_count():
    cfg = NetworkConfig.homogeneous(2, 1)
    smap = xy_setting_map(1)
    p = np.array([[0.25], [0.8]])
    spec = subset_spectrum(saturating_table(p, cfg), smap)
    assert np.abs(spec.entries - saturating_entries(p, cfg)).max() < 1e-12


def test_sample_model_reproducible():
    cfg = NetworkConfig.homogeneous(2, 2)
    a = sample_model(123, cfg, lattice=3)
    b = sample_model(123, cfg, lattice=3)
    assert np.array_equal(a.weights, b.weights)
    assert all(np.array_equal(x, y) for x, y in zip(a.responses, b.responses))
    assert np.array_equal(a.center_bits, b.center_bits)
    c = sample_model(124, cfg, lattice=3)
    assert not np.array_equal(a.center_bits, c.center_bits)


def test_sample_model_shapes():
    cfg = NetworkConfig(2, (1, 2))
    model = sample_model(5, cfg, lattice=4)
    assert model.weights.shape == (2, 4)
    assert np.abs(model.weights.sum(axis=1) - 1.0).max() < 1e-12
    assert model.responses[0].shape == (1, 2, 4)
    assert model.responses[1].shape == (2, 2, 4)
    assert model.center_bits.shape == (16, 4)
    assert model.n_center_settings == 4
    with pytest.raises(ValueError):
        sample_model(5, cfg, lattice=0)
    with pytest.raises(ValueError):
        sample_model(5, NetworkConfig.homogeneous(3, 1), lattice=60)


def test_single_point_lattice_is_deterministic():
    cfg = NetworkConfig.homogeneous(2, 2)
    smap = xy_setting_map(2)
    for seed in range(20):
        model = sample_model(seed, cfg, lattice=1)
        spec = subset_spectrum(model_table(model), smap)
        assert np.all(np.isin(spec.entries, [-1.0, 0.0, 1.0]))


def test_batched_spectra_match_table_route():
    smap2 = xy_setting_map(2)
    cases = [
        (NetworkConfig.homogeneous(2, 2), smap2, 2),
        (NetworkConfig.homogeneous(2, 2), smap2, 3),
        (NetworkConfig(2, (1, 2)), rotated_setting_map(NetworkConfig(2, (1, 2))), 2),
        (NetworkConfig(3, (1, 2, 3)), rotated_setting_map(NetworkConfig(3, (1, 2, 3))), 3),
    ]
    for cfg, smap, lattice in cases:
        seeds = list(range(20))
        batched = sampled_spectra(seeds, cfg, lattice=lattice, setting_map=smap)
        for i, seed in enumerate(seeds):
            table = model_table(sample_model(seed, cfg, lattice=lattice))
            direct = truncated_spectrum(table, smap)
            assert np.abs(batched[i] - direct.entries).max() < 1e-12
    with pytest.raises(ValueError):
        sampled_spectra([0], NetworkConfig.homogeneous(2, 2), setting_map=np.zeros(3, int))


def test_sampled_bell_values_respect_bound():
    for cfg in [NetworkConfig.homogeneous(2, 2), NetworkConfig.homogeneous(2, 1)]:
        values = sampled_bell_values(range(2000), cfg)
        assert values.shape == (2000,)
        assert values.max() <= classical_bound(cfg) + 1e-9

    het = NetworkConfig(2, (1, 2))
    values = sampled_bell_values(
        range(500), het, setting_map=rotated_setting_map(het)
    )
    assert values.max() <= classical_bound(het) + 1e-9


def test_model_mixture_spectrum_is_convex_combination():
    cfg = NetworkConfig.homogeneous(2, 2)
    smap = xy_setting_map(2)
    t1 = model_table(sample_model(1, cfg))
    t2 = model_table(sample_model(2, cfg))
    s1 = subset_spectrum(t1, smap).entries
    s2 = subset_spectrum(t2, smap).entries
    for lam in (0.2, 0.5, 0.8):
        mixed = CorrelationTable(cfg, lam * t1.values + (1 - lam) * t2.values)
        got = subset_spectrum(mixed, smap).entries
        assert np.abs(got - (lam * s1 + (1 - lam) * s2)).max() < 1e-12


def test_deterministic_maximum_single_source():
    for size in (1, 2):
        cfg = NetworkConfig.homogeneous(1, size)
        best, strategy = deterministic_maximum(cfg)
        assert best == 1.0
        assert len(strategy["responses"]) == size
        assert strategy["center"] in {(b0, b1) for b0 in (0, 1) for b1 in (0, 1)}


def test_deterministic_maximum_matches_enumeration():
    # every response code and center answer, scored one subset at a time;
    # the first strict maximum in code order is the reported strategy
    for size in (1, 2, 3):
        best, first = -1.0, None
        for code in range(1 << (2 * size)):
            answers = [((code >> (2 * k)) & 1, (code >> (2 * k + 1)) & 1) for k in range(size)]
            for center in ((0, 0), (1, 0), (0, 1), (1, 1)):
                value = 0.0
                for mask in range(1 << size):
                    y = xy_setting_map(size)[mask]
                    total = 0.0
                    for word in range(1 << size):
                        bits = [(word >> k) & 1 for k in range(size)]
                        sign = (-1) ** (sum(a[b] for a, b in zip(answers, bits)) + center[y])
                        sign *= (-1) ** sum(b for k, b in enumerate(bits) if (mask >> k) & 1)
                        total += sign
                    value += abs(total) / (1 << size)
                if value > best:
                    best, first = value, {"responses": answers, "center": center}
        assert deterministic_maximum(NetworkConfig.homogeneous(1, size)) == (best, first)


def test_deterministic_maximum_contains_certain_strategy():
    # answering the source bit and never flipping is one maximizer
    cfg = NetworkConfig.homogeneous(1, 2)
    spec = subset_spectrum(saturating_table(1.0, cfg), xy_setting_map(2))
    assert bell_value(spec) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_maximum_guards():
    with pytest.raises(ValueError):
        deterministic_maximum(NetworkConfig.homogeneous(2, 2))
    with pytest.raises(ValueError):
        deterministic_maximum(
            NetworkConfig.homogeneous(1, MAX_ENUMERATION_BRANCHES + 1)
        )


def test_region_slice_nonempty():
    cfg = NetworkConfig.homogeneous(2, 2)
    names, rows = region_slice(cfg, 1.0 / 16, grid=41)
    assert names == ["K_empty", "K_1", "K_2"]
    assert rows.shape[1] == 3
    assert len(rows) > 0
    assert rows.min() >= 0.0


def test_region_slice_fixed_value_filter():
    cfg = NetworkConfig.homogeneous(2, 2)
    grid, fixed, mask = 21, 1.0 / 16, 3
    tol = cfg.n / (grid - 1)
    names, rows = region_slice(cfg, fixed, grid=grid, fixed_mask=mask)
    # rebuild the sweep and check the filter kept exactly the right points
    ps = np.linspace(0.0, 1.0, grid)
    expected = []
    for p1 in ps:
        for p2 in ps:
            k12 = ((1 - p1) * (1 - p2)) ** cfg.n
            if abs(k12 - fixed) < tol:
                expected.append(
                    ((p1 * p2) ** 2, ((1 - p1) * p2) ** 2, (p1 * (1 - p2)) ** 2)
                )
    assert len(rows) == len(expected)
    assert np.abs(np.sort(rows, axis=0) - np.sort(expected, axis=0)).max() < 1e-12


def test_region_slice_empty_at_unreachable_value():
    cfg = NetworkConfig.homogeneous(2, 2)
    names, rows = region_slice(cfg, 2.0, grid=11, tol=1e-3)
    assert len(rows) == 0


def test_region_slice_guards():
    with pytest.raises(ValueError):
        region_slice(NetworkConfig.homogeneous(2, 3), 0.1, grid=11)
    with pytest.raises(ValueError):
        region_slice(NetworkConfig.homogeneous(2, 2), 0.1, grid=1)
    with pytest.raises(ValueError):
        region_slice(NetworkConfig.homogeneous(2, 2), 0.1, grid=11, fixed_mask=4)


def test_geometric_mean_inequality_examples():
    lhs, rhs = geometric_mean_inequality_sides([[1.0, 2.0], [3.0, 4.0]])
    assert lhs == pytest.approx(math.sqrt(3.0) + math.sqrt(8.0))
    assert rhs == pytest.approx(math.sqrt(21.0))
    assert lhs <= rhs

    # one source: both sides collapse to the plain sum
    lhs, rhs = geometric_mean_inequality_sides([[0.3, 0.7, 1.1]])
    assert lhs == pytest.approx(rhs)

    with pytest.raises(ValueError):
        geometric_mean_inequality_sides([1.0, 2.0])
    with pytest.raises(ValueError):
        geometric_mean_inequality_sides([[1.0], [-1.0]])


@settings(max_examples=200)
@given(
    arrays(
        np.float64,
        st.tuples(
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=16),
        ),
        elements=st.floats(min_value=0.0, max_value=1e6),
    )
)
def test_geometric_mean_inequality_holds(c):
    lhs, rhs = geometric_mean_inequality_sides(c)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)
