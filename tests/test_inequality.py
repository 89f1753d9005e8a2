"""Tests for the subset-correlator inequality machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnet.inequality import (
    SubsetSpectrum,
    bell_value,
    classical_bound,
    contribution_count,
    contribution_count_closed_form,
    correlator_expansion_coefficient,
    critical_visibility,
    diagonal_sweep_closed_form,
    find_critical_visibility,
    fwht,
    parity_signs,
    predicted_quantum_value,
    separable_spectrum,
    single_experiment_value,
    sweep_value,
    table_correlators,
    truncated_spectrum,
)
from bellnet.classical import saturating_table
from bellnet.network import BUDGET_BITS, NetworkConfig, rotated_setting_map, xy_setting_map
from bellnet import inequality
from bellnet.quantum import (
    CorrelationTable,
    MeasurementScheme,
    network_table,
    rotated_scheme,
    scheme_setting_map,
    xy_scheme,
)

from oracles import (
    direct_spectrum,
    direct_sweep_value,
    einsum_correlators,
    expansion_coefficients,
    harmonic_sweep_value,
    simulated_bisection,
    subset_count,
    uniform_table,
)

RNG = np.random.default_rng(99)


def _random_table(config, n_bob_settings=2, seed=0):
    rng = np.random.default_rng(seed)
    dim = 1 << config.total
    raw = rng.random((dim, n_bob_settings, dim, 2))
    raw /= raw.sum(axis=(2, 3), keepdims=True)
    return CorrelationTable(config, raw)


def test_parity_signs():
    assert parity_signs(2).tolist() == [1.0, -1.0, -1.0, 1.0]
    assert parity_signs(0).tolist() == [1.0]
    for width in range(1, 9):
        want = [(-1.0) ** i.bit_count() for i in range(1 << width)]
        assert parity_signs(width).tolist() == want


def _sylvester(width):
    hadamard = np.ones((1, 1))
    for _ in range(width):
        hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), hadamard)
    return hadamard


@settings(max_examples=20, deadline=None)
@given(width=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_fwht_matches_sylvester_matrix(width, seed):
    values = np.random.default_rng(seed).normal(size=1 << width)
    assert np.abs(fwht(values) - _sylvester(width) @ values).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fwht_along_each_axis(seed):
    values = np.random.default_rng(seed).normal(size=(4, 8, 2))
    for axis in range(3):
        hadamard = _sylvester(values.shape[axis].bit_length() - 1)
        want = np.moveaxis(np.tensordot(hadamard, values, axes=([1], [axis])), 0, axis)
        assert np.abs(fwht(values, axis=axis) - want).max() < 1e-12
    with pytest.raises(ValueError):
        fwht(np.zeros(3))


@settings(max_examples=12, deadline=None)
@given(
    branches=st.sampled_from([(1, 2), (2, 1), (1, 2, 3), (3, 3)]),
    n_settings=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_spectrum_matches_direct_sum(branches, n_settings, seed):
    cfg = NetworkConfig(len(branches), branches)
    rng = np.random.default_rng(seed)
    table = _random_table(cfg, n_settings, seed)
    smap = rng.integers(0, n_settings, 1 << cfg.max_branch)
    got = truncated_spectrum(table, smap)
    want = direct_spectrum(table.values, branches, smap)
    assert np.abs(got.entries - want).max() < 1e-12


def test_table_correlators_uniform_and_ghz():
    cfg = NetworkConfig.homogeneous(1, 2)
    uniform = CorrelationTable(cfg, uniform_table(cfg))
    assert np.abs(table_correlators(uniform)).max() < 1e-15

    corr = table_correlators(network_table(xy_scheme(cfg)))
    # both observers on X, center on X: perfect correlation
    assert corr[0, 0] == pytest.approx(1.0, abs=1e-12)
    # one observer moved to Y: correlator vanishes
    assert corr[1, 0] == pytest.approx(0.0, abs=1e-12)


# Each correlator sums 2**(T+1) signed probabilities whose absolute values
# add up to one, so each route rounds it by at most 2**(T+1) eps and the
# two differ by at most twice that.
def _correlator_tol(config):
    return 2.0 ** (config.total + 2) * np.finfo(np.float64).eps


@settings(max_examples=30, deadline=None)
@given(
    branches=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda b: sum(b) <= 7),
    n_settings=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_correlators_match_einsum(branches, n_settings, seed):
    cfg = NetworkConfig(len(branches), tuple(branches))
    table = _random_table(cfg, n_settings, seed)
    gap = np.abs(table_correlators(table) - einsum_correlators(table.values)).max()
    assert gap <= _correlator_tol(cfg)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3), size=st.integers(1, 3), p=st.floats(0.0, 1.0))
def test_table_correlators_of_a_broadcast_view_match_einsum(n, size, p):
    cfg = NetworkConfig.homogeneous(n, size)
    table = saturating_table(p, cfg)
    assert table.values.strides[1] == 0  # one setting repeated, not copied
    gap = np.abs(table_correlators(table) - einsum_correlators(table.values)).max()
    assert gap <= _correlator_tol(cfg)


def test_table_correlators_copy_no_broadcast_view():
    # The constructor computes the correlators, so it is the one to bound.
    table = saturating_table(0.375, NetworkConfig.homogeneous(3, 3))
    assert table.values.nbytes == 8 << 20  # a (512, 2, 512, 2) copy
    tracemalloc.start()
    try:
        again = CorrelationTable(table.config, table.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.values.strides[1] == 0
    # below even one setting's 4 MiB slice
    assert peak < table.values[:, 0].nbytes


@pytest.mark.parametrize(
    "branches,scheme", [((5, 5), xy_scheme), ((2, 5, 2), rotated_scheme)]
)
def test_composed_table_correlators_match_einsum(branches, scheme):
    # Tables of several blocks, signed a block at a time as they are written.
    cfg = NetworkConfig(len(branches), branches)
    table = network_table(scheme(cfg))
    gap = np.abs(table_correlators(table) - einsum_correlators(table.values)).max()
    assert gap <= _correlator_tol(cfg)


def test_spectrum_of_uniform_table_is_zero():
    cfg = NetworkConfig.homogeneous(2, 2)
    spec = truncated_spectrum(CorrelationTable(cfg, uniform_table(cfg)), xy_setting_map(2))
    assert np.abs(spec.entries).max() < 1e-15
    assert bell_value(spec) == pytest.approx(0.0)


def test_spectrum_two_sources_two_branches():
    cfg = NetworkConfig.homogeneous(2, 2)
    spec = truncated_spectrum(network_table(xy_scheme(cfg)), xy_setting_map(2))
    assert np.abs(np.abs(spec.entries) - 0.25).max() < 1e-12
    assert bell_value(spec) == pytest.approx(2.0, abs=1e-12)


def test_truncated_spectrum_heterogeneous():
    cfg = NetworkConfig(2, (1, 2))
    table = network_table(rotated_scheme(cfg))
    spec = truncated_spectrum(table, rotated_setting_map(cfg))
    expected = 2.0 ** -1.5
    assert np.abs(np.abs(spec.entries) - expected).max() < 1e-12
    # four subsets, each contributing |entry|**(1/2)
    assert bell_value(spec) == pytest.approx(2.0 ** 1.25, abs=1e-12)


def test_truncated_reduces_to_plain_on_homogeneous():
    cfg = NetworkConfig.homogeneous(2, 2)
    table = network_table(xy_scheme(cfg))
    smap = xy_setting_map(2)
    a = truncated_spectrum(table, smap).entries
    b = direct_spectrum(table.values, cfg.branches, smap)
    assert np.abs(a - b).max() < 1e-12


def test_spectrum_setting_map_validation():
    cfg = NetworkConfig.homogeneous(1, 2)
    table = network_table(xy_scheme(cfg))
    with pytest.raises(ValueError):
        truncated_spectrum(table, np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        truncated_spectrum(table, np.full(4, 5))
    with pytest.raises(ValueError):
        truncated_spectrum(table, np.arange(4))  # table has 2 settings


def test_spectrum_linearity_under_table_mixing():
    cfg = NetworkConfig.homogeneous(1, 2)
    smap = xy_setting_map(2)
    t1 = _random_table(cfg, seed=1)
    t2 = _random_table(cfg, seed=2)
    for lam in (0.25, 0.5, 0.9):
        mixed = CorrelationTable(cfg, lam * t1.values + (1 - lam) * t2.values)
        got = truncated_spectrum(mixed, smap).entries
        want = lam * truncated_spectrum(t1, smap).entries
        want += (1 - lam) * truncated_spectrum(t2, smap).entries
        assert np.abs(got - want).max() < 1e-12


def test_spectrum_scales_linearly_with_visibility():
    cfg = NetworkConfig.homogeneous(2, 2)
    scheme = xy_scheme(cfg)
    smap = xy_setting_map(2)
    full = truncated_spectrum(network_table(scheme), smap).entries
    for vis in RNG.uniform(0.0, 1.0, 10):
        noisy = network_table(scheme, (vis, 1.0))
        got = truncated_spectrum(noisy, smap).entries
        assert np.abs(got - vis * full).max() < 1e-12


def test_spectrum_validation():
    cfg = NetworkConfig.homogeneous(1, 2)
    with pytest.raises(ValueError):
        SubsetSpectrum(cfg, np.zeros(3))
    with pytest.raises(ValueError):
        SubsetSpectrum(cfg, np.array([0.0, 0.0, 0.0, 1.5]))
    spec = SubsetSpectrum(cfg, np.array([0.5, 0.0, 0.0, -0.5]))
    assert spec.entries.tolist() == [0.5, 0.0, 0.0, -0.5]
    # every comparison with NaN is false, so the bound must pass only on a number
    with pytest.raises(ValueError, match=r"correlator entry outside \[-1, 1\]"):
        SubsetSpectrum(NetworkConfig(1, (1,)), np.array([np.nan, 0.5]))
    correlators = np.zeros((1, 1 << cfg.total, 2))
    correlators[0, 3, 1] = np.nan
    with pytest.raises(ValueError, match=r"correlator entry outside \[-1, 1\]"):
        inequality._correlator_spectra(cfg, correlators, xy_setting_map(cfg.max_branch))


def test_bell_value_drops_only_rounding_noise():
    # T = 3 branch observers and n = 3 sources: a table sums 2**6 words
    cfg = NetworkConfig.homogeneous(3, 1)
    noise = np.finfo(np.float64).eps * 2.0**6
    assert bell_value(SubsetSpectrum(cfg, np.array([noise, -noise]))) == 0.0
    kept = bell_value(SubsetSpectrum(cfg, np.array([1e-6, -5.6e-17])))
    assert kept == pytest.approx(1e-2, rel=1e-12)


def test_classical_bound_values():
    assert classical_bound(NetworkConfig.homogeneous(3, 2)) == pytest.approx(1.0)
    assert classical_bound(NetworkConfig(3, (1, 2, 3))) == pytest.approx(2.0)
    assert classical_bound(NetworkConfig(2, (1, 2))) == pytest.approx(math.sqrt(2.0))


def test_predicted_quantum_values():
    assert predicted_quantum_value(NetworkConfig.homogeneous(1, 1), "xy") == 1.0
    assert predicted_quantum_value(NetworkConfig.homogeneous(2, 2), "xy") == 2.0
    assert predicted_quantum_value(NetworkConfig.homogeneous(1, 3), "xy") == 2.0
    got = predicted_quantum_value(NetworkConfig.homogeneous(1, 3), "rotated")
    assert got == pytest.approx(math.sqrt(8.0))
    got = predicted_quantum_value(NetworkConfig(3, (1, 2, 3)), "rotated")
    assert got == pytest.approx(4.0)
    with pytest.raises(ValueError):
        predicted_quantum_value(NetworkConfig(2, (1, 2)), "xy")
    with pytest.raises(ValueError):
        predicted_quantum_value(NetworkConfig.homogeneous(1, 1), "diagonal")


def test_critical_visibility_values():
    assert critical_visibility(NetworkConfig.homogeneous(2, 2)) == pytest.approx(0.25)
    assert critical_visibility(NetworkConfig(3, (1, 2, 3))) == pytest.approx(0.125)
    assert critical_visibility(NetworkConfig.homogeneous(1, 1)) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )


def test_find_critical_visibility_bisection():
    cfg = NetworkConfig.homogeneous(2, 2)
    got, top = find_critical_visibility(xy_scheme(cfg))
    assert got == pytest.approx(0.25, abs=1e-6)
    assert top == pytest.approx(2.0, abs=1e-12)

    # CHSH: the xy angles do not violate, the rotated ones do
    chsh = NetworkConfig.homogeneous(1, 1)
    assert find_critical_visibility(xy_scheme(chsh))[0] is None
    got, _ = find_critical_visibility(rotated_scheme(chsh))
    assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


UNEVEN_BRANCHES = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda b: sum(b) <= 8
)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), branches=UNEVEN_BRANCHES)
def test_white_noise_scales_the_spectrum(data, branches):
    # White noise has no full correlator, so each entry is prod(vis) times
    # its noiseless value, whatever the angles.
    cfg = NetworkConfig(len(branches), tuple(branches))
    angle = st.floats(-math.pi, math.pi)
    angles = np.array(
        data.draw(st.lists(angle, min_size=2 * cfg.total, max_size=2 * cfg.total))
    ).reshape(cfg.total, 2)
    vis = data.draw(st.lists(st.floats(0.0, 1.0), min_size=cfg.n, max_size=cfg.n))
    scheme = MeasurementScheme(cfg, angles, "custom")
    smap = rotated_setting_map(cfg)
    noiseless = truncated_spectrum(network_table(scheme), smap).entries
    noisy = truncated_spectrum(network_table(scheme, vis), smap).entries
    assert np.abs(noisy - math.prod(vis) * noiseless).max() <= 1e-13


# The noise ladder: one source L=1..7, two sources L=1..4, three sources
# L=1..3 and uneven networks.  (5, 5) is left out only because the
# per-probe oracle takes about 1.6 s there.
NOISE_LADDER = (
    tuple((L,) for L in range(1, 8))
    + tuple((L, L) for L in range(1, 5))
    + tuple((L, L, L) for L in range(1, 4))
    + ((1, 2, 3), (2, 3), (1, 3), (1, 2), (3, 1, 1), (1, 4), (2, 1, 1), (1, 1, 2), (2, 4))
)
NOISE_CASES = [
    (branches, kind)
    for branches in NOISE_LADDER
    for kind in ("xy", "rotated")
    if kind == "rotated" or len(set(branches)) == 1
]


@pytest.mark.parametrize("branches,kind", NOISE_CASES)
def test_find_critical_visibility_matches_simulated_bisection(monkeypatch, branches, kind):
    cfg = NetworkConfig(len(branches), branches)
    scheme = xy_scheme(cfg) if kind == "xy" else rotated_scheme(cfg)
    expected = simulated_bisection(cfg, scheme, 1e-6)

    calls = []
    route = inequality.network_correlators

    def counted(*args, **kwargs):
        calls.append(args)
        return route(*args, **kwargs)

    monkeypatch.setattr(inequality, "network_correlators", counted)
    found, _ = find_critical_visibility(scheme, tol=1e-6)
    # top comes from the exact kernel; the tables certify both ends of the
    # bracket, or that the noiseless network does not violate
    assert len(calls) == (1 if expected is None else 2)
    if expected is None:
        assert found is None
        return
    # The simulated bisection stops within tol/4 of the exact crossing,
    # which the scaling law gives in closed form.
    assert abs(found - expected) <= 1e-6 / 4
    crossing = (classical_bound(cfg) / predicted_quantum_value(cfg, kind)) ** cfg.n
    assert abs(found - crossing) <= 1e-12


def test_find_critical_visibility_certifies_no_violation_on_a_table(monkeypatch):
    # a kernel that finds no violation where the simulated table does one
    cfg = NetworkConfig.homogeneous(2, 2)
    monkeypatch.setattr(
        inequality, "separable_spectrum", lambda scheme: SubsetSpectrum(cfg, np.zeros(4))
    )
    with pytest.raises(ArithmeticError, match="simulated noiseless value 1.99.* exceeds the bound 1.0"):
        find_critical_visibility(xy_scheme(cfg))


# Uneven networks of up to 7 branch observers, both schemes where defined.
KERNEL_NETWORKS = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda b: sum(b) <= 7
)


@settings(max_examples=60, deadline=None)
@given(
    branches=KERNEL_NETWORKS,
    kind=st.sampled_from(["xy", "rotated"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_separable_kernel_matches_simulated_table(branches, kind, seed):
    cfg = NetworkConfig(len(branches), tuple(branches))
    if not cfg.is_homogeneous():
        kind = "rotated"  # the xy map needs an even network
    rng = np.random.default_rng(seed)
    scheme = MeasurementScheme(cfg, rng.uniform(-math.pi, math.pi, (cfg.total, 2)), kind)
    visibilities = rng.uniform(0.0, 1.0, cfg.n)
    got = separable_spectrum(scheme, visibilities).entries
    table = network_table(scheme, visibilities)
    # signed, entry by entry
    assert np.abs(got - truncated_spectrum(table, scheme_setting_map(scheme)).entries).max() < 1e-12


@pytest.mark.parametrize("branches", [(1,), (2, 2), (1, 2, 3), (4, 1)])
def test_separable_kernel_at_full_visibility(branches):
    cfg = NetworkConfig(len(branches), branches)
    scheme = rotated_scheme(cfg)
    noiseless = separable_spectrum(scheme)
    assert np.array_equal(noiseless.entries, separable_spectrum(scheme, (1.0,) * cfg.n).entries)
    predicted = predicted_quantum_value(cfg, "rotated")
    assert bell_value(noiseless) == pytest.approx(predicted, abs=1e-12)


# Networks of up to 64 sources whose kernel array fits the budget.
SCALE_NETWORKS = st.one_of(
    st.tuples(st.integers(1, 64), st.integers(1, 10)).map(lambda nl: (nl[1],) * nl[0]),
    st.lists(st.integers(1, 10), min_size=2, max_size=64),
).filter(lambda b: sum(b) << max(b) <= 1 << BUDGET_BITS)


@settings(max_examples=60, deadline=None)
@given(branches=SCALE_NETWORKS, kind=st.sampled_from(["xy", "rotated"]))
def test_kernel_bell_value_matches_closed_form_at_scale(branches, kind):
    cfg = NetworkConfig(len(branches), tuple(branches))
    if not cfg.is_homogeneous():
        kind = "rotated"  # the xy map needs an even network
    scheme = xy_scheme(cfg) if kind == "xy" else rotated_scheme(cfg)
    want = predicted_quantum_value(cfg, kind)
    assert bell_value(separable_spectrum(scheme)) == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize("n, size, value", [(1100, 1, 1.0), (40, 10, 32.0)])
def test_kernel_bell_value_where_the_product_underflows(n, size, value):
    cfg = NetworkConfig.homogeneous(n, size)
    spectrum = separable_spectrum(xy_scheme(cfg))
    assert bell_value(spectrum) == pytest.approx(value, rel=1e-12)
    if n == 1100:
        assert not spectrum.entries.any()  # 2**-1100 underflows
    else:
        # 2**-200 lies below a table's floor of eps * 2**440
        assert bell_value(SubsetSpectrum(cfg, spectrum.entries)) == 0.0


def test_table_bell_value_past_the_float_exponent_range():
    # a table spectrum's floor eps * 2**(T + n) would be 2**2148 here
    cfg = NetworkConfig.homogeneous(1100, 1)
    assert bell_value(SubsetSpectrum(cfg, np.array([1.0, -0.5]))) == 0.0


def test_kernel_refuses_an_array_past_the_budget():
    cfg = NetworkConfig.homogeneous(4, 20)
    with pytest.raises(ValueError, match=r"the exact kernel would hold 2\^26.4 entries, over 2\^24"):
        separable_spectrum(rotated_scheme(cfg))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_find_critical_visibility_refuses_a_nonpositive_tolerance(monkeypatch, tol):
    monkeypatch.setattr(inequality, "network_correlators", _no_table)
    cfg = NetworkConfig.homogeneous(2, 2)
    with pytest.raises(ValueError, match="tol must be positive"):
        find_critical_visibility(rotated_scheme(cfg), tol=tol)


def _no_table(*args, **kwargs):
    raise AssertionError("simulated a network for a tolerance it should refuse")


def test_find_critical_visibility_refuses_an_uncertified_bracket(monkeypatch):
    # Tables that ignore the visibilities violate at every probe, so the
    # bracket's lower end cannot be certified.
    route = inequality.network_correlators
    monkeypatch.setattr(
        inequality, "network_correlators", lambda scheme, visibilities=None: route(scheme)
    )
    cfg = NetworkConfig.homogeneous(2, 2)
    with pytest.raises(ArithmeticError, match="do not bracket"):
        find_critical_visibility(xy_scheme(cfg))


def test_contribution_count_against_direct_enumeration():
    for size in range(1, 17):
        for residue in (0, 3):
            assert contribution_count(size, residue) == subset_count(size, residue)


def test_contribution_count_examples():
    assert contribution_count(2, 0) == 1
    assert contribution_count(4, 0) == 2
    assert contribution_count(6, 3) == 20
    assert contribution_count_closed_form(4, 0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        contribution_count(0, 0)
    with pytest.raises(ValueError):
        contribution_count(4, 1)


def test_expansion_coefficients_against_polynomials():
    for size in range(1, 9):
        for card in range(size + 1):
            want = expansion_coefficients(size, card)
            got = [
                correlator_expansion_coefficient(size, card, k)
                for k in range(size + 1)
            ]
            assert np.allclose(got, want)


def test_expansion_coefficient_properties():
    # empty subset: plain binomials
    assert [correlator_expansion_coefficient(4, 0, k) for k in range(5)] == [
        1, 4, 6, 4, 1,
    ]
    assert [correlator_expansion_coefficient(2, 1, k) for k in range(3)] == [1, 0, -1]
    # nonempty subsets annihilate the constant harmonic: row sums vanish
    for size in range(1, 7):
        for card in range(1, size + 1):
            row = sum(
                correlator_expansion_coefficient(size, card, k)
                for k in range(size + 1)
            )
            assert row == 0
    with pytest.raises(ValueError):
        correlator_expansion_coefficient(2, 3, 0)
    with pytest.raises(ValueError):
        correlator_expansion_coefficient(2, 1, 5)


def test_sweep_value_against_direct_subset_sum():
    for _ in range(5):
        t0, t1 = RNG.uniform(0.0, math.pi, 2)
        for size in (1, 2, 3, 4):
            got = sweep_value(t0, t1, size)
            want = direct_sweep_value(t0, t1, size)
            assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    size=st.integers(1, 5),
    angles=st.lists(
        st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        min_size=1,
        max_size=6,
    ),
)
def test_sweep_value_on_arrays_matches_direct_subset_sum(size, angles):
    theta0, theta1 = np.array(angles).T
    got = sweep_value(theta0, theta1, size)
    want = [direct_sweep_value(t0, t1, size) for t0, t1 in angles]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sweep_value_matches_harmonic_expansion_at_large_sizes():
    thetas = np.linspace(0.0, math.pi / 2, 9)
    theta0, theta1 = np.repeat(thetas, 9), np.tile(thetas, 9)
    for size in range(9, 17):
        # both forms sum O(2**size) of unit-scale terms
        tol = 2.0**size * np.finfo(np.float64).eps
        got = sweep_value(theta0, theta1, size)
        want = [harmonic_sweep_value(t0, t1, size) for t0, t1 in zip(theta0, theta1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_sweep_value_shapes():
    assert type(sweep_value(0.3, 1.1, 4)) is float
    assert type(sweep_value(np.float64(0.3), 1.1, 4)) is float
    thetas = np.linspace(0.0, math.pi / 2, 7)
    diagonal = sweep_value(thetas, math.pi / 2 - thetas, 5)
    assert diagonal.shape == (7,)
    grid = sweep_value(thetas[:, None], thetas[None, :], 5)
    assert grid.shape == (7, 7)
    for i, t0 in enumerate(thetas):
        assert diagonal[i] == sweep_value(t0, math.pi / 2 - t0, 5)
        for j, t1 in enumerate(thetas):
            assert grid[i, j] == sweep_value(t0, t1, 5)


def test_sweep_value_recovers_axis_scheme():
    for size in (1, 2, 3, 4, 5):
        got = sweep_value(0.0, math.pi / 2, size)
        assert got == pytest.approx(2.0 ** (size // 2), abs=1e-12)


def test_sweep_diagonal_closed_form():
    # two branches: collapses to 1 + |cos(2 theta)|
    for theta in np.linspace(0.0, math.pi / 2, 25):
        got = sweep_value(theta, math.pi / 2 - theta, 2)
        assert got == pytest.approx(1.0 + abs(math.cos(2 * theta)), abs=1e-12)
    # closed form (the sweep formula at m = pi/4) for small branch counts
    for size in range(1, 7):
        for theta in np.linspace(0.0, math.pi / 2, 21):
            got = sweep_value(theta, math.pi / 2 - theta, size)
            assert got == pytest.approx(
                diagonal_sweep_closed_form(theta, size), abs=1e-9
            )


def test_sweep_midpoint_minimum():
    # the diagonal sweep bottoms out at the classical bound
    assert sweep_value(math.pi / 4, math.pi / 4, 2) == pytest.approx(1.0, abs=1e-12)


def test_single_experiment_chsh():
    smap = rotated_setting_map(NetworkConfig.homogeneous(1, 1))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        corr = rng.uniform(-1.0, 1.0, (2, 2))
        got = single_experiment_value(corr, smap)
        want = 0.5 * abs(corr[0, 0] + corr[1, 0]) + 0.5 * abs(corr[0, 1] - corr[1, 1])
        assert got == pytest.approx(want, abs=1e-12)


def test_single_experiment_mermin():
    smap = xy_setting_map(2)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        corr = rng.uniform(-1.0, 1.0, (4, 2))
        got = single_experiment_value(corr, smap)
        want = (
            abs(corr[0, 1] + corr[1, 1] + corr[2, 1] + corr[3, 1])
            + abs(corr[0, 0] - corr[1, 0] + corr[2, 0] - corr[3, 0])
            + abs(corr[0, 0] + corr[1, 0] - corr[2, 0] - corr[3, 0])
            + abs(corr[0, 1] - corr[1, 1] - corr[2, 1] + corr[3, 1])
        ) / 4.0
        assert got == pytest.approx(want, abs=1e-12)


def test_single_experiment_quantum_values():
    chsh_cfg = NetworkConfig.homogeneous(1, 1)
    corr = table_correlators(network_table(rotated_scheme(chsh_cfg)))
    got = single_experiment_value(corr, rotated_setting_map(chsh_cfg))
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    mermin_cfg = NetworkConfig.homogeneous(1, 2)
    corr = table_correlators(network_table(xy_scheme(mermin_cfg)))
    got = single_experiment_value(corr, xy_setting_map(2))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_single_experiment_validation():
    with pytest.raises(ValueError):
        single_experiment_value(np.zeros((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        single_experiment_value(np.zeros((2, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        single_experiment_value(np.zeros((2, 2)), np.array([0, 7]))
    # correlators past one give a spectrum entry past one
    with pytest.raises(ValueError, match=r"correlator entry outside \[-1, 1\]"):
        single_experiment_value(np.full((2, 2), 1.5), np.array([0, 1]))

