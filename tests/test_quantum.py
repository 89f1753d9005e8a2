"""Tests for states, measurements, and simulated outcome tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellnet.network import BUDGET_BITS, NetworkConfig
from bellnet.quantum import (
    HALF_PI,
    CorrelationTable,
    MeasurementScheme,
    compose_network,
    custom_scheme,
    ghz_state,
    measurement_basis,
    network_closed_form_table,
    network_table,
    rotated_scheme,
    scheme_setting_map,
    single_source_closed_form_table,
    single_source_table,
    swap_joint_table,
    xy_scheme,
)

from oracles import (
    bell_basis_two_qubits,
    brute_force_network_table,
    brute_force_swap_table,
    pairwise_composition,
    projector,
    uniform_table,
)

RNG = np.random.default_rng(2024)


def test_ghz_state_small():
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(ghz_state(1), [s, s])
    assert np.allclose(ghz_state(2), [s, 0.0, 0.0, s])
    assert abs(np.linalg.norm(ghz_state(12)) - 1.0) < 1e-12
    with pytest.raises(ValueError, match=r"^the GHZ state would hold 2\^25 entries, over 2\^24$"):
        ghz_state(BUDGET_BITS + 1)
    with pytest.raises(ValueError):
        ghz_state(0)


def test_measurement_basis_diagonalizes():
    for theta in RNG.uniform(-math.pi, math.pi, 8):
        basis = measurement_basis(theta)
        assert np.allclose(basis.conj().T @ basis, np.eye(2))
        observable = projector(theta, 0) - projector(theta, 1)
        diag = basis.conj().T @ observable @ basis
        assert np.allclose(diag, np.diag([1.0, -1.0]))


ANGLES = st.floats(-math.pi, math.pi)
VISIBILITIES = st.floats(0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), size=st.integers(1, 4))
def test_single_source_table_matches_oracle(data, size):
    angles = np.array(data.draw(st.lists(ANGLES, min_size=2 * size, max_size=2 * size)))
    angles = angles.reshape(size, 2)
    center = data.draw(ANGLES)
    vis = data.draw(VISIBILITIES)
    table = single_source_table(size, angles, (0.0, center), vis)
    oracle = brute_force_network_table(NetworkConfig(1, (size,)), angles, center, 2, [vis])
    assert np.abs(table.values - oracle).max() < 1e-12


@settings(max_examples=6, deadline=None)
@given(data=st.data(), branches=st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1)]))
def test_network_table_matches_oracle(data, branches):
    cfg = NetworkConfig(len(branches), branches)
    angles = np.array(
        data.draw(st.lists(ANGLES, min_size=2 * cfg.total, max_size=2 * cfg.total))
    ).reshape(cfg.total, 2)
    vis = data.draw(st.lists(VISIBILITIES, min_size=cfg.n, max_size=cfg.n))
    table = network_table(MeasurementScheme(cfg, angles, "custom"), vis)
    oracle = brute_force_network_table(cfg, angles, HALF_PI, table.n_bob_settings, vis)
    assert np.abs(table.values - oracle).max() < 1e-12


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_single_source_matches_closed_form(size):
    angles = np.tile([0.0, HALF_PI], (size, 1))
    table = single_source_table(size, angles)
    closed = single_source_closed_form_table(size)
    assert np.abs(table.values - closed.values).max() < 1e-12


def test_single_source_closed_form_examples():
    values = single_source_closed_form_table(2).values
    # two branches, all settings and outcomes zero
    assert values[0, 0, 0, 0] == pytest.approx(0.25)
    # one axis flipped to the other coordinate: correlator vanishes
    assert values[0b01, 0, 0, 0] == pytest.approx(0.125)
    assert values[0, 0].sum() == pytest.approx(1.0)


def test_single_source_zero_visibility_is_uniform():
    angles = np.tile([0.0, HALF_PI], (2, 1))
    table = single_source_table(2, angles, visibility=0.0)
    assert np.abs(table.values - 1.0 / 8).max() < 1e-12


def test_single_source_visibility_linearity():
    angles = RNG.uniform(-math.pi, math.pi, (2, 2))
    pure = single_source_table(2, angles).values
    noise = uniform_table(NetworkConfig(1, (2,)))
    for vis in RNG.uniform(0.0, 1.0, 20):
        got = single_source_table(2, angles, visibility=vis).values
        assert np.abs(got - (vis * pure + (1 - vis) * noise)).max() < 1e-12


def test_single_source_guards():
    # 4**12 * 2 settings * 2 parity bits: past the budget
    with pytest.raises(ValueError, match=r"^one source's table would hold 2\^26 entries, over 2\^24$"):
        single_source_table(12, np.zeros((12, 2)))
    with pytest.raises(ValueError):
        single_source_table(2, np.zeros((3, 2)))
    for vis in (1.5, -0.1):
        with pytest.raises(ValueError):
            single_source_table(2, np.zeros((2, 2)), visibility=vis)


def test_network_closed_form_examples():
    cfg = NetworkConfig.homogeneous(2, 2)
    table = network_closed_form_table(cfg)
    assert table.values[0, 0, 0, 0] == pytest.approx(1.0 / 16)
    # odd setting weight at one source kills the correlator
    assert table.values[0b0001, 0, 0, 0] == pytest.approx(1.0 / 32)
    marg = table.values.sum(axis=3)
    assert np.abs(marg - 1.0 / 16).max() < 1e-12


def test_compose_single_table_is_identity():
    table = single_source_closed_form_table(2)
    again = compose_network([table])
    assert np.abs(again.values - table.values).max() == 0.0


def test_compose_matches_closed_form():
    for n, size in [(2, 1), (2, 2), (3, 1)]:
        cfg = NetworkConfig.homogeneous(n, size)
        composed = compose_network([single_source_closed_form_table(size)] * n)
        assert composed.config == cfg
        closed = network_closed_form_table(cfg)
        assert np.abs(composed.values - closed.values).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 8),
    n_y=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compose_matches_pairwise_einsum(sizes, n_y, seed):
    rng = np.random.default_rng(seed)
    tables = [
        single_source_table(
            size,
            rng.uniform(-math.pi, math.pi, (size, 2)),
            rng.uniform(-math.pi, math.pi, n_y),
            rng.uniform(0.0, 1.0),
        )
        for size in sizes
    ]
    want = pairwise_composition([t.values for t in tables])
    got = compose_network(tables)
    assert got.config == NetworkConfig(len(sizes), tuple(sizes))
    # compose_network multiplies the Walsh pairs (p0 + p1, p0 - p1) of all
    # sources but the largest, folds both transforms of that one into the
    # product and sums two products per entry; the oracle adds two products
    # per source.  Each route rounds every Walsh term and product by at most
    # eps/2 on sums no larger than twice the largest entry, so 4 n eps of
    # the largest entry bounds the gap (1,346 random networks gave at most
    # 0.75 n eps).
    tol = 4 * len(sizes) * np.finfo(np.float64).eps * np.abs(want).max()
    assert np.abs(got.values - want).max() <= tol


def test_compose_of_uniform_is_uniform():
    cfg = NetworkConfig(1, (2,))
    parts = [CorrelationTable(cfg, uniform_table(cfg))] * 2
    got = compose_network(parts)
    assert np.abs(got.values - 1.0 / 32).max() < 1e-15


def test_compose_rejects_bad_input():
    with pytest.raises(ValueError):
        compose_network([])
    with pytest.raises(ValueError):
        compose_network([network_closed_form_table(NetworkConfig.homogeneous(2, 1))])
    cfg = NetworkConfig(1, (1,))
    a = CorrelationTable(cfg, uniform_table(cfg, n_bob_settings=2))
    b = CorrelationTable(cfg, uniform_table(cfg, n_bob_settings=4))
    with pytest.raises(ValueError):
        compose_network([a, b])


@pytest.mark.parametrize(
    "n,branches,kind",
    [
        (1, (2,), "xy"),
        (2, (1, 1), "xy"),
        (2, (2, 2), "xy"),
        (2, (1, 2), "rotated"),
        (3, (1, 1, 1), "rotated"),
    ],
)
def test_network_table_against_operator_trace(n, branches, kind):
    cfg = NetworkConfig(n, branches)
    scheme = xy_scheme(cfg) if kind == "xy" else rotated_scheme(cfg)
    table = network_table(scheme)
    oracle = brute_force_network_table(
        cfg, scheme.branch_angles, HALF_PI, table.n_bob_settings
    )
    assert np.abs(table.values - oracle).max() < 1e-12


def test_network_table_noisy_against_operator_trace():
    cfg = NetworkConfig(2, (1, 2))
    scheme = rotated_scheme(cfg)
    vis = [0.7, 0.9]
    table = network_table(scheme, visibilities=vis)
    oracle = brute_force_network_table(
        cfg, scheme.branch_angles, HALF_PI, table.n_bob_settings, vis
    )
    assert np.abs(table.values - oracle).max() < 1e-12


def test_network_table_visibility_validation():
    scheme = xy_scheme(NetworkConfig.homogeneous(2, 1))
    with pytest.raises(ValueError):
        network_table(scheme, visibilities=[0.5])
    with pytest.raises(ValueError):
        network_table(scheme, visibilities=[0.5, 1.5])


def test_scheme_construction():
    cfg = NetworkConfig.homogeneous(2, 2)
    assert xy_scheme(cfg).branch_angles.shape == (4, 2)
    assert np.allclose(rotated_scheme(cfg).branch_angles[:, 0], math.pi / 4)
    with pytest.raises(ValueError):
        custom_scheme(NetworkConfig(2, (1, 2)), 0.0, 1.0)
    with pytest.raises(ValueError):
        MeasurementScheme(cfg, np.zeros((3, 2)), "xy")


def test_scheme_setting_map_dispatch():
    homog = NetworkConfig.homogeneous(2, 2)
    assert scheme_setting_map(xy_scheme(homog)).tolist() == [1, 0, 0, 1]
    assert scheme_setting_map(rotated_scheme(homog)).tolist() == [0, 1, 1, 0]
    het = NetworkConfig(2, (1, 2))
    assert scheme_setting_map(rotated_scheme(het)).max() == 3
    with pytest.raises(ValueError):
        scheme_setting_map(MeasurementScheme(het, np.zeros((3, 2)), "xy"))


def test_correlation_table_validation():
    cfg = NetworkConfig(1, (1,))
    good = np.full((2, 2, 2, 2), 0.25)
    CorrelationTable(cfg, good)
    bad = good.copy()
    bad[0, 0, 0, 0] = -0.1
    with pytest.raises(ValueError):
        CorrelationTable(cfg, bad)
    with pytest.raises(ValueError):
        CorrelationTable(cfg, np.full((2, 2, 2, 2), 0.3))
    with pytest.raises(ValueError):
        CorrelationTable(cfg, np.full((4, 2, 4, 2), 0.125))


def test_swap_joint_table_one_pair_per_source_by_hand():
    # Two Bell pairs; the center projects his two qubits onto the Bell
    # basis written out by hand, column v, row c0 + 2 c1.
    cfg = NetworkConfig.homogeneous(2, 1)
    angles = RNG.uniform(-math.pi, math.pi, (2, 2))
    bell = bell_basis_two_qubits()
    # psi[a0, a1, c0 + 2 c1]: (|00> + |11>)/sqrt(2) on (branch j, center j)
    psi = np.zeros((2, 2, 4), dtype=complex)
    for b0 in (0, 1):
        for b1 in (0, 1):
            psi[b0, b1, b0 + 2 * b1] = 0.5
    table = swap_joint_table(cfg, angles)
    for x in range(4):
        for a in range(4):
            p0 = projector(angles[0, x & 1], a & 1)
            p1 = projector(angles[1, x >> 1], a >> 1)
            for v in range(4):
                prob = np.einsum(
                    "ijc,ik,jl,c,d,kld->",
                    psi.conj(), p0, p1, bell[:, v], bell[:, v].conj(), psi,
                ).real
                assert abs(table.values[x, a, v] - prob) < 1e-12


def test_swap_joint_table_two_pairs():
    cfg = NetworkConfig.homogeneous(2, 1)
    angles = np.tile([0.0, HALF_PI], (2, 1))
    table = swap_joint_table(cfg, angles)
    assert np.abs(table.values.sum(axis=(1, 2)) - 1.0).max() < 1e-12
    # the center outcome is uniform whatever the branch settings
    marginal = table.values.sum(axis=1)
    assert np.abs(marginal - 0.25).max() < 1e-12
    # matched branch axes: conditioned on the center outcome the two end
    # qubits are perfectly correlated or anticorrelated
    for x in (0b00, 0b11):
        for v in range(4):
            cond = table.values[x, :, v] / marginal[x, v]
            corr = sum(
                (-1) ** (int(a).bit_count() & 1) * cond[a] for a in range(4)
            )
            assert abs(abs(corr) - 1.0) < 1e-12
    # mixed axes: no correlation at all
    cond = table.values[0b01, :, 0] / marginal[0b01, 0]
    corr = sum((-1) ** (int(a).bit_count() & 1) * cond[a] for a in range(4))
    assert abs(corr) < 1e-12


@settings(max_examples=12, deadline=None)
@given(
    data=st.data(),
    branches=st.sampled_from([(1,), (2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 1)]),
)
def test_swap_joint_table_matches_oracle(data, branches):
    cfg = NetworkConfig(len(branches), branches)
    angles = np.array(
        data.draw(st.lists(ANGLES, min_size=2 * cfg.total, max_size=2 * cfg.total))
    ).reshape(cfg.total, 2)
    table = swap_joint_table(cfg, angles)
    assert np.abs(table.values - brute_force_swap_table(cfg, angles)).max() < 1e-12


def test_swap_joint_table_guards():
    with pytest.raises(ValueError, match=r"^the joint table would hold 2\^26 entries, over 2\^24$"):
        swap_joint_table(NetworkConfig.homogeneous(2, 6), np.zeros((12, 2)))
    with pytest.raises(ValueError):
        swap_joint_table(NetworkConfig.homogeneous(2, 1), np.zeros((3, 2)))

