"""Tests for measurements and simulated outcome tables."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellnet import quantum
from bellnet.network import NetworkConfig
from bellnet.quantum import (
    HALF_PI,
    CorrelationTable,
    MeasurementScheme,
    SwapJointTable,
    bob_setting_count,
    compose_network,
    measurement_basis,
    network_correlators,
    network_table,
    rotated_scheme,
    scheme_setting_map,
    single_source_table,
    swap_joint_table,
    xy_scheme,
)

from oracles import (
    bell_basis_two_qubits,
    brute_force_network_table,
    brute_force_swap_table,
    network_closed_form_table,
    pairwise_composition,
    projector,
    single_matmul_composition,
    source_bits,
    uniform_table,
)

RNG = np.random.default_rng(2024)


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
    closed = network_closed_form_table(NetworkConfig(1, (size,)))
    assert np.abs(table.values - closed.values).max() < 1e-12


def test_single_source_closed_form_examples():
    values = network_closed_form_table(NetworkConfig(1, (2,))).values
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


def test_single_source_table_peak_memory():
    # The complex amplitudes (twice the table's bytes) and the table are
    # all that is held at once: the imaginary parts are squared in place,
    # not into a second real temporary.
    angles = np.random.default_rng(8).uniform(-math.pi, math.pi, (8, 2))
    tracemalloc.start()
    try:
        table = single_source_table(8, angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * table.values.nbytes


def test_network_closed_form_examples():
    cfg = NetworkConfig.homogeneous(2, 2)
    table = network_closed_form_table(cfg)
    assert table.values[0, 0, 0, 0] == pytest.approx(1.0 / 16)
    # odd setting weight at one source kills the correlator
    assert table.values[0b0001, 0, 0, 0] == pytest.approx(1.0 / 32)
    marg = table.values.sum(axis=3)
    assert np.abs(marg - 1.0 / 16).max() < 1e-12


def test_compose_single_table_is_identity():
    table = network_closed_form_table(NetworkConfig(1, (2,)))
    assert compose_network([table]) is table


def test_compose_matches_closed_form():
    for n, size in [(2, 1), (2, 2), (3, 1)]:
        cfg = NetworkConfig.homogeneous(n, size)
        composed = compose_network([network_closed_form_table(NetworkConfig(1, (size,)))] * n)
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


@pytest.mark.parametrize(
    "branches,scheme",
    [((5, 5), xy_scheme), ((2, 5, 2), rotated_scheme), ((1, 2, 1), rotated_scheme)],
)
def test_blocked_compose_equals_one_matmul(branches, scheme):
    # (2, 5, 2): the largest source sits in the middle, so its rows split
    # the others' bits into high and low ones.
    cfg = NetworkConfig(len(branches), branches)
    s = scheme(cfg)
    n_y = 1 << len(cfg.block_sizes)
    tables = []
    for j, size in enumerate(branches):
        off, block = cfg.offsets[j], cfg.block_index(j)
        bob = tuple(HALF_PI * ((y >> block) & 1) for y in range(n_y))
        tables.append(single_source_table(size, s.branch_angles[off : off + size], bob))
    got = compose_network(tables)
    assert np.array_equal(got.values, single_matmul_composition([t.values for t in tables]))
    assert np.array_equal(got.values, network_table(s).values)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda s: sum(s) <= 7),
    n_y=st.sampled_from([1, 2, 4]),
    block_bits=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
# Rows of 128 entries in a table of 2^13: the constructor's pass signs 1,
# 4 or 32 rows per block.
@example(sizes=[2, 3, 1], n_y=1, block_bits=7, seed=1)
@example(sizes=[1, 3, 1, 1], n_y=1, block_bits=9, seed=2)
@example(sizes=[1, 3, 1, 1], n_y=1, block_bits=12, seed=3)
def test_compose_blocks_of_any_size_equal_one_matmul(sizes, n_y, block_bits, seed):
    # The block size moves only the constructor's check-and-sign pass; the
    # table is one matmul whatever it is.  Each correlator sums 2**(T+1)
    # signed probabilities whose absolute values add up to one, so any
    # block size rounds it by at most 2**(T+1) eps.
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
    whole = compose_network(tables)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "_BLOCK_ENTRIES", 1 << block_bits)
        blocked = compose_network(tables)
    assert np.array_equal(blocked.values, single_matmul_composition([t.values for t in tables]))
    gap = np.abs(blocked.correlators - whole.correlators).max()
    assert gap <= 2.0 ** (sum(sizes) + 2) * np.finfo(np.float64).eps


def _large_uniform(cfg, n_y):
    values = uniform_table(cfg, n_bob_settings=n_y)
    assert values.size >= 4 * quantum._BLOCK_ENTRIES  # a middle and a last block
    return values


@pytest.mark.parametrize("where", ["middle", "last"])
def test_blocked_check_finds_a_negative_entry(where):
    cfg = NetworkConfig(2, (4, 4))
    values = _large_uniform(cfg, 4)
    x = len(values) // 2 + 3 if where == "middle" else len(values) - 1
    values[x, 2, 5, 0] -= 0.5
    values[x, 2, 5, 1] += 0.5  # the row still sums to one
    with pytest.raises(ValueError, match="^negative probability entry$"):
        CorrelationTable(cfg, values)


@pytest.mark.parametrize("where", ["middle", "last"])
def test_blocked_check_finds_a_row_off_one(where):
    cfg = NetworkConfig(2, (4, 4))
    values = _large_uniform(cfg, 4)
    x = len(values) // 2 + 3 if where == "middle" else len(values) - 1
    values[x, 3] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="^per-setting probabilities do not sum to one$"):
        CorrelationTable(cfg, values)


def test_a_nan_entry_is_refused():
    cfg = NetworkConfig(1, (1,))
    values = uniform_table(cfg)
    values[1, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^NaN probability entry$"):
        CorrelationTable(cfg, values)
    joint = np.full((2, 2, 2), 0.25)
    joint[0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="^NaN probability entry$"):
        SwapJointTable(cfg, joint)
    # a NaN row sum, which no checked entry can give, is refused too
    with pytest.raises(ValueError, match="^per-setting probabilities do not sum to one$"):
        quantum._check_sums(np.array([1.0, np.nan]))


def _parity_zero_table(size, n_y):
    # The center always announces 0 for this source, so composing with it
    # spreads the other sources' entries without mixing their parity bits:
    # a negative entry stays negative.
    values = np.zeros((1 << size, n_y, 1 << size, 2))
    values[..., 0] = 1.0 / (1 << size)
    return CorrelationTable(NetworkConfig(1, (size,)), values)


def _defective_middle(defect, n_y):
    """A (5,) table whose defect its own check missed (it is planted in the
    values after the table was checked), and the message of the check that
    finds it.  In a (2, 5, 2) network its last setting word sits in a
    middle block and in the last block of the constructor's pass."""
    table = CorrelationTable(NetworkConfig(1, (5,)), uniform_table(NetworkConfig(1, (5,)), n_y))
    bad = table.values
    if defect == "negative":
        bad[-1, 1, 7, 0] -= 0.5
        bad[-1, 1, 7, 1] += 0.5
        message = "^negative probability entry$"
    else:
        bad[-1, 1] *= 1.0 + 1e-9
        message = "^per-setting probabilities do not sum to one$"
    return table, message


@pytest.mark.parametrize("defect", ["negative", "off_one"])
def test_compose_checks_each_block_it_writes(defect):
    # Only the composed table's constructor, in the blocks of its pass
    # past the first, can find the middle source's defect.
    n_y = 4
    middle, message = _defective_middle(defect, n_y)
    edge = _parity_zero_table(2, n_y)
    dim = 1 << 9
    assert dim * n_y * dim * 2 >= 4 * quantum._BLOCK_ENTRIES
    with pytest.raises(ValueError, match=message):
        compose_network([edge, middle, edge])


def test_a_table_takes_no_rows_checked_elsewhere():
    # The constructor is the one place a table's rows are checked and
    # signed; no caller may hand it rows it claims to have checked.
    cfg = NetworkConfig(1, (1,))
    values = uniform_table(cfg)
    rows = quantum._signed_table(values, cfg.total)
    with pytest.raises(TypeError):
        CorrelationTable(cfg, values, rows)


def _table_entries(branches):
    cfg = NetworkConfig(len(branches), branches)
    return 4**cfg.total * 2 * bob_setting_count(cfg)


# Every network the sim-separable and swap-joint benchmark workloads
# simulate, plus (3, 4), whose table is exactly one block, and the largest
# multi-source table the budget admits, (1,) * 11.
STREAMED_NETWORKS = sorted(
    {(L,) for L in range(2, 8)}
    | {(L,) * n for n, top in ((2, 6), (3, 4)) for L in range(1, top)}
    | {(1, 2, 3), (2, 3), (1, 3), (1, 1, 1, 1), (2, 2, 2, 2), (3, 4, 3), (3, 4)}
)


@pytest.mark.parametrize(
    "branches,kind",
    [
        (b, kind)
        for b in STREAMED_NETWORKS + [(1,) * 11]
        for kind in ("xy", "rotated")
        if kind == "rotated" or len(set(b)) == 1
    ],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_streamed_correlators_equal_the_tables(branches, kind):
    # Past one block the correlators are a product of the sources' ones,
    # not sums over the composed table's 2**(T+1) outcome words per entry,
    # so they agree within the floor eps * 2**(T+n) that bell_value puts
    # under table values (at most 0.4% of that floor in these cases).
    cfg = NetworkConfig(len(branches), branches)
    scheme = xy_scheme(cfg) if kind == "xy" else rotated_scheme(cfg)
    noisy = tuple(np.linspace(0.35, 0.95, cfg.n))
    floor = np.finfo(np.float64).eps * 2.0 ** (cfg.total + cfg.n)
    # the largest network runs once per scheme, pure for xy and noisy for rotated
    for vis in [None, noisy] if cfg.n < 11 else [None if kind == "xy" else noisy]:
        got = network_correlators(scheme, vis)
        assert np.abs(got - network_table(scheme, vis).correlators).max() <= floor
        assert not got.flags.writeable


def test_streamed_networks_span_every_block_count():
    entries = {_table_entries(b) for b in STREAMED_NETWORKS if len(b) > 1}
    assert min(entries) < quantum._BLOCK_ENTRIES < max(entries)
    assert _table_entries((3, 4)) == quantum._BLOCK_ENTRIES
    assert _table_entries((1,) * 11) == 1 << 24


def test_tables_of_one_block_come_from_the_table_route(monkeypatch):
    # Storing a table of one block costs little, and the traced route sees them.
    calls = []
    route = quantum.network_table

    def counted(scheme, visibilities=None):
        calls.append(scheme.config.branches)
        return route(scheme, visibilities)

    monkeypatch.setattr(quantum, "network_table", counted)
    for branches in ((7,), (3, 4), (2, 3), (2, 5, 2), (5, 5)):
        network_correlators(rotated_scheme(NetworkConfig(len(branches), branches)))
    assert calls == [(7,), (3, 4), (2, 3)]


@pytest.mark.parametrize("block_bits", [12, 13, 15, 20])
def test_streamed_correlators_equal_the_tables_at_any_block_size(monkeypatch, block_bits):
    # Rows of the (2, 5, 2) table hold 2**12 entries, so the constructor's
    # pass signs 1, 2, 8 or 256 rows per block.  The block size does not
    # touch the table's one matmul, so the tables agree bit for bit.  Each
    # correlator sums 2**(T+1) signed probabilities whose absolute values
    # add up to one, and a matmul of other rows may add them in another
    # order, so the correlators agree within 2**(T+2) eps.
    scheme = rotated_scheme(NetworkConfig(3, (2, 5, 2)))
    vis = (0.5, 0.75, 1.0)
    whole = network_table(scheme, vis)
    monkeypatch.setattr(quantum, "_BLOCK_ENTRIES", 1 << block_bits)
    blocked = network_table(scheme, vis)
    assert np.array_equal(blocked.values, whole.values)
    gap = np.abs(blocked.correlators - whole.correlators).max()
    assert gap <= 2.0**11 * np.finfo(np.float64).eps


def test_streamed_correlators_hold_a_block_not_the_table():
    # At (5, 5) the table holds 2**22 entries (32 MiB); the check holds the
    # per-source tables and the product of their correlators.
    scheme = xy_scheme(NetworkConfig(2, (5, 5)))
    assert _table_entries((5, 5)) * 8 == 32 << 20
    sources = 2 * single_source_table(5, np.zeros((5, 2)), (0.0, HALF_PI)).values.nbytes
    tracemalloc.start()
    try:
        network_correlators(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sources + (4 << 20)


def test_product_correlators_hold_no_table():
    # At (1,) * 11 the composed table holds 2**24 entries (128 MiB); the
    # product holds 2**11 correlators at each of 2 center settings (32 KiB)
    # and the sources' tables of 8 entries.
    scheme = xy_scheme(NetworkConfig(11, (1,) * 11))
    tracemalloc.start()
    try:
        network_correlators(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _fresh_source_tables(scheme, visibilities):
    """One newly simulated table per source, whether or not sources share them."""
    cfg = scheme.config
    n_y = bob_setting_count(cfg)
    return [
        single_source_table(
            size,
            scheme.branch_angles[off : off + size],
            tuple(HALF_PI * ((y >> cfg.block_index(j)) & 1) for y in range(n_y)),
            visibilities[j],
        )
        for j, (off, size) in enumerate(zip(cfg.offsets, cfg.branches))
    ]


def _correlator_product(cfg, tables):
    """``prod_j E_j(x_j, y)`` for every setting word ``x``, source 0 first."""
    words = np.arange(1 << cfg.total)
    parts = [t.correlators[source_bits(cfg, words, j)] for j, t in enumerate(tables)]
    return np.prod(parts, axis=0)


@pytest.mark.parametrize(
    "branches, kind, visibilities, simulated",
    [
        ((3, 3, 3), "xy", (1.0, 1.0, 1.0), 1),
        ((3, 3, 3), "rotated", (0.5, 1.0, 0.5), 2),
        ((1, 2, 3), "rotated", (1.0, 1.0, 1.0), 3),
        ((2, 2, 2, 2), "xy", (0.25, 0.5, 0.25, 0.5), 2),
        ((1,) * 6, "xy", (1.0,) * 6, 1),
    ],
)
def test_each_distinct_source_is_simulated_once(
    monkeypatch, branches, kind, visibilities, simulated
):
    cfg = NetworkConfig(len(branches), branches)
    scheme = xy_scheme(cfg) if kind == "xy" else rotated_scheme(cfg)
    fresh = _fresh_source_tables(scheme, visibilities)
    if _table_entries(branches) <= quantum._BLOCK_ENTRIES:
        want = compose_network(fresh).correlators
    else:
        want = _correlator_product(cfg, fresh)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return single_source_table(*args, **kwargs)

    monkeypatch.setattr(quantum, "single_source_table", counted)
    got = network_correlators(scheme, visibilities)
    assert len(calls) == simulated
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "branches, angles, simulated",
    [
        ((2, 2), None, 1),
        ((1, 2, 1), None, 2),
        ((1, 1, 1, 1), [[0.0, HALF_PI], [0.3, 0.1], [0.0, HALF_PI], [0.3, 0.1]], 2),
    ],
)
def test_swap_joint_table_simulates_each_distinct_source_once(
    monkeypatch, branches, angles, simulated
):
    cfg = NetworkConfig(len(branches), branches)
    angles = xy_scheme(cfg).branch_angles if angles is None else np.array(angles)
    calls = []
    amplitudes = quantum._branch_amplitudes

    def counted(branch_angles):
        calls.append(branch_angles)
        return amplitudes(branch_angles)

    monkeypatch.setattr(quantum, "_branch_amplitudes", counted)
    table = swap_joint_table(cfg, angles)
    assert len(calls) == simulated
    assert np.abs(table.values - brute_force_swap_table(cfg, angles)).max() < 1e-12


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
    # (2, 3) is the largest joint table the default conditioning checks
    branches=st.sampled_from([(1,), (2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 1), (2, 3)]),
)
def test_swap_joint_table_matches_oracle(data, branches):
    cfg = NetworkConfig(len(branches), branches)
    angles = np.array(
        data.draw(st.lists(ANGLES, min_size=2 * cfg.total, max_size=2 * cfg.total))
    ).reshape(cfg.total, 2)
    table = swap_joint_table(cfg, angles)
    assert np.abs(table.values - brute_force_swap_table(cfg, angles)).max() < 1e-12


def test_swap_joint_table_guards():
    with pytest.raises(ValueError, match=r"^the joint table would hold 2\^26 entries, over 2\^16$"):
        swap_joint_table(NetworkConfig.homogeneous(2, 6), np.zeros((12, 2)))
    with pytest.raises(ValueError):
        swap_joint_table(NetworkConfig.homogeneous(2, 1), np.zeros((3, 2)))

