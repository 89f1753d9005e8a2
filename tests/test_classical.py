"""Tests for classical strategy families, sampling, and the region tools."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellnet import classical
from bellnet.classical import (
    deterministic_maximum,
    model_table,
    model_tables,
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
    truncated_spectra,
    truncated_spectrum,
)
from bellnet.network import NetworkConfig, xy_setting_map
from bellnet import quantum
from bellnet.quantum import CorrelationTable
from oracles import (
    dense_sampled_spectra,
    geometric_mean_inequality_sides,
    grid_region_slice,
    loop_model_table,
)

RNG = np.random.default_rng(31)


def test_saturating_probabilities_broadcast():
    cfg = NetworkConfig.homogeneous(2, 2)
    assert saturating_probabilities(0.3, cfg).shape == (2, 2)
    full = saturating_probabilities([[0.1, 0.2], [0.3, 0.4]], cfg)
    assert full[1, 0] == 0.3
    with pytest.raises(ValueError):
        saturating_probabilities(1.2, cfg)
    # every comparison with NaN is false, so only a test that passes on a
    # number in [0, 1] refuses it
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        saturating_probabilities([[0.1, np.nan], [0.3, 0.4]], cfg)
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

    # 2**30 entries would need 8 GiB; the subset-universe cap refuses first
    with pytest.raises(ValueError):
        saturating_entries(0.5, NetworkConfig.homogeneous(1, 30))


def test_saturating_entries_broadcast_a_grid_of_points():
    cfg = NetworkConfig.homogeneous(2, 3)
    grid = np.linspace(0.0, 1.0, 7)
    entries = saturating_entries(grid[:, None, None], cfg)
    assert entries.shape == (7, 8)
    for row, p in zip(entries, grid):
        assert np.array_equal(row, saturating_entries(p, cfg))
    with pytest.raises(ValueError, match="not a grid"):
        saturating_table(grid[:, None, None], cfg)


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
        spec = truncated_spectrum(table, smap)
        assert np.abs(spec.entries - saturating_entries(p, cfg)).max() < 1e-12


def test_saturating_table_odd_branch_count():
    cfg = NetworkConfig.homogeneous(2, 1)
    smap = xy_setting_map(1)
    p = np.array([[0.25], [0.8]])
    spec = truncated_spectrum(saturating_table(p, cfg), smap)
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


def _splitmix_word(seed: int, counter: int) -> int:
    """Word ``counter`` of ``seed``'s stream, in Python integers."""

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    return mix((mix(seed) + (counter + 1) * 0x9E3779B97F4A7C15) % 2**64)


def test_stream_known_answers():
    # mix(0) = 0, so seed 0 gives the standard SplitMix64 outputs from state 0
    words = classical._stream_words(np.zeros(1, dtype=np.uint64), 5)[0]
    assert [int(w) for w in words] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    seeds = [1, 12345, 2**32 + 7, classical.MAX_SAMPLE_SEED]
    words = classical._stream_words(np.array(seeds, dtype=np.uint64), 3)
    assert words.dtype == np.uint64
    assert [[int(w) for w in row] for row in words] == [
        [_splitmix_word(s, c) for c in range(3)] for s in seeds
    ]


def test_stream_words_of_a_range_equal_those_of_its_seeds():
    # a range reads as its seeds, up to the largest one a stop of 2**63
    # admits; a step-1 range is one np.arange in uint64, any other a list
    ranges = (range(1400), range(12345, 13745), range(2**63 - 5, 2**63), range(2**63 - 1, 2**63))
    for seeds in (*ranges, range(10, 0, -3)):
        want = classical._stream_words(np.array(list(seeds), dtype=np.uint64), 3)
        assert np.array_equal(classical._stream_words(seeds, 3), want)
        assert np.array_equal(classical._stream_words(list(seeds), 3), want)
    message = f"sample seeds must be integers in 0..{classical.MAX_SAMPLE_SEED}"
    for seeds in (range(-1, 3), range(-3, 0), range(2**63 - 1, 2**63 + 1)):
        with pytest.raises(ValueError, match=message):
            classical._stream_words(seeds, 3)


def test_sample_model_golden():
    model = sample_model(12345, NetworkConfig(3, (1, 2, 3)), lattice=3)
    want_weights = [
        [0.3318803039914782, 0.37255378595858035, 0.29556591004994154],
        [0.010654562889738648, 0.4877662835268023, 0.5015791535834591],
        [0.17425718285124492, 0.15580973446859311, 0.669933082680162],
    ]
    # log may differ by an ulp between numpy builds; the bits may not
    assert np.abs(model.weights - want_weights).max() < 1e-15
    assert [r.tolist() for r in model.responses] == [
        [[[1, 1, 0], [0, 1, 0]]],
        [[[1, 0, 0], [0, 0, 1]], [[1, 1, 0], [0, 0, 1]]],
        [[[1, 1, 0], [1, 0, 1]], [[0, 0, 1], [1, 0, 0]], [[1, 1, 1], [1, 0, 0]]],
    ]
    assert model.center_bits.shape == (27, 8)
    packed = np.packbits(model.center_bits, bitorder="little").tobytes().hex()
    assert packed == "7fbe381964acc54f548cd88829e732594796796f08dd087cdf02e2"


def test_single_seed_draws_raise_no_warning():
    cases = [(NetworkConfig.homogeneous(1, 1), 1), (NetworkConfig(2, (1, 3)), 4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 1, classical.MAX_SAMPLE_SEED):
            for cfg, lattice in cases:
                sample_model(seed, cfg, lattice)
                sampled_spectra([seed], cfg, lattice)


def test_stream_draw_statistics():
    count = 100_000
    cfg = NetworkConfig(2, (1, 2))
    seeds = np.arange(count, dtype=np.uint64)
    weights, responses, center = classical._draw(seeds, cfg, 2)
    assert np.abs(weights.sum(axis=2) - 1.0).max() < 1e-12
    # a flat Dirichlet on two points has a uniform marginal: mean 1/2, variance 1/12
    marginal = weights[:, :, 0]
    assert np.abs(marginal.mean(axis=0) - 0.5).max() < 5 * math.sqrt(1 / 12 / count)
    assert np.abs(marginal.var(axis=0) - 1 / 12).max() < 5 * math.sqrt((1 / 80 - 1 / 144) / count)
    bits = np.concatenate([b.reshape(count, -1) for b in (*responses, center)], axis=1)
    assert np.abs(bits.mean(axis=0) - 0.5).max() < 5 * 0.5 / math.sqrt(count)


@pytest.mark.parametrize(
    "seeds",
    [[-1], [classical.MAX_SAMPLE_SEED + 1], [2**64], [0, 1.5], range(2**63 - 2, 2**63 + 1)],
)
def test_seeds_outside_the_stream_domain_are_refused(seeds):
    cfg = NetworkConfig.homogeneous(2, 1)
    with pytest.raises(ValueError, match="seeds"):
        sampled_spectra(seeds, cfg)
    if len(seeds) == 1:
        with pytest.raises(ValueError, match="seeds"):
            sample_model(seeds[0], cfg)


def test_block_boundaries_change_no_row():
    cfg = NetworkConfig.homogeneous(2, 2)
    step = classical.SAMPLE_BLOCK_ENTRIES // classical._model_entries(cfg, 16)
    cuts = [0, step - 7, 2 * step + 5, 10_000]  # each cut falls in another block
    assert cuts[2] < cuts[3]
    whole = sampled_spectra(range(10_000), cfg, lattice=16)
    parts = [sampled_spectra(range(a, b), cfg, lattice=16) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(whole, np.concatenate(parts))
    values, _ = sampled_bell_values(range(10_000), cfg, lattice=16)
    assert np.array_equal(values, (np.abs(whole) ** 0.5).sum(axis=1))


@pytest.mark.parametrize(
    "branches, lattice",
    [((3, 3), 64), ((2, 3), 64), ((2, 2), 16), ((1, 2, 3), 3), ((4,), 5)],
)
def test_a_seeds_row_is_the_same_in_any_batch(branches, lattice):
    # A block of one model sums in the same order as a longer block, so a
    # seed's reported bits do not depend on --trials.
    cfg = NetworkConfig(len(branches), branches)
    batch = sampled_spectra(range(7, 407), cfg, lattice)
    for seed in range(7, 407, 10):
        row = batch[seed - 7]
        assert np.array_equal(sampled_spectra([seed], cfg, lattice)[0], row)
        assert np.array_equal(sampled_spectra([3, seed], cfg, lattice)[1], row)


@pytest.mark.parametrize(
    "cfg, lattice, trials, blocks",
    [(NetworkConfig.homogeneous(2, 1), 2, 3, 1), (NetworkConfig(2, (2, 3)), 64, 1000, 8)],
)
def test_probe_rows_are_the_reported_rows(cfg, lattice, trials, blocks):
    seeds = range(7, 7 + trials)
    step = classical.SAMPLE_BLOCK_ENTRIES // classical._model_entries(cfg, lattice)
    assert -(-trials // step) == blocks
    values, head = sampled_bell_values(seeds, cfg, lattice)
    whole = sampled_spectra(seeds, cfg, lattice)
    probes = min(trials, classical.PROBE_MODELS)
    assert np.array_equal(head, whole[:probes])
    assert np.array_equal(values, (np.abs(whole) ** 0.5).sum(axis=1))
    # the counter-based stream draws each probe seed alone as the batch did
    models = [sample_model(seed, cfg, lattice) for seed in seeds[:probes]]
    tables = truncated_spectra(model_tables(models), xy_setting_map(cfg.max_branch))
    assert np.abs(tables - head).max() <= 1e-12
    assert head.flags.owndata  # a copy of the rows, not a view that holds the block


def test_oversized_model_is_refused_before_drawing(monkeypatch):
    # 256**2 hidden words times 2**16 subset masks: 32 GiB of center signs
    cfg = NetworkConfig.homogeneous(2, 16)
    with pytest.raises(ValueError, match="entries"):
        sample_model(0, cfg, lattice=256)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a model beyond the block budget")

    monkeypatch.setattr(classical, "_draw", no_draw)
    for call in (sampled_spectra, sampled_bell_values):
        with pytest.raises(ValueError, match="entries"):
            call([0], cfg, lattice=256)


def test_single_point_lattice_is_deterministic():
    cfg = NetworkConfig.homogeneous(2, 2)
    smap = xy_setting_map(2)
    for seed in range(20):
        model = sample_model(seed, cfg, lattice=1)
        spec = truncated_spectrum(model_table(model), smap)
        assert np.all(np.isin(spec.entries, [-1.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "branches, lattice, seeds",
    [
        ((1,), 1, range(3)),
        ((1,), 2, range(3)),
        ((2, 2), 3, range(3)),
        ((1, 2, 3), 3, range(3)),
        ((2, 3), 4, range(3)),
        ((1, 1, 1, 1), 2, range(3)),
        ((3, 3), 64, [5]),  # 4096 hidden words in two scatter blocks
    ],
)
def test_model_table_equals_the_loop_bit_for_bit(branches, lattice, seeds):
    cfg = NetworkConfig(len(branches), branches)
    for seed in seeds:
        model = sample_model(seed, cfg, lattice=lattice)
        assert np.array_equal(model_table(model).values, loop_model_table(model).values)


def test_model_table_peak_memory():
    model = sample_model(7, NetworkConfig(2, (4, 4)), 64)
    tracemalloc.start()
    try:
        table = model_table(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scatter works in blocks, not on all 4096 hidden words at once
    assert peak <= table.values.nbytes + (8 << 20)


def _table_entries(model):
    dim = 1 << model.config.total
    return dim * model.n_center_settings * dim * 2


@pytest.mark.parametrize(
    "branches, lattice",
    [
        ((1, 2, 3), 3),  # two models a group: groups of 2, 2 and 1
        ((3, 3), 64),  # one group of five, 20480 hidden words in several scatter blocks
        ((1, 1), 1),  # one group of five, one hidden word each
    ],
)
def test_model_tables_equal_each_table_and_the_loop_bit_for_bit(branches, lattice):
    cfg = NetworkConfig(len(branches), branches)
    models = [sample_model(seed, cfg, lattice=lattice) for seed in range(5)]
    tables = list(model_tables(models))
    assert len(tables) == len(models)
    for model, table in zip(models, tables):
        for other in (model_table(model), loop_model_table(model)):
            assert np.array_equal(table.values, other.values)
            assert np.array_equal(table.correlators, other.correlators)
        assert not table.correlators.flags.writeable


def test_model_tables_group_as_many_models_as_fit_one_block():
    def groups(models):
        tables = list(model_tables(models))
        shared = [a.values.base is b.values.base for a, b in zip(tables, tables[1:])]
        return [1 + i for i, same in enumerate(shared) if not same] + [len(tables)]

    split = [sample_model(seed, NetworkConfig(3, (1, 2, 3)), 3) for seed in range(5)]
    assert 2 * _table_entries(split[0]) == quantum._BLOCK_ENTRIES
    assert groups(split) == [2, 4, 5]
    wide = [sample_model(seed, NetworkConfig(2, (3, 3)), 64) for seed in range(5)]
    hidden = 5 * 64**2 * (1 << 6) * 2  # (model, combo) pairs times (x, y) rows
    assert hidden > 4 * classical._SCATTER_ENTRIES
    assert groups(wide) == [5]
    # a table past one block is a group of its own
    large = [sample_model(seed, NetworkConfig(2, (5, 5)), 2) for seed in range(2)]
    assert _table_entries(large[0]) > quantum._BLOCK_ENTRIES
    assert groups(large) == [1, 2]


def test_model_tables_refuse_models_of_other_networks():
    cfg = NetworkConfig.homogeneous(2, 1)
    assert list(model_tables([])) == []
    with pytest.raises(ValueError, match="one network and lattice"):
        model_tables([sample_model(0, cfg, 2), sample_model(1, cfg, 3)])
    with pytest.raises(ValueError, match="one network and lattice"):
        model_tables([sample_model(0, cfg, 2), sample_model(1, NetworkConfig(2, (1, 2)), 2)])


def test_model_tables_peak_memory():
    # Five (1, 2, 3) tables of 2**16 entries each, two a group.  Read as the
    # command line reads them, the call holds one group (2**17 entries) and
    # its scatter block (int64 indices and float64 weights), where a list
    # of all five tables peaked at 2.9 MB.
    cfg = NetworkConfig(3, (1, 2, 3))
    models = [sample_model(seed, cfg, 3) for seed in range(5)]
    smap = xy_setting_map(3)
    block = 2 * 3**3 * (1 << 6) * 8  # (model, combo) pairs times (x, y) rows
    tracemalloc.start()
    try:
        spectra = truncated_spectra(model_tables(models), smap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectra.shape == (5, 8)
    assert 2 * _table_entries(models[0]) == quantum._BLOCK_ENTRIES
    assert peak <= quantum._BLOCK_ENTRIES * 8 + 2 * 8 * block + (128 << 10)


@pytest.mark.parametrize("branches, lattice", [((1, 2, 3), 3), ((2, 2), 2), ((1,), 1)])
def test_truncated_spectra_rows_equal_each_spectrum(branches, lattice):
    cfg = NetworkConfig(len(branches), branches)
    smap = xy_setting_map(cfg.max_branch)
    tables = list(model_tables([sample_model(seed, cfg, lattice) for seed in range(5)]))
    spectra = truncated_spectra(tables, smap)
    assert spectra.shape == (5, 1 << cfg.max_branch)
    for row, table in zip(spectra, tables):
        assert np.array_equal(row, truncated_spectrum(table, smap).entries)


def test_truncated_spectra_refuse_an_entry_past_one():
    # A checked table given a correlator of 1.5 at every setting gives
    # entry 1.5 at the empty subset.
    cfg = NetworkConfig.homogeneous(1, 1)
    good = model_table(sample_model(0, cfg, 2))
    bad = CorrelationTable(cfg, good.values)
    object.__setattr__(bad, "correlators", np.full((2, 2), 1.5))
    smap = xy_setting_map(1)
    with pytest.raises(ValueError, match="outside"):
        truncated_spectra([good, bad], smap)
    with pytest.raises(ValueError, match="outside"):
        truncated_spectrum(bad, smap)
    with pytest.raises(ValueError, match="one network"):
        truncated_spectra([good, model_table(sample_model(0, NetworkConfig(1, (2,)), 2))], smap)


def test_batched_spectra_match_table_route():
    cases = [
        (NetworkConfig.homogeneous(2, 2), 2),
        (NetworkConfig.homogeneous(2, 2), 3),
        (NetworkConfig(2, (1, 2)), 2),
        (NetworkConfig(3, (1, 2, 3)), 3),
    ]
    for cfg, lattice in cases:
        seeds = list(range(20))
        batched = sampled_spectra(seeds, cfg, lattice=lattice)
        for i, seed in enumerate(seeds):
            table = model_table(sample_model(seed, cfg, lattice=lattice))
            direct = truncated_spectrum(table, xy_setting_map(cfg.max_branch))
            assert np.abs(batched[i] - direct.entries).max() < 1e-12


@pytest.mark.parametrize("lattice", [1, 2, 3, 5])
@pytest.mark.parametrize("branches", [(1,), (6,), (2, 2), (1, 3), (1, 2, 3), (1, 1, 1, 1)])
def test_one_mask_kernel_matches_the_dense_route(branches, lattice):
    cfg = NetworkConfig(len(branches), branches)
    got = sampled_spectra(range(40), cfg, lattice=lattice)
    want = dense_sampled_spectra(range(40), cfg, lattice)
    if lattice == 1:
        # one hidden word: every entry is 0 or a product of signs, exactly,
        # and a deterministic model lands on at most one mask
        assert np.array_equal(got, want)
        assert np.count_nonzero(got, axis=1).max() <= 1
    else:
        # each entry sums lattice**n signed products of n weights, whose
        # magnitudes sum to at most one; the routes round in other orders
        terms = lattice**cfg.n
        assert np.abs(got - want).max() <= 2 * (terms + cfg.n) * np.finfo(np.float64).eps


def test_sampled_bell_values_respect_bound():
    for cfg in [NetworkConfig.homogeneous(2, 2), NetworkConfig.homogeneous(2, 1)]:
        values, _ = sampled_bell_values(range(2000), cfg)
        assert values.shape == (2000,)
        assert values.max() <= classical_bound(cfg) + 1e-9

    het = NetworkConfig(2, (1, 2))
    assert sampled_bell_values(range(500), het)[0].max() <= classical_bound(het) + 1e-9


def test_model_mixture_spectrum_is_convex_combination():
    cfg = NetworkConfig.homogeneous(2, 2)
    smap = xy_setting_map(2)
    t1 = model_table(sample_model(1, cfg))
    t2 = model_table(sample_model(2, cfg))
    s1 = truncated_spectrum(t1, smap).entries
    s2 = truncated_spectrum(t2, smap).entries
    for lam in (0.2, 0.5, 0.8):
        mixed = CorrelationTable(cfg, lam * t1.values + (1 - lam) * t2.values)
        got = truncated_spectrum(mixed, smap).entries
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
    spec = truncated_spectrum(saturating_table(1.0, cfg), xy_setting_map(2))
    assert bell_value(spec) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_maximum_guards():
    with pytest.raises(ValueError):
        deterministic_maximum(NetworkConfig.homogeneous(2, 2))
    # entries[x, code] holds 2**L * 4**L values
    with pytest.raises(ValueError, match=r"^the enumeration would hold 2\^27 entries, over 2\^24$"):
        deterministic_maximum(NetworkConfig.homogeneous(1, 9))


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


@pytest.mark.parametrize("grid", [2, 11, 301, 512])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_region_slice_equals_the_full_grid_cut_bit_for_bit(n, grid):
    cfg = NetworkConfig.homogeneous(n, 2)
    # 2.0 lies above every entry of the family, so its slice is empty
    for mask in range(4):
        for fixed in (0.0, 0.0625, 0.3, 2.0):
            for tol in (None, 1e-3):
                names, rows = region_slice(cfg, fixed, grid, mask, tol)
                want_names, want = grid_region_slice(cfg, fixed, grid, mask, tol)
                assert names == want_names
                assert rows.shape == want.shape
                assert rows.tobytes() == want.tobytes(), (mask, fixed, tol)


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
