"""The seeded generator: same seed, same argv; another seed, same sizes."""

from collections import Counter

import pytest

import bellnet.cli as cli
from run import run_round
from tracer import Tracer
from workloads import WORKLOADS, generate

EXACT = ("quantum.table_elements", "classical.sample_model.calls", "inequality.sweep_value.calls")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    assert [c.argv() for c in generate(workload, 7)] == [c.argv() for c in generate(workload, 7)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_reorders_and_redraws_with_the_same_sizes(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert Counter(c.size for c in a) == Counter(c.size for c in b)
    assert [c.size for c in a] != [c.size for c in b]
    drawn_a = sorted(c.seed or c.fixed_value for c in a if c.seed or c.fixed_value)
    drawn_b = sorted(c.seed or c.fixed_value for c in b if c.seed or c.fixed_value)
    assert len(drawn_a) == len(drawn_b)
    assert drawn_a != drawn_b or not drawn_a


def traced_counts(workload, seed):
    with Tracer() as tracer:
        _, _, results = run_round(cli, [c.argv() for c in generate(workload, seed)], tracer)
    assert all(code == 0 for code, _, _ in results)
    return tracer.round_metrics()[0]


@pytest.mark.parametrize(
    "workload, nonzero",
    [
        ("sim-separable", "quantum.table_elements"),
        ("sample-classical", "classical.sample_model.calls"),
        ("swap-joint", "quantum.table_elements"),
        ("sweep-closed", "inequality.sweep_value.calls"),
    ],
)
def test_exact_counts_do_not_depend_on_the_seed(workload, nonzero):
    first, second = traced_counts(workload, 1), traced_counts(workload, 2)
    assert first[nonzero] > 0
    for name in EXACT:
        assert first.get(name, 0) == second.get(name, 0), name
