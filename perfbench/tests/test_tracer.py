"""Sanity of the span tracer."""

import bellnet.cli
import bellnet.inequality
import bellnet.quantum
import bellnet.swap
from run import run_round
from tracer import Tracer
from workloads import generate


def test_wraps_every_binding_and_restores_them(capsys):
    original = bellnet.quantum.network_table
    with Tracer() as tracer:
        wrapped = bellnet.quantum.network_table
        assert wrapped is not original
        assert bellnet.cli.network_table is wrapped
        assert bellnet.inequality.network_table is wrapped
        assert bellnet.swap.swap_joint_table is bellnet.quantum.swap_joint_table
        tracer.command = (0, 0)
        assert bellnet.cli.main(["noise", "--n", "1", "--L", "2", "--scheme", "rotated"]) == 0
        tracer.command = (0, 1)
        assert bellnet.cli.main(["swap", "--n", "2", "--L", "1"]) == 0
    assert bellnet.quantum.network_table is original
    assert bellnet.cli.network_table is original
    metrics = tracer.round_metrics()[0]
    # every network_table call but the swap command's sits under the bisection
    assert metrics["inequality.find_critical_visibility.probes"] == metrics["quantum.network_table.calls"] - 1
    assert metrics["quantum.swap_joint_table.calls"] == 1


def test_spans_record_problem_size(capsys):
    with Tracer() as tracer:
        tracer.command = (0, 0)
        bellnet.cli.main(["violate", "--n", "1", "--L", "2"])
        tracer.command = (0, 1)
        bellnet.cli.main(["swap", "--n", "2", "--L", "1"])
    sizes = {s.name: s.size for s in tracer.spans if s.size and s.command == (0, 0)}
    # one source, L=2: three qubits, table (x, y, a, b) = 4 * 2 * 4 * 2
    assert sizes["quantum.single_source_table"] == {"qubits": 3, "elements": 64, "bytes": 512}
    joint = next(s.size for s in tracer.spans if s.name == "quantum.swap_joint_table")
    assert joint == {"qubits": 4, "elements": 4 * 4 * 4, "bytes": 8 * 64}


def test_self_times_add_up_to_the_traced_wall():
    argvs = [c.argv() for c in generate("sample-classical", 5)]
    with Tracer() as tracer:
        latencies, _, results = run_round(bellnet.cli, argvs, tracer)
    assert all(code == 0 for code, _, _ in results)
    metrics = tracer.round_metrics()[0]
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["cli.calls"] == len(argvs)
    wall = sum(latencies)
    # Only the driver's stdout capture lies outside the spans.
    assert 0 < wall - total_self < 0.02 * wall
