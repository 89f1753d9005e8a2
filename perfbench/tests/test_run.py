"""The driver's run loop."""

from run import MIN_ROUNDS, SETUP_SAMPLES, run_workload
from workloads import generate


def test_run_shorter_than_two_rounds_ends_with_every_setup_sample():
    result, lines = run_workload("sweep-closed", 1, 0.1, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == MIN_ROUNDS * len(generate("sweep-closed", 1))
    setup_line = next(line for line in lines if line.strip().startswith("setup_s"))
    assert setup_line.endswith(f"n={SETUP_SAMPLES}")
