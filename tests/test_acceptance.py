"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; each test also asserts, so plain pytest verdicts match.
"""

import math
import time

import numpy as np
import pytest

from bellnet.classical import (
    deterministic_maximum,
    sampled_bell_values,
    saturating_entries,
)
from bellnet.inequality import (
    bell_value,
    classical_bound,
    critical_visibility,
    diagonal_sweep_closed_form,
    find_critical_visibility,
    predicted_quantum_value,
    sweep_value,
    table_correlators,
    truncated_spectrum,
)
from bellnet.network import NetworkConfig, rotated_setting_map, xy_setting_map
from bellnet.quantum import (
    compose_network,
    network_table,
    rotated_scheme,
    scheme_setting_map,
    single_source_table,
    xy_scheme,
)
from bellnet.swap import default_conditioning, swap_spectrum

from oracles import (
    contribution_count,
    correlator_expansion_coefficient,
    expansion_coefficients,
    geometric_mean_inequality_sides,
    network_closed_form_table,
    single_experiment_value,
    subset_count,
)


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}", flush=True)
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_violation_table():
    start = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3):
        for size in (1, 2, 3, 4):
            if n * size > 8:
                continue
            cfg = NetworkConfig.homogeneous(n, size)
            for scheme, expected in (
                (xy_scheme(cfg), 2.0 ** (size // 2)),
                (rotated_scheme(cfg), 2.0 ** (size / 2.0)),
            ):
                table = network_table(scheme)
                spec = truncated_spectrum(table, scheme_setting_map(scheme))
                worst = max(worst, abs(bell_value(spec) - expected))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 60.0
    verdict(
        1,
        f"simulated values match both closed forms over the (n, L) grid "
        f"(worst {worst:.2e}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_02_compose_equals_closed_form():
    worst = 0.0
    for n, size in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        cfg = NetworkConfig.homogeneous(n, size)
        angles = np.tile([0.0, math.pi / 2], (size, 1))
        composed = compose_network([single_source_table(size, angles)] * n)
        closed = network_closed_form_table(cfg)
        worst = max(worst, float(np.abs(composed.values - closed.values).max()))
    verdict(2, f"composed tables match the joint closed form (worst {worst:.2e})", worst < 1e-12)


def test_criterion_03_saturating_family():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n, size in [(2, 2), (3, 2), (2, 3)]:
        cfg = NetworkConfig.homogeneous(n, size)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0, size)
            entries = saturating_entries(np.tile(p, (n, 1)), cfg)
            value = float((np.abs(entries) ** (1.0 / n)).sum())
            worst = max(worst, abs(value - 1.0))
    verdict(3, f"source-symmetric strategies sit on the bound (worst {worst:.2e})", worst < 1e-12)


def test_criterion_04_sampled_models_respect_bound():
    overall = 0.0
    for cfg in (NetworkConfig.homogeneous(2, 2), NetworkConfig.homogeneous(2, 1)):
        top = 0.0
        for lo in range(0, 100_000, 10_000):
            values, _ = sampled_bell_values(range(lo, lo + 10_000), cfg)
            top = max(top, float(values.max()))
        overall = max(overall, top)
    enum_ok = all(
        deterministic_maximum(NetworkConfig.homogeneous(1, size))[0] == 1.0
        for size in (1, 2)
    )
    ok = overall <= 1.0 + 1e-9 and enum_ok
    verdict(
        4,
        f"100k random models stay below the bound (max {overall:.12f}); "
        f"deterministic enumeration max is exactly 1",
        ok,
    )


def test_criterion_05_critical_visibility():
    cases = [
        (NetworkConfig.homogeneous(1, 2), "xy"),
        (NetworkConfig.homogeneous(2, 2), "xy"),
        (NetworkConfig.homogeneous(2, 1), "rotated"),
        (NetworkConfig(3, (1, 2, 3)), "rotated"),
    ]
    worst = 0.0
    for cfg, kind in cases:
        scheme = xy_scheme(cfg) if kind == "xy" else rotated_scheme(cfg)
        found, _ = find_critical_visibility(scheme)
        worst = max(worst, abs(found - critical_visibility(cfg)))
    verdict(5, f"bisection reproduces 2^(-sum(L)/2) (worst {worst:.2e})", worst < 1e-6)


def test_criterion_06_swap_measurement():
    cfg = NetworkConfig.homogeneous(2, 2)
    scheme = rotated_scheme(cfg)
    smap = scheme_setting_map(scheme)
    swapped = bell_value(
        swap_spectrum(cfg, scheme.branch_angles, default_conditioning(cfg, smap))
    )
    separable = bell_value(truncated_spectrum(network_table(scheme), smap))
    ok = abs(swapped - 2.0) < 1e-9 and abs(swapped - separable) < 1e-9
    verdict(
        6,
        f"entangled center measurement gives {swapped:.12f}, separable {separable:.12f}",
        ok,
    )


def test_criterion_07_two_angle_sweep():
    worst2 = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 101):
        got = sweep_value(theta, math.pi / 2 - theta, 2)
        want = 1.0 + 2.0 * abs(
            math.sin(theta + math.pi / 4) * math.sin(theta - math.pi / 4)
        )
        worst2 = max(worst2, abs(got - want))
    worst_conj = 0.0
    for size in range(1, 7):
        for theta in np.linspace(0.0, math.pi / 2, 101):
            got = sweep_value(theta, math.pi / 2 - theta, size)
            worst_conj = max(
                worst_conj, abs(got - diagonal_sweep_closed_form(theta, size))
            )
    ok = worst2 < 1e-9 and worst_conj < 1e-9
    verdict(
        7,
        f"diagonal sweep matches the two-branch identity ({worst2:.2e}) and the "
        f"conjectured closed form up to six branches ({worst_conj:.2e})",
        ok,
    )


def test_criterion_08_chsh_and_mermin_reductions():
    chsh_cfg = NetworkConfig.homogeneous(1, 1)
    smap = rotated_setting_map(chsh_cfg)
    # deterministic strategies give product correlators a(x) * b(y)
    classical_max = max(
        single_experiment_value(
            np.array(
                [[a0 * b0, a0 * b1], [a1 * b0, a1 * b1]], dtype=float
            ),
            smap,
        )
        for a0 in (-1, 1)
        for a1 in (-1, 1)
        for b0 in (-1, 1)
        for b1 in (-1, 1)
    )
    corr = table_correlators(network_table(rotated_scheme(chsh_cfg)))
    chsh_quantum = single_experiment_value(corr, smap)

    mermin_cfg = NetworkConfig.homogeneous(1, 2)
    corr = table_correlators(network_table(xy_scheme(mermin_cfg)))
    mermin_quantum = single_experiment_value(corr, xy_setting_map(2))

    ok = (
        classical_max == 1.0
        and abs(chsh_quantum - math.sqrt(2.0)) < 1e-9
        and abs(mermin_quantum - 2.0) < 1e-9
    )
    verdict(
        8,
        f"one-branch reduction: classical max {classical_max}, quantum "
        f"{chsh_quantum:.12f}; two-branch quantum {mermin_quantum:.12f}",
        ok,
    )


def test_criterion_09_combinatorics():
    counts_ok = all(
        contribution_count(size, residue) == subset_count(size, residue)
        for size in range(1, 17)
        for residue in (0, 3)
    )
    beta_ok = True
    for size in range(1, 9):
        for card in range(size + 1):
            want = expansion_coefficients(size, card)
            got = [
                correlator_expansion_coefficient(size, card, k)
                for k in range(size + 1)
            ]
            beta_ok = beta_ok and np.allclose(got, want)
    verdict(
        9,
        "contribution counts match bit-counting up to 16 branches; expansion "
        "coefficients match polynomial products up to 8",
        counts_ok and beta_ok,
    )


def test_criterion_10_heterogeneous_network():
    cfg = NetworkConfig(3, (1, 2, 3))
    scheme = rotated_scheme(cfg)
    table = network_table(scheme)
    value = bell_value(truncated_spectrum(table, scheme_setting_map(scheme)))
    bound = classical_bound(cfg)
    predicted = predicted_quantum_value(cfg, "rotated")
    ok = abs(value - 4.0) < 1e-9 and bound == 2.0 and abs(predicted - 4.0) < 1e-12
    verdict(
        10,
        f"branches (1,2,3): simulated value {value:.12f} against bound {bound}",
        ok,
    )


def test_criterion_11_geometric_mean_inequality():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 17))
        c = rng.uniform(0.0, 10.0, (n, cols))
        lhs, rhs = geometric_mean_inequality_sides(c)
        ok = ok and lhs <= rhs + 1e-9 * max(1.0, rhs)
    verdict(11, "mixed-power bound holds on 500 random instances", ok)
