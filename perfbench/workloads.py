"""The four benchmark workloads and their seeded command generator.

A workload is a fixed multiset of command specs: command, network size,
scheme, grid and output format.  The workload seed only shuffles the
order of each round and draws the parameters that leave the amount of
work unchanged (the sampling ``--seed`` of ``classical --mode sample``
and the ``--fixed-value`` of ``region``).  Two seeds therefore give the same
sizes, the same exact work counts and a different command sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# One-source ladder stops at L=7 (about 2 s per simulated command): L=8
# takes about 14 s and L>=9 does not finish, because the CLI's element
# budget counts table entries rather than work (ROADMAP item 4).
ONE_SOURCE_LADDER = tuple((L,) for L in range(2, 8))
TWO_SOURCE_LADDER = tuple((L, L) for L in range(1, 6))
THREE_SOURCE_LADDER = tuple((L, L, L) for L in range(1, 4))
UNEVEN = ((1, 2, 3), (2, 3), (1, 3))

# Bisection runs about 23 full simulations, so noise stops earlier on
# every ladder than violate does.
NOISE_NETWORKS = (
    ((2,), (3,), (4,), (5,))
    + ((1, 1), (2, 2), (3, 3), (4, 4))
    + ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    + UNEVEN
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what the checker needs to know about it."""

    cmd: str
    branches: tuple[int, ...] = ()
    scheme: str | None = None
    fmt: str | None = None
    L: int | None = None  # sweep only
    grid: int | None = None
    full: bool = False
    mode: str | None = None  # classical only
    trials: int | None = None
    lattice: int | None = None
    seed: int | None = None
    fixed_value: float | None = None  # region only
    tol: float | None = None

    @property
    def size(self) -> tuple:
        """Everything that sets the amount of work; the seed never changes it."""
        return (
            self.cmd, self.branches, self.scheme, self.fmt, self.L, self.grid,
            self.full, self.mode, self.trials, self.lattice, self.tol,
        )

    def argv(self) -> list[str]:
        args = [self.cmd]
        if self.branches:
            if len(set(self.branches)) == 1:
                args += ["--n", str(len(self.branches)), "--L", str(self.branches[0])]
            else:
                args += ["--branches", ",".join(map(str, self.branches))]
        if self.L is not None:
            args += ["--L", str(self.L)]
        for flag, value in (
            ("--scheme", self.scheme),
            ("--mode", self.mode),
            ("--trials", self.trials),
            ("--lattice", self.lattice),
            ("--seed", self.seed),
            ("--fixed-value", None if self.fixed_value is None else repr(self.fixed_value)),
            ("--grid", self.grid),
            ("--tol", self.tol),
            ("--format", self.fmt),
        ):
            if value is not None:
                args += [flag, str(value)]
        if self.full:
            args.append("--full")
        return args


def _sim_separable():
    specs = [
        Command("violate", b)
        for b in ONE_SOURCE_LADDER + TWO_SOURCE_LADDER + THREE_SOURCE_LADDER + UNEVEN
    ]
    specs += [Command("violate", (L,), scheme="rotated") for L in (3, 5)]
    specs += [Command("noise", b, scheme="rotated") for b in NOISE_NETWORKS]
    specs += [Command("sweep", L=L, grid=11) for L in (2, 4, 6)]
    return specs


def _sample_classical():
    sampled = [(n, L) for n in (2, 3) for L in (1, 2)] + [(1, 2, 3)]
    specs = []
    for shape in sampled:
        branches = shape if len(shape) == 3 else (shape[1],) * shape[0]
        for lattice in (2, 3):
            specs += [
                Command("classical", branches, mode="sample", trials=1400, lattice=lattice)
                for _ in range(2)
            ]
    specs += [
        Command("classical", (L,) * n, mode="saturating", grid=101)
        for n in (1, 2, 3)
        for L in (1, 2, 3)
    ]
    specs += [Command("classical", (L,), mode="enumerate") for L in (1, 2, 3, 4)]
    return specs


def _swap_joint():
    sizes = [(2, L) for L in range(1, 6)] + [(4, 1), (4, 2)]
    specs = []
    for n, L in sizes:
        # Small sizes repeat so one round holds enough commands for a tail
        # percentile that lies inside a size class.
        copies = 3 if (L <= 3 and n == 2) or (n, L) == (4, 1) else 1
        for scheme in ("xy", "rotated"):
            specs += [Command("swap", (L,) * n, scheme=scheme) for _ in range(copies)]
    return specs


def _sweep_closed():
    specs = [
        Command("sweep", L=L, grid=grid, fmt=fmt)
        for L, grid, fmt in (
            (9, 101, None), (10, 201, "json"), (11, 101, None), (12, 201, None),
            (14, 101, "json"), (16, 101, None), (9, 51, None), (13, 51, "json"),
        )
    ]
    specs += [Command("sweep", L=L, grid=21) for L in range(9, 17)]
    specs += [
        Command("sweep", L=L, grid=grid, full=True, fmt=fmt)
        for L, grid, fmt in (
            (9, 31, None), (10, 25, "json"), (11, 21, None), (12, 31, None),
            (13, 17, "json"), (15, 21, None),
        )
    ]
    specs += [
        Command("region", (2,) * n, grid=grid, tol=tol, fmt=fmt, fixed_value=0.0)
        for n in (1, 2, 3)
        for grid, tol, fmt in ((101, 0.004, None), (201, 0.002, None), (301, 0.001, "json"))
    ]
    return specs


WORKLOADS = {
    "sim-separable": _sim_separable,
    "sample-classical": _sample_classical,
    "swap-joint": _swap_joint,
    "sweep-closed": _sweep_closed,
}


def _draw(spec: Command, rng: random.Random) -> Command:
    if spec.mode == "sample":
        return replace(spec, seed=rng.randrange(1 << 31))
    if spec.cmd == "region":
        # Slices in [0.05, 0.15] keep between about 150 and 700 rows.
        return replace(spec, fixed_value=round(rng.uniform(0.05, 0.15), 6))
    return spec


def generate(workload: str, seed: int, round_no: int = 0) -> list[Command]:
    """The workload's command sequence for one seed and round.

    Every round of a seed runs the same commands; each round has its own
    order, so a run's medians average over orders instead of depending on
    one.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    commands = [_draw(spec, rng) for spec in WORKLOADS[workload]()]
    random.Random(f"{workload}:{seed}:{round_no}").shuffle(commands)
    return commands
