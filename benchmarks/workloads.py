"""Workload definitions: what each job runs and which files it reads.

A run of a library workload cycles through a pool of ``POOL`` scenarios
generated from the run's seed. A ``cli`` run cycles through a fixed list
of commands over generated and bundled scenarios and always ends on a
whole cycle, so every run sees the same mix of commands. Sizes and the
reasons for them are recorded in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "uavmarket" / "fixtures"

# Scenarios per library run; jobs cycle through them, so each run's
# median is taken over this many different instances (job times differ
# by instance by up to about 25 % on ``ties``).
POOL = 48
# Fewest timed jobs in a run, so that the p80 has at least ten jobs above it.
MIN_JOBS = 50


@dataclass(frozen=True)
class Library:
    family: str
    n_uavs: int
    n_subs: int

    def documents(self, seed: int) -> list[dict]:
        make = gen.FAMILIES[self.family]
        return [make(self.n_uavs, self.n_subs, seed * 100 + i) for i in range(POOL)]


LIBRARY = {
    "direct": Library("direct", 60, 60),
    "ties": Library("ties", 40, 40),
    "physical-sparse": Library("physical", 100, 100),
}


@dataclass(frozen=True)
class Command:
    """One ``python -m uavmarket.cli`` call and the checks on its output."""

    kind: str                 # contract | verify | match | sweep
    scenario: Path
    doc: dict | None = None   # generated document, when there is one
    extra: tuple[str, ...] = field(default=())

    def argv(self, out_dir: Path) -> list[str]:
        return [self.kind, "--scenario", str(self.scenario), "--out", str(out_dir), *self.extra]


SWEEP_STEPS = 6
CONTRACT_N, VERIFY_ENUM_N, VERIFY_GRID_N = 40, 8, 40


def cli_commands(seed: int, work: Path) -> list[Command]:
    """Write the generated ``cli`` scenarios under ``work`` and return the cycle.

    The cycle has twelve jobs: ``contract`` on two 40x40 instances,
    ``verify`` on two 40x40 instances (grid oracle, no enumeration) and on
    one 8x8 instance (enumeration runs), ``match`` on each of the six
    bundled fixtures and the README's ``sweep``. The two heavy kinds run
    twice so that the p80 job falls inside the 40x40 ``verify`` jobs and
    the p50 job inside the small ones, not on a boundary between kinds.
    """
    made = [
        ("contract", f"contract-{i}", gen.direct(CONTRACT_N, CONTRACT_N, 2 * seed + i)) for i in range(2)
    ]
    made += [
        ("verify", f"verify-grid-{i}", gen.direct(VERIFY_GRID_N, VERIFY_GRID_N, 2 * seed + i)) for i in range(2)
    ]
    made.append(("verify", "verify-enum", gen.direct(VERIFY_ENUM_N, VERIFY_ENUM_N, seed)))
    cycle = []
    for kind, stem, doc in made:
        path = work / f"{stem}.scn"
        gen.write(doc, path)
        cycle.append(Command(kind, path, doc))
    cycle += [Command("match", fixture) for fixture in sorted(FIXTURES.glob("*.scn"))]
    sweep = ("--param", "uavs.0.base.0", "--from", "100", "--to", "1100", "--steps", str(SWEEP_STEPS))
    cycle.append(Command("sweep", FIXTURES / "table3.scn", extra=sweep))
    return cycle
