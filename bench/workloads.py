"""Seeded job generators for the three benchmark workloads.

A job is what the single closed-loop client submits next: the arguments of
one ``spinphase`` CLI call and, for topology scans, a (theta, g) grid that is
handed to ``topology.phase_map`` and ``topology.find_vortices``.  The program
only ever sees the generated arguments, never the seed.

Discrete choices that change a job's cost by a large factor (the quantity of a
closed-form sweep, the numeric grid size, the eigenstate of a topology scan)
are drawn from seeded shuffled decks, so every run holds them in the same
shares and run-to-run spread comes from the program, not from the job mix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Q_VALUES = (0.0, 0.05, 0.1073, 0.3)
# The Uhlmann phase, the paper's central quantity, is drawn twice as often;
# this also puts the median job inside one quantity's cost level.
CLOSED_QUANTITIES = ("uhlmann_closed", "uhlmann_closed", "berry", "interferometric", "concurrence")
# Every job kind on grids of 4, 6, 6 and 9 points: the median job is a 6-point
# grid and the 90th percentile a 9-point one, each inside its share of the deck.
NUMERIC_JOBS = tuple(itertools.product(
    ("A", "B", "composite", "validate"), ((2, 2), (2, 3), (3, 2), (3, 3))
))
WINDING_G_COUNTS = (38, 42)
# Even theta counts over [0, pi]: the equator then falls inside a plaquette.
# With an odd count the vortex sits on a lattice link, where "one hit within
# one cell" is not a well-defined expectation for a plaquette method.
SCAN_THETA_COUNTS = (56, 58, 60, 62, 64)
SCAN_G_COUNTS = (56, 64)


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Sweep:
    """One ``spinphase sweep`` call, its output captured in memory."""

    quantity: str
    subsystem: str
    j: int
    q_list: tuple[float, ...]
    theta: Axis
    g: Axis

    def argv(self) -> list[str]:
        return [
            "sweep", "--quantity", self.quantity, "--subsystem", self.subsystem,
            "--j", str(self.j), "--q", *map(repr, self.q_list),
            *_grid_args(self.theta, self.g),
        ]


@dataclass(frozen=True)
class Validate:
    """One ``spinphase validate`` call (numeric vs closed-form cross check)."""

    subsystem: str
    j: int
    q_list: tuple[float, ...]
    theta: Axis
    g: Axis

    def argv(self) -> list[str]:
        return [
            "validate", "--subsystem", self.subsystem, "--j", str(self.j),
            "--q", *map(repr, self.q_list), *_grid_args(self.theta, self.g),
        ]


@dataclass(frozen=True)
class VortexScan:
    """A ``phase_map`` on a (theta, g) grid followed by ``find_vortices``."""

    subsystem: str
    j: int
    q: float
    theta: Axis
    g: Axis


@dataclass(frozen=True)
class Job:
    command: Sweep | Validate
    scan: VortexScan | None = None


def _grid_args(theta: Axis, g: Axis) -> list[str]:
    return [
        "--theta-min", repr(theta.lo), "--theta-max", repr(theta.hi),
        "--g-min", repr(g.lo), "--g-max", repr(g.hi),
        "--grid", f"{theta.count}x{g.count}",
    ]


class _Deck:
    """Draws items in seeded shuffled blocks that hold every item once."""

    def __init__(self, rng: random.Random, items: Sequence):
        self._rng = rng
        self._items = list(items)
        self._pile: list = []

    def draw(self):
        if not self._pile:
            self._pile = list(self._items)
            self._rng.shuffle(self._pile)
        return self._pile.pop()


def _closed_sweep(rng: random.Random) -> Iterator[Job]:
    quantities = _Deck(rng, CLOSED_QUANTITIES)
    while True:
        # Ranges sometimes start at the sin(theta) = 0 boundary or at g = 0.
        theta_lo = 0.0 if rng.random() < 0.3 else rng.uniform(0.05, 0.5)
        theta_hi = math.pi if rng.random() < 0.2 else rng.uniform(math.pi - 0.5, math.pi - 0.05)
        g_lo = 0.0 if rng.random() < 0.25 else rng.uniform(0.05, 0.5)
        yield Job(Sweep(
            quantity=quantities.draw(),
            subsystem=rng.choice("AB"),
            j=rng.randint(1, 4),
            q_list=tuple(rng.sample(Q_VALUES, 2)),
            theta=Axis(theta_lo, theta_hi, rng.randint(38, 42)),
            g=Axis(g_lo, rng.uniform(1.5, 3.0), rng.randint(38, 42)),
        ))


def _numeric_holonomy(rng: random.Random) -> Iterator[Job]:
    deck = _Deck(rng, NUMERIC_JOBS)
    while True:
        kind, (nt, ng) = deck.draw()
        theta = Axis(rng.uniform(0.2, 0.6), rng.uniform(math.pi - 0.6, math.pi - 0.2), nt)
        g = Axis(rng.uniform(0.0, 0.4), rng.uniform(1.5, 3.0), ng)
        j = rng.randint(1, 4)
        q_list = (rng.choice(Q_VALUES),)
        if kind == "validate":
            yield Job(Validate(rng.choice("AB"), j, q_list, theta, g))
        else:
            yield Job(Sweep("uhlmann_numeric", kind, j, q_list, theta, g))


def _topology_scan(rng: random.Random) -> Iterator[Job]:
    # All four eigenstates, in equal shares: winding sweeps of j = 3 and 4
    # currently abort with a domain error and must show as failed jobs.
    states = _Deck(rng, (1, 2, 3, 4))
    while True:
        j = states.draw()
        subsystem = rng.choice("AB")
        q = rng.choice(Q_VALUES)
        winding = Sweep(
            "winding", subsystem, j, (q,),
            Axis(0.0, math.pi, 2),
            Axis(rng.uniform(0.0, 0.2), rng.uniform(2.0, 2.6), rng.randint(*WINDING_G_COUNTS)),
        )
        scan = VortexScan(
            subsystem, j, q,
            Axis(0.0, math.pi, rng.choice(SCAN_THETA_COUNTS)),
            Axis(rng.uniform(0.0, 0.3), rng.uniform(2.0, 2.6), rng.randint(*SCAN_G_COUNTS)),
        )
        yield Job(winding, scan)


WORKLOADS = {
    "closed_sweep": _closed_sweep,
    "numeric_holonomy": _numeric_holonomy,
    "topology_scan": _topology_scan,
}


def jobs(workload: str, seed: int, stream: str = "timed") -> Iterator[Job]:
    """Endless job sequence of a workload; equal (workload, seed, stream) give equal jobs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{stream}"))
