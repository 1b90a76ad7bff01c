"""Grid sweeps over (theta, g, q) and numeric-vs-analytic cross validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import closed_form, holonomy, states
from .entanglement import concurrence_depolarized, concurrence_pure
from .errors import (
    ConvergenceFailureError,
    DegeneratePhaseError,
    DomainBoundaryError,
    IllPosedError,
)
from .spin_model import ModelParams, check_param
from .topology import winding_number

# Quantity -> the subsystems it is defined for.  Berry and concurrence belong
# to the composite state: a sweep of them only carries the subsystem label.
SUBSYSTEMS = {
    "uhlmann_numeric": ("A", "B", "composite"),
    "uhlmann_closed": ("A", "B"),
    "berry": ("A", "B", "composite"),
    "interferometric": ("A", "B"),
    "concurrence": ("A", "B", "composite"),
    "winding": ("A", "B"),
}
QUANTITIES = tuple(SUBSYSTEMS)
# Quantities whose value is a phase, reported in units of pi.
PHASES = ("uhlmann_closed", "uhlmann_numeric", "berry", "interferometric")

# Per-point failures that become a sweep flag.  A winding has one failure of
# its own: it is ill posed at the transition, where the curve meets the root.
_POINT_FLAGS = {
    DegeneratePhaseError: "vortex",
    DomainBoundaryError: "boundary",
    ConvergenceFailureError: "no-convergence",
}
_WINDING_FLAGS = {IllPosedError: "ill-posed"}

CSV_HEADER = "theta,g,q,j,subsystem,quantity,value_pi,flag"


def _check_quantity(quantity: str, subsystem: str) -> None:
    """Raise ValueError unless quantity is known and defined for subsystem."""
    if quantity not in SUBSYSTEMS:
        raise ValueError(f"unknown quantity {quantity!r}")
    if subsystem not in SUBSYSTEMS[quantity]:
        raise ValueError(
            f"{quantity} is defined for subsystems {', '.join(SUBSYSTEMS[quantity])}, "
            f"not {subsystem!r}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep."""

    theta_range: tuple[float, float, int]
    g_range: tuple[float, float, int]
    q_list: Sequence[float] = (0.0,)
    j: int = 2
    subsystem: str = "A"
    quantity: str = "uhlmann_closed"
    steps: int = holonomy.DEFAULT_STEPS

    def __post_init__(self):
        _check_quantity(self.quantity, self.subsystem)
        for name, (lo, hi, count) in (("theta", self.theta_range), ("g", self.g_range)):
            if count < 2:
                raise ValueError("range counts must be >= 2")
            if not check_param(name, lo) <= check_param(name, hi):
                raise ValueError(f"invalid range ({lo}, {hi})")
        for q in self.q_list:
            check_param("q", q)
        check_param("j", self.j)
        check_param("steps", self.steps)

    def theta_axis(self) -> np.ndarray:
        lo, hi, count = self.theta_range
        return np.linspace(lo, hi, count)

    def g_axis(self) -> np.ndarray:
        lo, hi, count = self.g_range
        return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class SweepRow:
    theta: float | None
    g: float
    q: float
    j: int
    subsystem: str
    quantity: str
    value: float | None
    flag: str = ""


# Points integrated as one batch.  With holonomy.CHUNK_STEPS this bounds the
# connection samples held at once to 513 x 64 matrices, 8.4 MB at d = 4,
# however large the grid.
_BATCH_POINTS = 64


def _numeric_phases(points: Sequence[ModelParams], subsystem: str, steps: int) -> list:
    """Numeric Uhlmann phases of points, one RK4 pass per batch.

    The loops start at the first point's phi0.  Each entry is a phase in
    radians, or the error that flags the point.
    """
    outcomes: list = [None] * len(points)
    rhos, parts, index = [], [], []
    for i, params in enumerate(points):
        try:
            if subsystem == "composite":
                rho0 = states.depolarize(
                    states.pure_density(params.j, params.theta, params.g, params.phi0),
                    params.q,
                )
                part = holonomy.composite_generator(params)
            else:
                part = states.reduce_state(params.j, params.theta, params.g, subsystem,
                                           params.q)
                rho0 = part.matrix(params.phi0)
        except tuple(_POINT_FLAGS) as exc:
            # Without its traceback the stored error keeps no frame alive.
            outcomes[i] = exc.with_traceback(None)
            continue
        rhos.append(rho0)
        parts.append(part)
        index.append(i)
    make_sampler = (holonomy.composite_sampler if subsystem == "composite"
                    else holonomy.reduced_sampler)
    for lo in range(0, len(index), _BATCH_POINTS):
        block = slice(lo, lo + _BATCH_POINTS)
        phases, _ = holonomy.converged_phase(make_sampler(parts[block]), np.stack(rhos[block]),
                                             points[0].phi0, start_steps=steps)
        for i, phase in zip(index[block], phases):
            outcomes[i] = phase if isinstance(phase, Exception) else phase.value
    return outcomes


def _numeric_phase(params: ModelParams, subsystem: str, steps: int) -> float:
    (outcome,) = _numeric_phases([params], subsystem, steps)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# Value of one point: a phase in radians, a concurrence or a winding number.
_VALUES = {
    "uhlmann_numeric": _numeric_phase,
    "uhlmann_closed": lambda p, sub, steps: closed_form.uhlmann_subsystem(p, sub).value,
    "berry": lambda p, sub, steps: closed_form.berry_composite(p.j, p.theta, p.g).value,
    "interferometric": lambda p, sub, steps: closed_form.interferometric_subsystem(p, sub).value,
    "concurrence": lambda p, sub, steps: concurrence_depolarized(
        concurrence_pure(p.j, p.theta, p.g), p.q
    ).value,
    # A winding belongs to the whole theta loop; params.theta is not used.
    "winding": lambda p, sub, steps: float(winding_number(p.g, p.q, sub, j=p.j).winding),
}


def evaluate(
    quantity: str, params: ModelParams, subsystem: str = "A",
    steps: int = holonomy.DEFAULT_STEPS,
) -> float:
    """One point of a quantity: a phase in radians, a concurrence or a winding.

    Raises ValueError for a quantity not defined for the subsystem, and the
    library's domain errors where the point has no value.
    """
    _check_quantity(quantity, subsystem)
    return _VALUES[quantity](params, subsystem, steps)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep grid; per-point failures become flags, never aborts.

    Rows are ordered q-major, then theta, then g, deterministically for a
    fixed spec.  Winding rows carry no theta.
    """
    winding = spec.quantity == "winding"
    flags = _WINDING_FLAGS if winding else _POINT_FLAGS
    unit = math.pi if spec.quantity in PHASES else 1.0
    thetas = [None] if winding else [float(theta) for theta in spec.theta_axis()]
    grid = [(q, theta, float(g)) for q in spec.q_list for theta in thetas
            for g in spec.g_axis()]
    points = (ModelParams(0.0 if theta is None else theta, g, q, spec.j)
              for q, theta, g in grid)
    if spec.quantity == "uhlmann_numeric":
        outcomes = _numeric_phases(list(points), spec.subsystem, spec.steps)
    else:
        # SweepSpec has checked the quantity and subsystem that evaluate checks.
        value_of = _VALUES[spec.quantity]
        outcomes = []
        for params in points:
            try:
                outcomes.append(value_of(params, spec.subsystem, spec.steps))
            except tuple(flags) as exc:
                outcomes.append(exc.with_traceback(None))
    rows = []
    for (q, theta, g), outcome in zip(grid, outcomes):
        if isinstance(outcome, Exception):
            value, flag = None, flags[type(outcome)]
        else:
            value, flag = outcome / unit, ""
        rows.append(SweepRow(theta, g, q, spec.j, spec.subsystem, spec.quantity, value, flag))
    return rows


def write_csv(rows: Iterable[SweepRow], stream: TextIO) -> None:
    """Emit rows as CSV with 12 significant digits and LF line endings."""

    def fmt(x: float | None) -> str:
        return "" if x is None else f"{x:.12g}"

    stream.write(CSV_HEADER + "\n")
    for row in rows:
        stream.write(
            f"{fmt(row.theta)},{fmt(row.g)},{fmt(row.q)},{row.j},"
            f"{row.subsystem},{row.quantity},{fmt(row.value)},{row.flag}\n"
        )


@dataclass
class ValidationReport:
    """Per-point numeric-vs-closed-form error statistics."""

    max_error: float = 0.0
    count: int = 0
    flagged: int = 0
    exceeding: list[tuple[float, float, float, float]] = field(default_factory=list)
    warn_tol: float = 1e-6
    fail_tol: float = 1e-5

    @property
    def failed(self) -> bool:
        return any(err > self.fail_tol for _, _, _, err in self.exceeding)


def cross_validate(spec: SweepSpec) -> ValidationReport:
    """Compare the ODE holonomy phase against the closed form on the grid.

    The points with a closed-form value are integrated together.
    """
    report = ValidationReport()
    points, analytic = [], []
    for q in spec.q_list:
        for theta in spec.theta_axis():
            for g in spec.g_axis():
                params = ModelParams(float(theta), float(g), q, spec.j)
                try:
                    analytic.append(evaluate("uhlmann_closed", params, spec.subsystem))
                except tuple(_POINT_FLAGS):
                    report.flagged += 1
                    continue
                points.append(params)
    numeric = _numeric_phases(points, spec.subsystem, spec.steps)
    for params, closed, value in zip(points, analytic, numeric):
        if isinstance(value, Exception):
            report.flagged += 1
            continue
        err = abs(closed_form.wrap_angle(value - closed))
        report.count += 1
        report.max_error = max(report.max_error, err)
        if err > report.warn_tol:
            report.exceeding.append((params.theta, params.g, params.q, err))
    return report
