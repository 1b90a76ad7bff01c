"""Analytic geometric-phase formulas: Berry, Uhlmann and interferometric.

Every subsystem phase is a direct expression in the two numbers (a, c) of the
reduced state; only final outputs are reduced to the principal branch
(-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePhaseError
from .spin_model import ModelParams, check_param, eigenvector_components
from .states import QubitState, reduce_state

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    return x - _TWO_PI * math.ceil((x - math.pi) / _TWO_PI)


@dataclass(frozen=True)
class PhaseValue:
    """An angle on the principal branch, with optional diagnostics.

    unwrapped keeps the raw accumulated value when it differs from the wrapped
    one; magnitude is the visibility |Tr[rho V]| for holonomy phases; trivial
    marks phases defined as zero because the connection vanishes identically.
    """

    value: float
    unwrapped: float | None = None
    magnitude: float | None = None
    trivial: bool = False

    def __post_init__(self):
        if not -math.pi - 1e-12 < self.value <= math.pi + 1e-12:
            raise ValueError(f"phase {self.value} outside (-pi, pi]")

    def in_units_of_pi(self) -> float:
        return self.value / math.pi


def berry_composite(j: int, theta: float, g: float) -> PhaseValue:
    """Berry phase of the j-th composite eigenstate: (2 pi / N)(u1^2 - u4^2)."""
    u1, _, _, u4, norm = eigenvector_components(j, theta, g)
    raw = _TWO_PI * (u1 * u1 - u4 * u4) / norm
    return PhaseValue(wrap_angle(raw), unwrapped=raw)


def berry_qubit_levels(qs: QubitState) -> tuple[float, float]:
    """Berry phases pi (1 -+ x) of the two subsystem levels, x = (2a - 1)/|n|."""
    if qs.trivial:
        raise ValueError("level Berry phases undefined for a diagonal reduced state")
    x = (2.0 * qs.a - 1.0) / qs.bloch_length
    return (math.pi * (1.0 - x), math.pi * (1.0 + x))


def mean_berry(qs: QubitState) -> float:
    """Probability-weighted level Berry phase sum p1 gamma1 + p2 gamma2 = 2 pi a."""
    return _TWO_PI * qs.a


def _phase_from_parts(re: float, im: float) -> PhaseValue:
    if abs(re) < 1e-14 and abs(im) < 1e-14:
        raise DegeneratePhaseError("phase argument vanishes (vortex point)")
    # A negligible imaginary part is rounding noise (e.g. exactly on the
    # equator); take the Arg of the real axis so the step function is exact.
    if abs(im) < 1e-13 * max(abs(re), 1.0):
        return PhaseValue(math.pi if re < 0.0 else 0.0)
    value = math.atan2(im, re)
    if value <= -math.pi:
        value = math.pi
    return PhaseValue(value)


def _two_z(qs: QubitState) -> tuple[float, float]:
    """Real and imaginary parts of 2 z for a reduced state.

    The level phases pi (1 -+ x) and the Bloch length |n| enter the Uhlmann
    formula as g1 g2 |n|^2 / pi^2 = 4 c^2 and |n| (g2 - g1)/2 = pi (2a - 1), so
    2 z = cos(pi r) + i pi (2a - 1) sin(pi r)/(pi r) with r^2 = 1 - 4 c^2;
    depolarization acts only through the state.  At c = 0, -2 z = 1.
    """
    r = math.sqrt(max(1.0 - 4.0 * qs.c * qs.c, 0.0))
    # sinc(r) = sin(pi r)/(pi r), with r = 1e-20 standing in for r = 0 as in
    # np.sinc, which gives the same bits at ~20x the cost on a float.
    y = math.pi * (r or 1e-20)
    return math.cos(math.pi * r), math.pi * (2.0 * qs.a - 1.0) * (math.sin(y) / y)


def uhlmann_subsystem(params: ModelParams, subsystem: str) -> PhaseValue:
    """Exact subsystem Uhlmann phase Arg{-2 z}, depolarized or pure (q = 0)."""
    re, im = _two_z(reduce_state(params.j, params.theta, params.g, subsystem, params.q))
    return _phase_from_parts(-re, -im)


def equator_r(c: float, q: float) -> float:
    """The r factor at the equator: r^2 = 1 - (1-q)^2 (1 - C^2) for pure-state concurrence C."""
    return math.sqrt(max(1.0 - (1.0 - q) ** 2 * (1.0 - c * c), 0.0))


def uhlmann_equator(concurrence: float, q: float = 0.0) -> PhaseValue:
    """Equator (theta = pi/2) Uhlmann phase: Arg{-cos(pi r)} with r^2 = 1 - (1-q)^2 (1 - C^2)."""
    c = float(getattr(concurrence, "value", concurrence))
    q = check_param("q", q)
    r = equator_r(c, q)
    x = -math.cos(math.pi * r)
    if abs(x) < 1e-12:
        raise DegeneratePhaseError(f"equator phase node at r = {r:g}")
    return PhaseValue(math.pi if x < 0.0 else 0.0)


def interferometric_subsystem(params: ModelParams, subsystem: str) -> PhaseValue:
    """Interferometric phase Arg{p1 e^{i g1} + p2 e^{i g2}} of a subsystem.

    With the level phases pi (1 -+ x) the sum is -cos(pi x) - i |n| sin(pi x),
    and x does not depend on q.  A reduced state without coherence (|c| below
    C_TRIVIAL, as at q = 1) has no level phases; its phase is defined as 0.
    """
    qs = reduce_state(params.j, params.theta, params.g, subsystem, params.q)
    if qs.trivial:
        return PhaseValue(0.0, trivial=True)
    n = qs.bloch_length
    pi_x = math.pi * (2.0 * qs.a - 1.0) / n
    re, im = -math.cos(pi_x), -n * math.sin(pi_x)
    if math.hypot(re, im) < 1e-12:
        raise DegeneratePhaseError("weighted phase factors cancel")
    return _phase_from_parts(re, im)
