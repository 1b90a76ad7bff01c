"""Concurrence of the composite state and the transition predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfTransitionRangeError
from .spin_model import check_param, eigenvector_components

G_CRITICAL_PURE = 2.0 / math.sqrt(3.0)
# Largest depolarization strength that still admits a transition.
Q_TRANSITION_MAX = 1.0 - math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class ConcurrenceValue:
    value: float

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"concurrence out of [0, 1]: {self.value}")


def concurrence_pure(j: int, theta: float, g: float) -> ConcurrenceValue:
    """Concurrence of the j-th eigenstate, 2 |u2 u3 - u1 u4| / N.

    For a pure state a|+-> + b|++> + c|--> + d|-+> the concurrence is
    2 |b c - a d|; the phases e^{-+i phi} of u1 and u4 cancel in the product.
    """
    u1, u2, u3, u4, norm = eigenvector_components(j, theta, g)
    return ConcurrenceValue(min(2.0 * abs(u2 * u3 - u1 * u4) / norm, 1.0))


def concurrence_equator(g: float) -> ConcurrenceValue:
    """Concurrence shared by all four eigenstates at theta = pi/2: g / sqrt(g^2 + 4)."""
    g = check_param("g", g)
    return ConcurrenceValue(g / math.sqrt(g * g + 4.0))


def concurrence_depolarized(c_pure: ConcurrenceValue | float, q: float) -> ConcurrenceValue:
    """Concurrence after depolarization: max{0, (1-q) C - q/2}."""
    c = c_pure.value if isinstance(c_pure, ConcurrenceValue) else float(c_pure)
    q = check_param("q", q)
    return ConcurrenceValue(max(0.0, (1.0 - q) * c - q / 2.0))


def critical_coupling(q: float) -> float:
    """Coupling where the equator phase transition sits: g_c sqrt(4q^2 - 8q + 1)."""
    q = check_param("q", q)
    if q > Q_TRANSITION_MAX:
        raise OutOfTransitionRangeError(
            f"no transition for q = {q:g} > {Q_TRANSITION_MAX:.6f}"
        )
    return G_CRITICAL_PURE * math.sqrt(max(4.0 * q * q - 8.0 * q + 1.0, 0.0))


def transition_concurrence(q: float) -> ConcurrenceValue:
    """Depolarized concurrence right at the transition: max{0, (g_dc/g_c - q)/2}."""
    gdc = critical_coupling(q)
    value = max(0.0, (gdc / G_CRITICAL_PURE - q) / 2.0)
    return ConcurrenceValue(value)
