"""Concurrence of the composite state and the transition predictions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfTransitionRangeError
from .spin_model import check_param
from .states import QubitState, validate_density

G_CRITICAL_PURE = 2.0 / math.sqrt(3.0)
# Largest depolarization strength that still admits a transition.
Q_TRANSITION_MAX = 1.0 - math.sqrt(3.0) / 2.0

_SYSY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


@dataclass(frozen=True)
class ConcurrenceValue:
    value: float
    method: str

    def __post_init__(self):
        if not -1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"concurrence out of [0, 1]: {self.value}")


def concurrence_wootters(rho: np.ndarray) -> ConcurrenceValue:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} from the spin-flipped state."""
    rho = validate_density(rho)
    # The lambda_i (square roots of the rho rho_flipped spectrum) equal the
    # singular values of sqrt(rho) Y conj(sqrt(rho)) with Y = sigma_y x
    # sigma_y; the SVD route avoids the sqrt amplification of eigenvalue
    # rounding.  Rank-deficient directions are clamped to exact zero.
    w, v = np.linalg.eigh(rho)
    w = np.where(w < 1e-14, 0.0, w)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    ev = np.linalg.svd(sqrt_rho @ _SYSY @ sqrt_rho.conj(), compute_uv=False)
    ev = np.sort(ev)
    value = max(0.0, ev[3] - ev[2] - ev[1] - ev[0])
    return ConcurrenceValue(min(value, 1.0), "wootters")


def concurrence_pure_from_subsystem(qs: QubitState) -> ConcurrenceValue:
    """Concurrence of a pure composite state from its subsystem purity: 2 sqrt(p1 p2)."""
    if qs.q > 0.0:
        raise ValueError(
            "subsystem-purity concurrence only applies to pure composite states "
            f"(coefficients carry q = {qs.q:g})"
        )
    det = max(qs.p1 * qs.p2, 0.0)
    return ConcurrenceValue(min(2.0 * math.sqrt(det), 1.0), "purity")


def concurrence_equator(g: float) -> ConcurrenceValue:
    """Concurrence shared by all four eigenstates at theta = pi/2: g / sqrt(g^2 + 4)."""
    g = check_param("g", g)
    return ConcurrenceValue(g / math.sqrt(g * g + 4.0), "equator")


def concurrence_depolarized(c_pure: ConcurrenceValue | float, q: float) -> ConcurrenceValue:
    """Concurrence after depolarization: max{0, (1-q) C - q/2}."""
    c = c_pure.value if isinstance(c_pure, ConcurrenceValue) else float(c_pure)
    q = check_param("q", q)
    return ConcurrenceValue(max(0.0, (1.0 - q) * c - q / 2.0), "depolarized-relation")


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
    return ConcurrenceValue(value, "depolarized-relation")
