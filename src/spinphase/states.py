"""Composite density matrices, depolarization, and reduced qubit states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import check_param, eigenstate, eigenvector_components

# Coherences below this magnitude count as zero: the level Berry phases are
# then undefined and the interferometric phase is defined as 0.
C_TRIVIAL = 1e-14


def pure_density(j: int, theta: float, g: float, phi: float) -> np.ndarray:
    """Rank-1 projector onto the j-th composite eigenstate."""
    v = eigenstate(j, theta, g, phi)
    return np.outer(v, v.conj())


def depolarize(rho: np.ndarray, q: float) -> np.ndarray:
    """Mix rho with the maximally mixed state: (q/4) I + (1-q) rho."""
    q = check_param("q", q)
    rho = np.asarray(rho, dtype=complex)
    return (q / 4.0) * np.eye(4) + (1.0 - q) * rho


@dataclass(frozen=True)
class QubitState:
    """Reduced 2x2 state in the (a, c) parametrization.

    The diagonal is (a, 1 - a) and the off-diagonal entry at loop angle phi is
    c e^{-i phi}; a, c are real and independent of phi.  Every subsystem
    quantity is a direct expression in them, through the Bloch length
    |n| = sqrt((1 - 2a)^2 + 4c^2) and the eigenvalues p1 <= p2.
    """

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise ValueError("coefficients must be finite")

    @property
    def bloch_length(self) -> float:
        """|n| = p2 - p1."""
        return math.sqrt((1.0 - 2.0 * self.a) ** 2 + 4.0 * self.c * self.c)

    @property
    def p1(self) -> float:
        return (1.0 - self.bloch_length) / 2.0

    @property
    def p2(self) -> float:
        return (1.0 + self.bloch_length) / 2.0

    @property
    def trivial(self) -> bool:
        """True when the coherence vanishes and the level phases are undefined."""
        return abs(self.c) < C_TRIVIAL

    def matrix(self, phi: float) -> np.ndarray:
        """Reconstruct the 2x2 density matrix at loop angle phi."""
        off = self.c * np.exp(-1j * phi)
        return np.array([[self.a, off], [np.conj(off), 1.0 - self.a]])


def reduce_state(j: int, theta: float, g: float, subsystem: str, q: float = 0.0) -> QubitState:
    """Reduced state of subsystem A or B for the depolarized j-th eigenstate.

    Depolarization maps the coefficients to a -> q/2 + (1-q) a and
    c -> (1-q) c.  They are phi-independent; for subsystem B they refer to the
    reduced matrix written in reversed basis order, which leaves every derived
    phase unchanged.
    """
    q = check_param("q", q)
    u1, u2, u3, u4, norm = eigenvector_components(j, theta, g)
    if subsystem == "A":
        a = (u1 * u1 + u2 * u2) / norm
        c = (u1 * u3 + u2 * u4) / norm
    elif subsystem == "B":
        a = (u1 * u1 + u3 * u3) / norm
        c = (u1 * u2 + u3 * u4) / norm
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return QubitState(q / 2.0 + (1.0 - q) * a, (1.0 - q) * c)


def bloch(qs: QubitState, phi: float) -> tuple[np.ndarray, float]:
    """Bloch vector (2c cos phi, -2c sin phi, 2a - 1) of the reduced state and its norm.

    The norm equals p2 - p1; its square is (1-q)^2 [1 - C^2] in terms of the
    pure-state concurrence of the composite.
    """
    n = np.array([2.0 * qs.c * math.cos(phi), -2.0 * qs.c * math.sin(phi), 2.0 * qs.a - 1.0])
    return n, qs.bloch_length
