"""Composite density matrices, depolarization, and reduced qubit states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import check_param, eigenstate, eigenvector_components

# Coherences below this magnitude are treated as zero and routed to the
# trivial-holonomy path.
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
    """Reduced 2x2 state in the (a, c) parametrization, with its eigensystem.

    The off-diagonal entry at loop angle phi is c e^{-i phi}; a, c are real and
    independent of phi.  p1 <= p2 are the eigenvalues, beta/eignorm the
    eigenvector data, delta = (2a - 1)/(2c) (None when c = 0).
    """

    a: float
    c: float
    subsystem: str
    p1: float
    p2: float
    beta1: float
    beta2: float
    n1: float
    n2: float
    delta: float | None

    @classmethod
    def from_coefficients(cls, a: float, c: float, subsystem: str) -> "QubitState":
        if subsystem not in ("A", "B"):
            raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
        if not (math.isfinite(a) and math.isfinite(c)):
            raise ValueError("coefficients must be finite")
        s = math.sqrt((1.0 - 2.0 * a) ** 2 + 4.0 * c * c)
        p1, p2 = (1.0 - s) / 2.0, (1.0 + s) / 2.0
        if abs(c) < C_TRIVIAL:
            beta1 = beta2 = 0.0
            n1 = n2 = 1.0
            delta = None
        else:
            # p1 - a and p2 - a are (x -+ s)/2 with x = 1 - 2a; the one whose
            # terms share the sign of x cannot cancel, and their product is
            # -c^2, so the other follows without a cancelling subtraction.
            if a <= 0.5:
                beta2 = c / (p2 - a)
                beta1 = -(p2 - a) / c
            else:
                beta1 = c / (p1 - a)
                beta2 = -(p1 - a) / c
            n1 = beta1 * beta1 + 1.0
            n2 = beta2 * beta2 + 1.0
            delta = (2.0 * a - 1.0) / (2.0 * c)
        return cls(a, c, subsystem, p1, p2, beta1, beta2, n1, n2, delta)

    @property
    def trivial(self) -> bool:
        """True when the coherence vanishes and the holonomy is the identity."""
        return self.delta is None

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
    return QubitState.from_coefficients(q / 2.0 + (1.0 - q) * a, (1.0 - q) * c, subsystem)


def bloch(qs: QubitState, phi: float) -> tuple[np.ndarray, float]:
    """Bloch vector of the reduced state at phi and its norm.

    The norm equals p2 - p1; its square is (1-q)^2 [1 - C^2] in terms of the
    pure-state concurrence of the composite.
    """
    if qs.delta is None:
        n = np.array([0.0, 0.0, 2.0 * qs.a - 1.0])
    else:
        n = 2.0 * qs.c * np.array([math.cos(phi), -math.sin(phi), qs.delta])
    return n, float(np.linalg.norm(n))
