"""Numerical Uhlmann holonomy: connection samples and path-ordered evolution.

The connection generally does not commute with itself along the loop, so the
evolution operator is integrated with a fixed-step classical 4th-order scheme;
a step-doubling pass controls convergence of the final phase.  No
exponential-of-integral shortcut is used outside the phi-independent equator
case, where the dense matrix exponential doubles as an oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_form import PhaseValue, wrap_angle
from .errors import ConvergenceFailureError, DegeneratePhaseError
from .spin_model import (
    MAX_STEPS, PAULI, ModelParams, check_param, eigenbasis, eigenvector_components,
)
from .states import QubitState

DEFAULT_STEPS = 2000
PHASE_TOL = 1e-8

Sampler = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Holonomy:
    """Evolution operator around the loop with integration diagnostics."""

    V: np.ndarray
    steps: int
    unitarity_defect: float


def depolarized_spectrum(j: int, q: float) -> np.ndarray:
    """Eigenvalues q/4 + (1-q) delta_{k,j} of the depolarized composite state."""
    p = np.full(4, q / 4.0)
    p[j - 1] += 1.0 - q
    return p


def _composite_generator(params: ModelParams) -> np.ndarray:
    """Connection of the depolarized composite state at phi = 0."""
    spectrum = [eigenvector_components(j, params.theta, params.g) for j in (1, 2, 3, 4)]
    u = np.array([c[:4] for c in spectrum])
    norms = np.array([c[4] for c in spectrum])
    # <u_i | d_phi u_j> = i M_ij with M real symmetric.
    m = (np.outer(u[:, 3], u[:, 3]) - np.outer(u[:, 0], u[:, 0])) / np.sqrt(
        np.outer(norms, norms)
    )
    p = depolarized_spectrum(params.j, params.q)
    psum = p[:, None] + p[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.sqrt(p)[None, :] - np.sqrt(p)[:, None]) ** 2 / psum
    w[psum < 1e-300] = 0.0
    np.fill_diagonal(w, 0.0)
    basis = eigenbasis(params.theta, params.g, 0.0)
    return basis @ (1j * w * m) @ basis.conj().T


# Diagonal phase winding of the eigenstates: component 1 carries e^{-i phi},
# component 4 carries e^{+i phi}.
_CHI = np.array([-1.0, 0.0, 0.0, 1.0])


def composite_sampler(params: ModelParams) -> Sampler:
    """Uhlmann connection A(phi) of the depolarized composite state, for arrays of phi.

    Built from the closed-form eigenbasis: the generator is
    W (i M) W^dagger with M the real symmetric overlap-derivative matrix and
    weights (sqrt(p_k) - sqrt(p_i))^2 / (p_k + p_i).
    """
    a0 = _composite_generator(params)
    winding = np.subtract.outer(_CHI, _CHI)

    def sample(phis: np.ndarray) -> np.ndarray:
        return a0[None] * np.exp(1j * winding[None] * phis[:, None, None])

    return sample


def reduced_sampler(qs: QubitState) -> Sampler:
    """Reduced-state Uhlmann connection, for arrays of phi.

    A(phi) = -i k [c^2 sigma_z - c (a - 1/2)(cos phi sigma_x + sin phi sigma_y)]
    with k = 2 / (1 + 2 sqrt(det rho)); it vanishes with c.
    """
    k = 2.0 / (1.0 + 2.0 * math.sqrt(max(qs.a * (1.0 - qs.a) - qs.c * qs.c, 0.0)))
    diag = -1j * k * qs.c * qs.c * PAULI[2]
    off = 1j * k * qs.c * (qs.a - 0.5)

    def sample(phis: np.ndarray) -> np.ndarray:
        return diag[None] + off * (
            np.cos(phis)[:, None, None] * PAULI[0][None]
            + np.sin(phis)[:, None, None] * PAULI[1][None]
        )

    return sample


def _integrate_samples(samples: np.ndarray, h: float) -> np.ndarray:
    """RK4 over precomputed connection samples on the half-step grid."""
    dim = samples.shape[-1]
    v = np.eye(dim, dtype=complex)
    steps = (samples.shape[0] - 1) // 2
    for n in range(steps):
        a0 = samples[2 * n]
        a1 = samples[2 * n + 1]
        a2 = samples[2 * n + 2]
        k1 = a0 @ v
        k2 = a1 @ (v + 0.5 * h * k1)
        k3 = a1 @ (v + 0.5 * h * k2)
        k4 = a2 @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def integrate_holonomy(
    sampler: Sampler, phi0: float = 0.0, steps: int = DEFAULT_STEPS
) -> Holonomy:
    """Integrate dV/dphi = A(phi) V over one loop with fixed-step RK4.

    The result is never re-unitarized; the departure from unitarity is
    reported as a diagnostic.
    """
    if steps < 16:
        raise ValueError(f"steps must be >= 16, got {steps}")
    h = 2.0 * math.pi / steps
    phis = phi0 + 0.5 * h * np.arange(2 * steps + 1)
    samples = sampler(phis)
    v = _integrate_samples(samples, h)
    defect = float(np.abs(v.conj().T @ v - np.eye(v.shape[0])).max())
    return Holonomy(v, steps, defect)


def uhlmann_phase(rho0: np.ndarray, holonomy: Holonomy) -> PhaseValue:
    """Arg Tr[rho0 V], with the visibility |Tr[rho0 V]| attached."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != holonomy.V.shape:
        raise ValueError(
            f"dimension mismatch: rho0 {rho0.shape} vs V {holonomy.V.shape}"
        )
    tr = complex(np.trace(rho0 @ holonomy.V))
    if abs(tr) < 1e-12:
        raise DegeneratePhaseError(
            f"|Tr[rho0 V]| = {abs(tr):.3e}: phase undefined (vortex)"
        )
    return PhaseValue(float(np.angle(tr)), magnitude=abs(tr))


def converged_phase(
    sampler: Sampler,
    rho0: np.ndarray,
    phi0: float = 0.0,
    start_steps: int = 512,
    tol: float = PHASE_TOL,
) -> tuple[PhaseValue, Holonomy]:
    """Integrate with step doubling until the phase is stable within tol.

    start_steps must lie in [16, MAX_STEPS // 2], so that at least one
    doubling can confirm the first integration.
    """
    steps = check_param("steps", start_steps)
    hol = integrate_holonomy(sampler, phi0, steps)
    phase = uhlmann_phase(rho0, hol)
    while steps <= MAX_STEPS // 2:
        steps *= 2
        hol_next = integrate_holonomy(sampler, phi0, steps)
        phase_next = uhlmann_phase(rho0, hol_next)
        if abs(wrap_angle(phase_next.value - phase.value)) < tol:
            return phase_next, hol_next
        hol, phase = hol_next, phase_next
    raise ConvergenceFailureError(
        f"phase not stable within {tol:g} up to {MAX_STEPS} steps"
    )
