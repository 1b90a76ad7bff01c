"""Numerical Uhlmann holonomy of a batch of loops: dense states, connection
samples and path-ordered evolution.

This is the library's numpy layer.  The closed forms work on the real
eigenvector components and the (a, c) numbers of a reduced state; the complex
eigenvectors, density matrices and Pauli matrices exist only here, for the
numeric phase.

The connection generally does not commute with itself along the loop, so the
evolution operator is integrated with a fixed-step classical 4th-order scheme;
a step-doubling pass controls convergence of each point's phase.  No
exponential-of-integral shortcut is used outside the phi-independent equator
case, where the dense matrix exponential doubles as an oracle in the tests.

The unit of work is a batch of P points.  Each RK4 step advances a (P, d, d)
stack of evolution operators with stacked matrix products, operation for
operation as one point at a time, so every point gets the same bits.  The
connection is sampled CHUNK_STEPS steps at a time: memory grows with P, not
with the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .closed_form import PhaseValue, wrap_angle
from .errors import ConvergenceFailureError, DegeneratePhaseError
from .spin_model import (
    DEFAULT_STEPS, MAX_STEPS, ModelParams, check_param, eigenvector_components,
)
from .states import QubitState

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

PHASE_TOL = 1e-8
# Steps integrated from one array of connection samples: at most
# 2 CHUNK_STEPS + 1 samples of P d x d matrices exist at once.
CHUNK_STEPS = 256

# Maps n loop angles to the (n, P, d, d) connections of a batch of P points.
Sampler = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Holonomy:
    """Evolution operators of a batch of loops with integration diagnostics.

    V has shape (P, d, d) and unitarity_defect shape (P,); steps is the step
    count of the integration.
    """

    V: np.ndarray
    steps: int
    unitarity_defect: np.ndarray


def eigenstate(j: int, theta: float, g: float, phi: float) -> np.ndarray:
    """Normalized eigenstate N^{-1/2} [u1 e^{-i phi}, u2, u3, u4 e^{i phi}]."""
    phi = check_param("phi", phi)
    u1, u2, u3, u4, norm = eigenvector_components(j, theta, g)
    vec = np.array(
        [u1 * np.exp(-1j * phi), u2, u3, u4 * np.exp(1j * phi)], dtype=complex
    )
    return vec / math.sqrt(norm)


def eigenbasis(theta: float, g: float, phi: float) -> np.ndarray:
    """4x4 matrix whose columns are the four eigenstates at phi."""
    return np.column_stack([eigenstate(j, theta, g, phi) for j in (1, 2, 3, 4)])


def pure_density(j: int, theta: float, g: float, phi: float) -> np.ndarray:
    """Rank-1 projector onto the j-th composite eigenstate."""
    v = eigenstate(j, theta, g, phi)
    return np.outer(v, v.conj())


def depolarize(rho: np.ndarray, q: float) -> np.ndarray:
    """Mix rho with the maximally mixed state: (q/4) I + (1-q) rho."""
    q = check_param("q", q)
    rho = np.asarray(rho, dtype=complex)
    return (q / 4.0) * np.eye(4) + (1.0 - q) * rho


def qubit_matrix(qs: QubitState, phi: float) -> np.ndarray:
    """The 2x2 density matrix of a reduced state at loop angle phi."""
    off = qs.c * np.exp(-1j * phi)
    return np.array([[qs.a, off], [np.conj(off), 1.0 - qs.a]])


def depolarized_spectrum(j: int, q: float) -> np.ndarray:
    """Eigenvalues q/4 + (1-q) delta_{k,j} of the depolarized composite state."""
    p = np.full(4, q / 4.0)
    p[j - 1] += 1.0 - q
    return p


def composite_generator(params: ModelParams) -> np.ndarray:
    """Connection of one depolarized composite state at phi = 0.

    Built from the closed-form eigenbasis: W (i M) W^dagger with M the real
    symmetric overlap-derivative matrix and weights
    (sqrt(p_k) - sqrt(p_i))^2 / (p_k + p_i).  Raises DomainBoundaryError on
    the poles at g = 0, where the eigenbasis is not fixed, and where an
    eigenvector norm underflows.
    """
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


def composite_sampler(generators: Sequence[np.ndarray]) -> Sampler:
    """Uhlmann connections A(phi) of a batch of depolarized composite states.

    generators holds one composite_generator per point; the connection at phi
    is A(0) with entry (i, k) turned by e^{i (chi_i - chi_k) phi}.
    """
    a0 = np.stack(generators)
    winding = np.subtract.outer(_CHI, _CHI)

    def sample(phis: np.ndarray) -> np.ndarray:
        turn = np.exp(1j * winding[None] * phis[:, None, None])
        return a0[None] * turn[:, None]

    return sample


def reduced_sampler(states: Sequence[QubitState]) -> Sampler:
    """Reduced-state Uhlmann connections of a batch of qubit states.

    A(phi) = -i k [c^2 sigma_z - c (a - 1/2)(cos phi sigma_x + sin phi sigma_y)]
    with k = 2 / (1 + 2 sqrt(det rho)); it vanishes with c.
    """
    diag, off = [], []
    for qs in states:
        k = 2.0 / (1.0 + 2.0 * math.sqrt(max(qs.a * (1.0 - qs.a) - qs.c * qs.c, 0.0)))
        diag.append(-1j * k * qs.c * qs.c * PAULI[2])
        off.append(1j * k * qs.c * (qs.a - 0.5))
    diag = np.stack(diag)[None]
    off = np.array(off)[None, :, None, None]

    def sample(phis: np.ndarray) -> np.ndarray:
        turn = (np.cos(phis)[:, None, None] * PAULI[0][None]
                + np.sin(phis)[:, None, None] * PAULI[1][None])
        return diag + off * turn[:, None]

    return sample


def _rk4(samples: np.ndarray, h: float, v: np.ndarray) -> None:
    """RK4 steps of a (P, d, d) stack over connection samples on the half-step grid.

    Each step is v + (h/6)(k1 + 2 k2 + 2 k3 + k4) with k1 = A0 v,
    k2 = A1 (v + (h/2) k1), k3 = A1 (v + (h/2) k2), k4 = A2 (v + h k3),
    evaluated in that order into preallocated buffers; v is updated in place.
    """
    matmul, multiply, add = np.matmul, np.multiply, np.add
    half, sixth = 0.5 * h, h / 6.0
    k1, k4, w = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    # k2 and k3 share one buffer, so that one product doubles both.
    k23 = np.empty((2,) + v.shape, dtype=v.dtype)
    k2, k3 = k23
    even, odd = samples[0::2], samples[1::2]
    for a0, a1, a2 in zip(even, odd, even[1:]):
        matmul(a0, v, out=k1)
        add(v, multiply(half, k1, out=w), out=w)
        matmul(a1, w, out=k2)
        add(v, multiply(half, k2, out=w), out=w)
        matmul(a1, w, out=k3)
        add(v, multiply(h, k3, out=w), out=w)
        matmul(a2, w, out=k4)
        multiply(2.0, k23, out=k23)
        add(add(add(k1, k2, out=k1), k3, out=k1), k4, out=k1)
        add(v, multiply(sixth, k1, out=k1), out=v)


def integrate_holonomy(
    sampler: Sampler, phi0: float = 0.0, steps: int = DEFAULT_STEPS
) -> Holonomy:
    """Integrate dV/dphi = A(phi) V over one loop for each point, fixed-step RK4.

    The result is never re-unitarized; the departure from unitarity is
    reported as a diagnostic.
    """
    if steps < 16:
        raise ValueError(f"steps must be >= 16, got {steps}")
    h = 2.0 * math.pi / steps
    v = None
    for start in range(0, steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, steps)
        samples = sampler(phi0 + 0.5 * h * np.arange(2 * start, 2 * stop + 1))
        if v is None:
            eye = np.eye(samples.shape[-1], dtype=complex)
            v = np.broadcast_to(eye, samples.shape[1:]).copy()
        _rk4(samples, h, v)
    gram = np.swapaxes(v, 1, 2).conj() @ v
    defect = np.abs(gram - np.eye(v.shape[-1])).max(axis=(1, 2))
    return Holonomy(v, steps, defect)


def uhlmann_phase(rho0: np.ndarray, v: np.ndarray) -> PhaseValue:
    """Arg Tr[rho0 V] of one point, with the visibility |Tr[rho0 V]| attached."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != v.shape:
        raise ValueError(f"dimension mismatch: rho0 {rho0.shape} vs V {v.shape}")
    tr = complex(np.trace(rho0 @ v))
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
) -> tuple[list[PhaseValue | DegeneratePhaseError | ConvergenceFailureError], Holonomy]:
    """Integrate a batch with step doubling until each phase is stable within tol.

    rho0 holds the P initial d x d states of the sampler's points.  Each
    point runs its own doubling sequence: its outcome is the phase of the first
    doubling that moves it by less than tol, a DegeneratePhaseError where its
    trace vanishes, or a ConvergenceFailureError past MAX_STEPS.  A point
    leaves the batch once it has an outcome.  Returns the outcomes and the
    holonomy each point ended at; its steps is the count of the last
    integration.

    start_steps must lie in [16, MAX_STEPS // 2], so that at least one
    doubling can confirm the first integration.
    """
    steps = check_param("steps", start_steps)
    rho0 = np.asarray(rho0, dtype=complex)
    outcomes: list = [None] * len(rho0)
    phases: list[PhaseValue | None] = [None] * len(rho0)
    ended = np.empty_like(rho0)
    defects = np.empty(len(rho0))
    active = np.arange(len(rho0))
    batch = sampler
    while True:
        hol = integrate_holonomy(batch, phi0, steps)
        ended[active], defects[active] = hol.V, hol.unitarity_defect
        pending = []
        for k, i in enumerate(active):
            try:
                phase = uhlmann_phase(rho0[i], hol.V[k])
            except DegeneratePhaseError as exc:
                # Stored with its traceback, the error and this frame would
                # keep each other, and the batch, alive until a cyclic GC.
                outcomes[i] = exc.with_traceback(None)
                continue
            if phases[i] is not None and abs(wrap_angle(phase.value - phases[i].value)) < tol:
                outcomes[i] = phase
            else:
                phases[i] = phase
                pending.append(k)
        active = active[pending]
        if not len(active) or steps > MAX_STEPS // 2:
            break
        steps *= 2

        def batch(phis, rows=active):
            return sampler(phis)[:, rows]

    for i in active:
        outcomes[i] = ConvergenceFailureError(
            f"phase not stable within {tol:g} up to {MAX_STEPS} steps"
        )
    return outcomes, Holonomy(ended, steps, defects)
