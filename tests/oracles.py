"""Independent brute-force oracles used to check the closed-form routes."""

import math

import numpy as np

from spinphase import (
    ConcurrenceValue,
    ConvergenceFailureError,
    DegeneratePhaseError,
    GridTooCoarseError,
    ModelParams,
    VortexHit,
    composite_generator,
    reduce_state,
    uhlmann_phase,
    wrap_angle,
)
from spinphase.closed_form import _phase_from_parts, _two_z
from spinphase.holonomy import PHASE_TOL
from spinphase.spin_model import MAX_STEPS, PAULI

# Permutation between the library basis {+-, ++, --, -+} and the standard
# tensor order {++, +-, -+, --}.
TO_STANDARD = np.array([1, 0, 3, 2])
# sigma_y x sigma_y, the two-qubit spin flip.
_SYSY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def validate_density(rho, tol=1e-10):
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def concurrence_wootters(rho):
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4} from the spin-flipped state.

    Wootters, PRL 80, 2245 (1998); valid for any two-qubit density matrix.
    """
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


def partial_trace_standard(rho, keep):
    """Partial trace of a 4x4 state given in the library basis ordering."""
    r = rho[np.ix_(TO_STANDARD, TO_STANDARD)]
    t = r.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    return np.einsum("kikj->ij", t)


def berry_quadrature(state_fn, points=10_000, step=1e-6):
    """Loop integral of <u| i d_phi u> by trapezoid + central differences."""
    phis = np.linspace(0.0, 2.0 * np.pi, points + 1)
    vals = np.empty(points + 1)
    for k, phi in enumerate(phis):
        up = state_fn(phi + step)
        um = state_fn(phi - step)
        du = (up - um) / (2.0 * step)
        vals[k] = np.real(1j * np.vdot(state_fn(phi), du))
    # numpy >= 2.0 names it trapezoid; numpy 2.4 no longer has trapz.
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return float(trapezoid(vals, phis))


def connection_commutator(sqrt_rho_fn, eigvecs, eigvals, phi, step=1e-6):
    """Uhlmann connection from the commutator form, by finite differences.

    sqrt_rho_fn(phi) must return the matrix square root of the state;
    eigvecs columns and eigvals describe the state's eigensystem at phi.
    """
    s0 = sqrt_rho_fn(phi)
    ds = (sqrt_rho_fn(phi + step) - sqrt_rho_fn(phi - step)) / (2.0 * step)
    comm = ds @ s0 - s0 @ ds
    dim = len(eigvals)
    a = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            denom = eigvals[i] + eigvals[j]
            if denom < 1e-14:
                continue
            elem = eigvecs[:, i].conj() @ comm @ eigvecs[:, j] / denom
            a += elem * np.outer(eigvecs[:, i], eigvecs[:, j].conj())
    return a


def z_point(params, subsystem):
    """Argument z of the degree-one Chebyshev form of the Uhlmann phase.

    The subsystem phase is Arg{-2 z}.  For q > 0, z is that of the
    depolarized reduced state (an extension; the source analysis draws the
    curve for q = 0 only).
    """
    re, im = _two_z(reduce_state(params.j, params.theta, params.g, subsystem, params.q))
    return 0.5 * (re + 1j * im)


def levels_eigh(qs):
    """Spectrum p1 <= p2 and level Berry phases of a reduced state, from a dense solver.

    rho(phi) = U rho(0) U^dagger with U = diag(e^{-i phi}, 1), so U w is an
    eigenvector at phi for each eigenvector w at 0; in that single-valued
    gauge the loop integral of <w| i d_phi w> is 2 pi |w_1|^2.
    """
    p, w = np.linalg.eigh(qs.matrix(0.0))
    return p, 2.0 * np.pi * np.abs(w[0]) ** 2


def uhlmann_from_levels(probs, levels):
    """The subsystem Uhlmann phase Arg{-2 z} from a spectrum and its level Berry phases.

    With |n| = p2 - p1: 2 z = cos(pi r) + i |n| (g2 - g1)/2 sin(pi r)/(pi r)
    and r^2 = 1 - g1 g2 |n|^2 / pi^2.
    """
    n = probs[1] - probs[0]
    r = math.sqrt(max(1.0 - levels[0] * levels[1] * n * n / math.pi**2, 0.0))
    re = math.cos(math.pi * r)
    im = n * (levels[1] - levels[0]) / 2.0 * float(np.sinc(r))
    return _phase_from_parts(-re, -im)


def interferometric(probs, levels):
    """Mixed-state interferometric phase Arg{sum_l p_l e^{i gamma_l}}."""
    p1, p2 = probs
    if abs(p1 + p2 - 1.0) > 1e-10:
        raise ValueError("probabilities must sum to 1")
    z = p1 * np.exp(1j * levels[0]) + p2 * np.exp(1j * levels[1])
    if abs(z) < 1e-12:
        raise DegeneratePhaseError("weighted phase factors cancel")
    return _phase_from_parts(float(z.real), float(z.imag))


def phase_curve(g, q=0.0, subsystem="A", j=2, samples=256, margin=1e-6):
    """The phase curve -2 z(theta), sampled on [margin, pi - margin].

    Besides the uniform samples, 32 geometric samples from 1e-6 to 0.05 off
    each pole resolve the polar layer of subsystem B, of width ~g.
    """
    polar = np.geomspace(1e-6, 0.05, 32)
    thetas = np.concatenate([polar, np.linspace(margin, np.pi - margin, samples), np.pi - polar])
    return np.array([-2.0 * z_point(ModelParams(theta, g, q, j), subsystem)
                     for theta in np.unique(thetas)])


def sampled_winding(curve):
    """Winding of a sampled curve: its unwrapped argument over 2 pi, rounded."""
    angles = np.unwrap(np.angle(curve))
    return int(round(float(angles[-1] - angles[0]) / (2.0 * np.pi)))


def find_vortices_loop(values, theta_axis, g_axis, flags=None, jump_fraction_limit=0.05):
    """Plaquette-by-plaquette vortex search, the reference for find_vortices."""
    if flags is None:
        flags = np.where(np.isnan(values), 2, 0)
    hits = []
    jumpy_links = 0
    clean_links = 0
    for it in range(values.shape[0] - 1):
        for ig in range(values.shape[1] - 1):
            cell_flags = flags[it : it + 2, ig : ig + 2]
            t_mid = 0.5 * (theta_axis[it] + theta_axis[it + 1])
            g_mid = 0.5 * (g_axis[ig] + g_axis[ig + 1])
            if (cell_flags == 1).any():
                continue
            if (cell_flags == 2).any():
                hits.append(VortexHit(t_mid, g_mid, math.copysign(2.0 * math.pi, 1.0)))
                continue
            a = values[it, ig]
            b = values[it, ig + 1]
            c = values[it + 1, ig + 1]
            d = values[it + 1, ig]
            diffs = [wrap_angle(b - a), wrap_angle(c - b), wrap_angle(d - c), wrap_angle(a - d)]
            for diff in diffs:
                clean_links += 1
                if abs(diff) > math.pi / 2.0:
                    jumpy_links += 1
            circulation = sum(diffs)
            if abs(circulation) > math.pi:
                hits.append(VortexHit(t_mid, g_mid, circulation))
    if clean_links and jumpy_links / clean_links > jump_fraction_limit:
        raise GridTooCoarseError(
            f"{jumpy_links}/{clean_links} links jump by more than pi/2"
        )
    return hits


# The numeric holonomy one point at a time, as the library computed it before
# it integrated batches: samplers of one point, all 2 steps + 1 samples at
# once, RK4 on 2-D matrices and a doubling loop per point.  The batched kernel
# must reproduce it bit for bit.

_CHI = np.array([-1.0, 0.0, 0.0, 1.0])


def composite_point_sampler(params):
    """Composite connection A(phi) of one point, for arrays of phi: (n, 4, 4)."""
    a0 = composite_generator(params)
    winding = np.subtract.outer(_CHI, _CHI)

    def sample(phis):
        return a0[None] * np.exp(1j * winding[None] * phis[:, None, None])

    return sample


def reduced_point_sampler(qs):
    """Reduced-state connection A(phi) of one point, for arrays of phi: (n, 2, 2)."""
    k = 2.0 / (1.0 + 2.0 * math.sqrt(max(qs.a * (1.0 - qs.a) - qs.c * qs.c, 0.0)))
    diag = -1j * k * qs.c * qs.c * PAULI[2]
    off = 1j * k * qs.c * (qs.a - 0.5)

    def sample(phis):
        return diag[None] + off * (
            np.cos(phis)[:, None, None] * PAULI[0][None]
            + np.sin(phis)[:, None, None] * PAULI[1][None]
        )

    return sample


def integrate_samples(samples, h):
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


def integrate_point(sampler, phi0, steps):
    """Holonomy of one loop with every connection sample held at once."""
    h = 2.0 * math.pi / steps
    return integrate_samples(sampler(phi0 + 0.5 * h * np.arange(2 * steps + 1)), h)


def converged_point(sampler, rho0, phi0, start_steps, tol=PHASE_TOL, max_steps=MAX_STEPS):
    """Step doubling of one point: (phase, V, steps), raising where the point is flagged."""
    steps = start_steps
    v = integrate_point(sampler, phi0, steps)
    phase = uhlmann_phase(rho0, v)
    while steps <= max_steps // 2:
        steps *= 2
        v = integrate_point(sampler, phi0, steps)
        phase_next = uhlmann_phase(rho0, v)
        if abs(wrap_angle(phase_next.value - phase.value)) < tol:
            return phase_next, v, steps
        phase = phase_next
    raise ConvergenceFailureError(f"phase not stable within {tol:g} up to {max_steps} steps")
