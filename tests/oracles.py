"""Independent brute-force oracles used to check the closed-form routes."""

import numpy as np

# Permutation between the library basis {+-, ++, --, -+} and the standard
# tensor order {++, +-, -+, --}.
TO_STANDARD = np.array([1, 0, 3, 2])


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
