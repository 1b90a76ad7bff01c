"""Spectrum and eigenstates of two coupled spin-1/2 particles in a rotating field.

The rescaled Hamiltonian is n(theta, phi) . sigma acting on the driven spin,
plus a coupling g (sigma1+ sigma2+ + sigma2- sigma1-).  Everything is expressed
in the composite basis {|+->, |++>, |-->, |-+>}; eigenstate labels j = 1..4 are
fixed by the closed-form energies, never by sorting.  j = 2 is the ground state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundaryError

# Below this coupling the closed-form component denominators degenerate and the
# separable-limit eigenvectors are used instead.
G_LIMIT = 1e-9
SIN_THETA_LIMIT = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Map from the standard tensor order {++, +-, -+, --} to the basis order
# {+-, ++, --, -+} used throughout.
_BASIS_PERM = np.array([1, 0, 3, 2])

# Step doubling of the numeric holonomy stops at MAX_STEPS, so a start count
# above MAX_STEPS // 2 could never be confirmed by a second integration.
MAX_STEPS = 2**16

# Admissible values of each checked parameter and how an error words them.
# Real bounds are finite, so one chained comparison also rejects inf and nan.
_FINITE = sys.float_info.max
_DOMAINS = {
    "theta": ((0.0, math.pi), "lie in [0, pi]"),
    "g": ((0.0, _FINITE), "be >= 0"),
    "q": ((0.0, 1.0), "lie in [0, 1]"),
    "phi": ((-_FINITE, _FINITE), "be finite"),
    "phi0": ((-_FINITE, _FINITE), "be finite"),
    "j": (range(1, 5), "be one of 1..4"),
    "steps": (range(16, MAX_STEPS // 2 + 1), f"lie in [16, {MAX_STEPS // 2}]"),
}


def check_param(name: str, value):
    """Return a model parameter after checking it against its domain.

    theta, g, q, phi and phi0 come back as floats; j and steps unchanged.
    Raises ValueError naming the parameter.
    """
    domain, wording = _DOMAINS[name]
    if domain.__class__ is range:
        if value in domain:
            return value
    else:
        value = float(value)
        if domain[0] <= value <= domain[1]:
            return value
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    raise ValueError(f"{name} must {wording}, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Full control space: field direction, coupling, depolarization, state label."""

    theta: float
    g: float
    q: float = 0.0
    j: int = 2
    phi0: float = 0.0

    def __post_init__(self):
        check_param("theta", self.theta)
        check_param("g", self.g)
        check_param("q", self.q)
        check_param("phi0", self.phi0)
        check_param("j", self.j)


def hamiltonian(theta: float, phi: float, g: float) -> np.ndarray:
    """Rescaled 4x4 Hamiltonian in the {+-, ++, --, -+} basis.

    Serves as the validation oracle for the closed-form eigen-pairs.
    """
    theta, g = check_param("theta", theta), check_param("g", g)
    phi = check_param("phi", phi)
    n = (math.sin(theta) * math.cos(phi),
         math.sin(theta) * math.sin(phi),
         math.cos(theta))
    h_spin = sum(nc * s for nc, s in zip(n, PAULI))
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sm = sp.T.conj()
    h = np.kron(h_spin, np.eye(2)) + g * (np.kron(sp, sp) + np.kron(sm, sm))
    return h[np.ix_(_BASIS_PERM, _BASIS_PERM)]


def _spectrum(theta: float, g: float) -> tuple[float, float, float, float, float]:
    """sin(theta), cos(theta), R = sqrt(g^2 + 4 sin^2 theta), E1 and E3.

    E3 comes from E1 E3 = sqrt(1 + g^2 cos^2 theta), so neither energy is a
    cancelling difference.
    """
    st, ct = math.sin(theta), math.cos(theta)
    big_r = math.sqrt(g * g + 4.0 * st ** 2)
    e1 = math.sqrt(1.0 + g * g / 2.0 + g * big_r / 2.0)
    return st, ct, big_r, e1, math.sqrt(1.0 + (g * ct) ** 2) / e1


def eigenvalues(theta: float, g: float) -> tuple[float, float, float, float]:
    """Closed-form energies (E1, E2, E3, E4) with E2 = -E1 and E4 = -E3."""
    theta, g = check_param("theta", theta), check_param("g", g)
    _, _, _, e1, e3 = _spectrum(theta, g)
    return (e1, -e1, e3, -e3)


def eigenvector_components(
    j: int, theta: float, g: float
) -> tuple[float, float, float, float, float]:
    """Real components (u1, u2, u3, u4) of state j and their norm sum N.

    With sigma = +1 for j = 1, 2 and -1 for j = 3, 4: u1 = sin(theta),
    u2 = (g + sigma R)/2, u3 = E - cos(theta) and u4 = u1 u3 / u2, each
    written so that no difference cancels.  For g below G_LIMIT the
    separable-limit components are used; on the sin(theta) boundary with
    finite coupling no closed form exists and a DomainBoundaryError is raised.
    """
    theta, g = check_param("theta", theta), check_param("g", g)
    check_param("j", j)
    st, ct, big_r, e1, e3 = _spectrum(theta, g)
    e = (e1, -e1, e3, -e3)[j - 1]
    if g <= G_LIMIT:
        # Separable limit: components of the g -> 0+ eigenstates, where
        # E^2 - cos^2 theta = sin^2 theta turns E - cos(theta) into a quotient
        # wherever E and cos(theta) share a sign.
        sign = 1.0 if j in (1, 2) else -1.0
        u1, u3 = st, st * st / (e + ct) if e * ct > 0.0 else e - ct
        u2, u4 = sign * u1, sign * u3
    else:
        if st <= SIN_THETA_LIMIT:
            raise DomainBoundaryError(
                f"sin(theta) = {st:g} too small for the closed-form "
                f"eigenvectors at g = {g:g}"
            )
        u1 = st
        # u2 solves u2^2 = sin^2 theta + g u2; the two roots multiply to
        # -sin^2 theta, which gives the sigma = -1 root without cancelling.
        u2 = (g + big_r) / 2.0 if j <= 2 else -2.0 * st * st / (g + big_r)
        # E^2 - cos^2 theta = u2^2, so where E and cos(theta) share a sign
        # the difference E - cos(theta) becomes a quotient.
        u3 = u2 * u2 / (e + ct) if e * ct > 0.0 else e - ct
        u4 = u1 * u3 / u2
    norm = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
    if norm <= 0.0:
        raise DomainBoundaryError(f"vanishing eigenvector norm for j={j} at theta={theta:g}, g={g:g}")
    return (u1, u2, u3, u4, norm)


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
