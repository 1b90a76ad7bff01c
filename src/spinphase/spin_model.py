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

from .errors import DomainBoundaryError

# Step doubling of the numeric holonomy starts at DEFAULT_STEPS and stops at
# MAX_STEPS, so a start count above MAX_STEPS // 2 could never be confirmed by
# a second integration.
DEFAULT_STEPS = 2000
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


def _spectrum(theta: float, g: float) -> tuple[float, float, float, float, float]:
    """sin(theta), cos(theta), R = sqrt(g^2 + 4 sin^2 theta), E1 and E3.

    E3 comes from E1 E3 = sqrt(1 + g^2 cos^2 theta), so neither energy is a
    cancelling difference.  R is a hypot: > 0 even where g^2 and sin^2 underflow.
    """
    st, ct = math.sin(theta), math.cos(theta)
    big_r = math.hypot(g, 2.0 * st)
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
    written so that no difference cancels.  For j = 3, 4 the components are
    rescaled by a power of sin(theta), so that one formula holds on the poles
    too.  Raises DomainBoundaryError at theta in {0, pi} with g = 0, where
    E1 = E3 and j does not fix the state.
    """
    theta, g = check_param("theta", theta), check_param("g", g)
    check_param("j", j)
    if g == 0.0 and theta in (0.0, math.pi):
        raise DomainBoundaryError(f"degenerate levels at theta = {theta:g}, g = 0")
    st, ct, big_r, e1, e3 = _spectrum(theta, g)
    e = (e1, -e1, e3, -e3)[j - 1]
    if j <= 2:
        u1 = st
        # u2 solves u2^2 = sin^2 theta + g u2; this root is > 0 unless g = sin = 0.
        u2 = (g + big_r) / 2.0
        # E^2 - cos^2 theta = u2^2, so where E and cos(theta) share a sign
        # the difference E - cos(theta) becomes a quotient.
        u3 = u2 * u2 / (e + ct) if e * ct > 0.0 else e - ct
        u4 = u1 * u3 / u2
    else:
        # The other root, -2 sin^2 theta / (g + R), is sin(theta) t: divide
        # the components by sin(theta) where u3 is a quotient in u2^2, else
        # multiply them by it, so that none is 0 / 0 at a pole.
        t = -2.0 * st / (g + big_r)
        if e * ct > 0.0:
            u1, u2, u3, u4 = 1.0, t, st * t * t / (e + ct), st * t / (e + ct)
        else:
            u1, u2, u3, u4 = st * st, st * st * t, st * (e - ct), -(e - ct) * (g + big_r) / 2.0
    norm = u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
    # A subnormal norm has lost its digits to underflow (g < ~1e-154 at a pole).
    if norm < sys.float_info.min:
        raise DomainBoundaryError(f"vanishing eigenvector norm for j={j} at theta={theta:g}, g={g:g}")
    return (u1, u2, u3, u4, norm)
