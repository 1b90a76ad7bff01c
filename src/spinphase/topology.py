"""Winding numbers of the phase curve and vortex detection on phase maps.

winding_number is a closed form; phase_map and find_vortices work on arrays
and import numpy when first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .closed_form import equator_r, uhlmann_subsystem
from .entanglement import concurrence_equator
from .errors import (
    DegeneratePhaseError,
    DomainBoundaryError,
    GridTooCoarseError,
    IllPosedError,
)
from .spin_model import ModelParams, check_param

if TYPE_CHECKING:
    import numpy as np

ROOT_CLEARANCE = 1e-9
# Largest share of clean links that may jump by more than pi/2 in find_vortices.
JUMP_FRACTION_LIMIT = 0.05
# Sign of Im(-2 z) for 0 < theta < pi/2, per subsystem and eigenstate j = 1..4:
# the direction in which the phase curve crosses the real axis at the equator.
ORIENTATION = {"A": (-1, 1, -1, 1), "B": (1, -1, -1, 1)}


@dataclass(frozen=True)
class WindingResult:
    """Winding number and the distance |cos(pi r_eq)| of the curve from the root."""

    winding: int
    clearance: float


@dataclass(frozen=True)
class VortexHit:
    theta_cell: float
    g_cell: float
    circulation: float


def winding_number(
    g: float,
    q: float = 0.0,
    subsystem: str = "A",
    j: int = 2,
) -> WindingResult:
    """Winding of the phase curve -2 z(theta), theta in [0, pi], about the origin.

    The curve is mirror-symmetric, -2 z(pi - theta) = conj(-2 z(theta)), so
    inside the loop it meets the real axis only at the equator, at the point
    -cos(pi r_eq).  It winds once, in the direction ORIENTATION gives, when
    that point lies on the negative real axis, and not at all otherwise.
    Raises IllPosedError within ROOT_CLEARANCE of the transition, where the
    curve passes through the origin.
    """
    if subsystem not in ORIENTATION:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    g, q, j = check_param("g", g), check_param("q", q), check_param("j", j)
    if subsystem == "B" and g == 0.0:
        # Uncoupled spins: B's reduced state is diagonal, its holonomy trivial
        # and its curve a single point at distance 1 from the origin.
        return WindingResult(0, 1.0)
    cos_r = math.cos(math.pi * equator_r(concurrence_equator(g).value, q))
    if abs(cos_r) < ROOT_CLEARANCE:
        raise IllPosedError(
            f"winding undefined at g = {g:g}, q = {q:g}: the curve passes "
            f"within {abs(cos_r):.3g} of the root"
        )
    return WindingResult(ORIENTATION[subsystem][j - 1] if cos_r > 0.0 else 0, abs(cos_r))


def phase_map(
    theta_axis: np.ndarray,
    g_axis: np.ndarray,
    q: float = 0.0,
    subsystem: str = "A",
    j: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form subsystem phase on a (theta, g) grid.

    Returns (values, flags); values are NaN where flags is nonzero.  Flag 1
    marks domain-boundary points, flag 2 degenerate (vortex) points.
    """
    import numpy as np

    values = np.full((len(theta_axis), len(g_axis)), np.nan)
    flags = np.zeros((len(theta_axis), len(g_axis)), dtype=int)
    for it, theta in enumerate(theta_axis):
        for ig, g in enumerate(g_axis):
            try:
                values[it, ig] = uhlmann_subsystem(
                    ModelParams(float(theta), float(g), q, j), subsystem
                ).value
            except DomainBoundaryError:
                flags[it, ig] = 1
            except DegeneratePhaseError:
                flags[it, ig] = 2
    return values, flags


def _wrapped(x: np.ndarray) -> np.ndarray:
    """closed_form.wrap_angle over an array, operation for operation."""
    import numpy as np

    return x - 2.0 * math.pi * np.ceil((x - math.pi) / (2.0 * math.pi))


def _touches(mask: np.ndarray) -> np.ndarray:
    """Per plaquette: does any of its four corners carry the mask."""
    return mask[:-1, :-1] | mask[:-1, 1:] | mask[1:, :-1] | mask[1:, 1:]


def find_vortices(
    values: np.ndarray,
    theta_axis: np.ndarray,
    g_axis: np.ndarray,
    flags: np.ndarray | None = None,
) -> list[VortexHit]:
    """Locate phase vortices by plaquette circulation of wrapped differences.

    Plaquettes touching a degenerate sample are flagged as hits outright;
    those touching a domain-boundary sample are skipped.  Raises
    GridTooCoarseError when too many clean links jump by more than pi/2.
    Hits come in row-major plaquette order.
    """
    import numpy as np

    if flags is None:
        flags = np.where(np.isnan(values), 2, 0)
    boundary = _touches(flags == 1)
    vortex = _touches(flags == 2) & ~boundary
    clean = ~(boundary | vortex)
    a, b = values[:-1, :-1], values[:-1, 1:]
    c, d = values[1:, 1:], values[1:, :-1]
    diffs = [_wrapped(b - a), _wrapped(c - b), _wrapped(d - c), _wrapped(a - d)]
    clean_links = 4 * int(np.count_nonzero(clean))
    jumpy_links = sum(int(np.count_nonzero(clean & (np.abs(x) > math.pi / 2.0))) for x in diffs)
    if clean_links and jumpy_links / clean_links > JUMP_FRACTION_LIMIT:
        raise GridTooCoarseError(
            f"{jumpy_links}/{clean_links} links jump by more than pi/2"
        )
    circulation = np.where(vortex, 2.0 * math.pi, diffs[0] + diffs[1] + diffs[2] + diffs[3])
    theta_axis, g_axis = np.asarray(theta_axis), np.asarray(g_axis)
    t_mid = 0.5 * (theta_axis[:-1] + theta_axis[1:])
    g_mid = 0.5 * (g_axis[:-1] + g_axis[1:])
    rows, cols = np.nonzero(vortex | (clean & (np.abs(circulation) > math.pi)))
    return [
        VortexHit(float(t_mid[it]), float(g_mid[ig]), float(circulation[it, ig]))
        for it, ig in zip(rows, cols)
    ]
