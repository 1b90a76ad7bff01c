"""Shared hypothesis strategies for points of the (theta, g) plane."""

import math

from hypothesis import example
from hypothesis import strategies as st

# theta anywhere, on either pole, or from 1e-8 to 1e-1 off one; g log-uniform
# in [1e-6, 1e4], 0, or in (0, 1e-9].
_POLE_OFFSETS = st.floats(-8.0, -1.0).map(lambda e: 10.0**e)
THETAS = st.one_of(
    st.floats(1e-8, math.pi - 1e-8),
    st.sampled_from((0.0, math.pi)),
    _POLE_OFFSETS,
    _POLE_OFFSETS.map(lambda d: math.pi - d),
)
COUPLINGS = st.one_of(
    st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
    st.just(0.0),
    st.floats(0.0, 1e-9, exclude_min=True),
)

# Points where a spectrum built from cancelling differences fails: 1 - E^2
# rounds to ~0 for j = 3, 4 near a pole, the j = 3 residual reaches 1e-5 at
# theta = 1e-5, E3 comes out as 1.00000380724e-3 instead of
# 9.99999000002e-4 on the equator at g = 1000, and at g = 0 the difference
# E - cos(theta) leaves a residual of 1e-8 at theta = 1e-8.  On the poles with
# g > 0, u2 and u4 of j = 3, 4 are 0 / 0 unless rescaled by sin(theta).
REPRODUCERS = (
    (1e-8, 1.0), (1e-5, 2.448), (math.pi / 2, 1000.0), (1e-8, 0.0), (0.0, 1.0), (math.pi, 0.5)
)


def boundary_point(theta, g):
    """Whether DomainBoundaryError is the contract at a drawn point.

    Only a pole flags: at g = 0, where E1 = E3 and j fixes no state, and at
    a g so small that the norm of a pole eigenvector underflows.
    """
    return theta in (0.0, math.pi) and g < 1e-150


def with_reproducers(*rest):
    """Add each reproducer (theta, g), followed by rest, as an explicit example."""

    def decorate(test):
        for theta, g in REPRODUCERS:
            test = example(theta, g, *rest)(test)
        return test

    return decorate
