"""Shared hypothesis strategies for points of the (theta, g) plane."""

import math

from hypothesis import example
from hypothesis import strategies as st

from spinphase.spin_model import G_LIMIT

# theta anywhere, or from 1e-8 to 1e-1 off either pole; g log-uniform in
# [1e-6, 1e4], or in the separable branch: 0 or in (0, G_LIMIT].
_POLE_OFFSETS = st.floats(-8.0, -1.0).map(lambda e: 10.0**e)
THETAS = st.one_of(
    st.floats(1e-8, math.pi - 1e-8), _POLE_OFFSETS, _POLE_OFFSETS.map(lambda d: math.pi - d)
)
COUPLINGS = st.one_of(
    st.floats(-6.0, 4.0).map(lambda e: 10.0**e),
    st.just(0.0),
    st.floats(0.0, G_LIMIT, exclude_min=True),
)

# Points where a spectrum built from cancelling differences fails: 1 - E^2
# rounds to ~0 for j = 3, 4 near a pole, the j = 3 residual reaches 1e-5 at
# theta = 1e-5, E3 comes out as 1.00000380724e-3 instead of
# 9.99999000002e-4 on the equator at g = 1000, and in the separable branch
# E - cos(theta) leaves a residual of 1e-8 at theta = 1e-8.
REPRODUCERS = ((1e-8, 1.0), (1e-5, 2.448), (math.pi / 2, 1000.0), (1e-8, 0.0))


def with_reproducers(*rest):
    """Add each reproducer (theta, g), followed by rest, as an explicit example."""

    def decorate(test):
        for theta, g in REPRODUCERS:
            test = example(theta, g, *rest)(test)
        return test

    return decorate
