import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import concurrence_wootters
from spinphase import (
    G_CRITICAL_PURE,
    Q_TRANSITION_MAX,
    OutOfTransitionRangeError,
    concurrence_depolarized,
    concurrence_equator,
    concurrence_pure,
    critical_coupling,
    depolarize,
    pure_density,
    reduce_state,
    transition_concurrence,
)
from strategies import COUPLINGS, THETAS, with_reproducers


class TestWootters:
    def test_product_state_is_separable(self):
        v = np.kron([1.0, 0.0], [math.cos(0.3), math.sin(0.3)]).astype(complex)
        rho = np.outer(v, v.conj())
        assert concurrence_wootters(rho).value == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_is_maximal(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho = np.outer(v, v.conj())
        assert concurrence_wootters(rho).value == pytest.approx(1.0, abs=1e-12)

    def test_transition_point_value(self):
        # At the q = 0.1073 critical coupling the depolarized concurrence
        # is about 0.1628.
        q = 0.1073
        g = critical_coupling(q)
        rho = depolarize(pure_density(2, math.pi / 2, g, 0.0), q)
        assert concurrence_wootters(rho).value == pytest.approx(0.1628, abs=5e-4)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            concurrence_wootters(np.eye(4))


class TestPureFromSubsystem:
    # A pure two-qubit state has C = 2 sqrt(p1 p2) in terms of either reduced
    # state's spectrum; the components give it without forming that state.

    def test_pure_reduced_state_means_separable(self):
        qs = reduce_state(2, 0.7, 1e-12, "A")
        assert qs.p1 == pytest.approx(0.0, abs=1e-9)
        assert concurrence_pure(2, 0.7, 1e-12).value == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_reduced_state_means_bell(self):
        # Strong coupling on the equator: C = g / sqrt(g^2 + 4) -> 1.
        qs = reduce_state(3, math.pi / 2, 1e4, "B")
        assert qs.p1 == pytest.approx(0.5, abs=1e-3)
        assert concurrence_pure(3, math.pi / 2, 1e4).value == pytest.approx(1.0, abs=1e-7)

    def test_matches_wootters_on_grid(self):
        for theta in np.linspace(0.2, math.pi - 0.2, 15):
            for g in np.linspace(0.1, 3.0, 15):
                ref = concurrence_wootters(pure_density(2, float(theta), float(g), 0.0))
                qs = reduce_state(2, float(theta), float(g), "A")
                value = concurrence_pure(2, float(theta), float(g)).value
                assert value == pytest.approx(ref.value, abs=1e-13)
                assert value == pytest.approx(2.0 * math.sqrt(qs.p1 * qs.p2), abs=1e-10)


class TestComponentConcurrence:
    @given(THETAS, COUPLINGS, st.integers(1, 4), st.floats(0.0, 1.0))
    @with_reproducers(3, 0.2)
    def test_matches_wootters_on_depolarized_states(self, theta, g, j, q):
        value = concurrence_depolarized(concurrence_pure(j, theta, g), q).value
        assert 0.0 <= value <= 1.0
        ref = concurrence_wootters(depolarize(pure_density(j, theta, g, 0.0), q))
        assert abs(value - ref.value) <= 1e-13


class TestEquator:
    def test_uncoupled_and_critical_values(self):
        assert concurrence_equator(0.0).value == 0.0
        assert concurrence_equator(G_CRITICAL_PURE).value == pytest.approx(0.5, abs=1e-14)

    def test_matches_wootters_for_all_eigenstates(self):
        for j in (1, 2, 3, 4):
            for g in np.linspace(0.0, 4.0, 25):
                ref = concurrence_wootters(pure_density(j, math.pi / 2, float(g), 0.0))
                assert concurrence_equator(float(g)).value == pytest.approx(
                    ref.value, abs=1e-10
                )

    def test_g2_value(self):
        assert concurrence_equator(2.0).value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)


class TestDepolarizedRelation:
    def test_trivial_endpoints(self):
        assert concurrence_depolarized(0.7, 0.0).value == pytest.approx(0.7)
        assert concurrence_depolarized(0.0, 0.5).value == 0.0

    def test_matches_wootters_on_grid(self):
        for theta in np.linspace(0.3, math.pi - 0.3, 6):
            for g in np.linspace(0.2, 3.0, 6):
                for q in (0.05, 0.2, 0.5, 0.9):
                    rho_p = pure_density(2, float(theta), float(g), 0.0)
                    c_pure = concurrence_pure(2, float(theta), float(g))
                    ref = concurrence_wootters(depolarize(rho_p, q))
                    assert concurrence_depolarized(c_pure, q).value == pytest.approx(
                        ref.value, abs=1e-10
                    )

    def test_monotone_in_q(self):
        c_pure = concurrence_equator(1.5)
        values = [concurrence_depolarized(c_pure, q).value for q in np.linspace(0, 1, 30)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestTransition:
    def test_pure_limit(self):
        assert critical_coupling(0.0) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-14)

    def test_range_endpoint(self):
        assert critical_coupling(Q_TRANSITION_MAX) == pytest.approx(0.0, abs=1e-7)

    def test_reference_point(self):
        assert critical_coupling(0.1073) == pytest.approx(0.5, abs=5e-4)

    def test_out_of_range(self):
        with pytest.raises(OutOfTransitionRangeError):
            critical_coupling(0.14)

    def test_transition_concurrence_values(self):
        assert transition_concurrence(1e-9).value == pytest.approx(0.5, abs=1e-6)
        assert transition_concurrence(0.1073).value == pytest.approx(0.1628, abs=5e-4)
        assert transition_concurrence(Q_TRANSITION_MAX).value == 0.0

    def test_consistency_loop(self):
        for q in np.linspace(1e-4, Q_TRANSITION_MAX, 20):
            g = critical_coupling(float(q))
            via_equator = concurrence_depolarized(concurrence_equator(g), float(q))
            assert via_equator.value == pytest.approx(
                transition_concurrence(float(q)).value, abs=1e-12
            )
