import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    berry_quadrature,
    interferometric,
    levels_eigh,
    uhlmann_from_levels,
    z_point,
)
from spinphase import (
    DegeneratePhaseError,
    DomainBoundaryError,
    ModelParams,
    PhaseValue,
    berry_composite,
    berry_qubit_levels,
    concurrence_equator,
    eigenstate,
    interferometric_subsystem,
    mean_berry,
    qubit_matrix,
    reduce_state,
    uhlmann_equator,
    uhlmann_subsystem,
    wrap_angle,
)
from spinphase.closed_form import _two_z, equator_r
from spinphase.sweeps import SUBSYSTEMS, evaluate
from strategies import COUPLINGS, THETAS, boundary_point

PI = math.pi


class TestWrapAngle:
    def test_fixed_points(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(PI) == PI
        assert wrap_angle(-PI) == PI
        assert wrap_angle(3.0 * PI) == pytest.approx(PI)
        assert wrap_angle(2.0 * PI) == pytest.approx(0.0, abs=1e-15)

    def test_periodicity(self):
        for x in np.linspace(-9.0, 9.0, 101):
            w = wrap_angle(float(x))
            assert -PI < w <= PI
            assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
            assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


class TestPhaseValue:
    def test_rejects_out_of_branch(self):
        with pytest.raises(ValueError):
            PhaseValue(4.0)

    def test_units_of_pi(self):
        assert PhaseValue(PI / 2).in_units_of_pi() == pytest.approx(0.5)


class TestBerryComposite:
    def test_uncoupled_ground_state(self):
        # g = 0 ground state |+-> carries the full solid-angle-free 2 pi u1^2
        # weight; check against loop quadrature.
        val = berry_composite(2, 0.8, 0.0)
        oracle = berry_quadrature(lambda phi: eigenstate(2, 0.8, 0.0, phi), points=2000)
        assert val.unwrapped == pytest.approx(oracle, abs=1e-7)

    def test_quadrature_oracle_grid(self):
        for j in (1, 2, 3, 4):
            for theta, g in [(0.5, 0.7), (PI / 2, 2.0), (2.4, 1.3)]:
                val = berry_composite(j, theta, g)
                oracle = berry_quadrature(
                    lambda phi: eigenstate(j, theta, g, phi), points=2000
                )
                assert val.unwrapped == pytest.approx(oracle, abs=1e-6)

    def test_equator_is_trivial(self):
        # u1 = u4 on the equator for every level, so the composite phase
        # vanishes mod 2 pi.
        for j in (1, 2, 3, 4):
            assert abs(berry_composite(j, PI / 2, 1.7).value) < 1e-12


class TestBerryLevels:
    def test_quadrature_oracle(self):
        # The level vectors of a dense solver at each phi, in the single-valued
        # gauge with a real second component; the loop integral of
        # <w| i d_phi w> is the level Berry phase.
        qs = reduce_state(2, 0.9, 1.4, "A")
        g1, g2 = berry_qubit_levels(qs)

        def level_state(level, phi):
            w = np.linalg.eigh(qubit_matrix(qs, phi))[1][:, level]
            return w * abs(w[1]) / w[1]

        o1 = berry_quadrature(lambda p: level_state(0, p), points=2000)
        o2 = berry_quadrature(lambda p: level_state(1, p), points=2000)
        assert g1 == pytest.approx(o1, abs=1e-6)
        assert g2 == pytest.approx(o2, abs=1e-6)

    def test_sum_rule(self):
        # gbar^A + gbar^B - 2 pi equals the composite Berry phase (unwrapped).
        for theta, g in [(0.4, 0.6), (1.1, 1.9), (2.7, 3.3)]:
            for j in (1, 2, 3, 4):
                total = (
                    mean_berry(reduce_state(j, theta, g, "A"))
                    + mean_berry(reduce_state(j, theta, g, "B"))
                    - 2.0 * PI
                )
                assert total == pytest.approx(
                    berry_composite(j, theta, g).unwrapped, abs=1e-10
                )

    def test_rejects_diagonal_state(self):
        qs = reduce_state(2, PI / 2, 0.0, "A")
        if qs.trivial:
            with pytest.raises(ValueError):
                berry_qubit_levels(qs)

    def test_levels_sum_to_two_pi(self):
        # gamma_{1,2} = pi (1 -+ x) sum to 2 pi.
        qs = reduce_state(3, 1.3, 2.2, "B")
        g1, g2 = berry_qubit_levels(qs)
        assert g1 + g2 == pytest.approx(2.0 * PI, abs=1e-12)


def _drawn_state(theta, g, q, j, subsystem):
    """The reduced state at a drawn point; a point on the boundary is rejected."""
    try:
        return reduce_state(j, theta, g, subsystem, q)
    except DomainBoundaryError:
        assert boundary_point(theta, g)
        assume(False)


class TestDenseSolverRoute:
    @given(THETAS, COUPLINGS, st.floats(0.0, 1.0), st.integers(1, 4), st.sampled_from("AB"))
    def test_matches_eigh_route(self, theta, g, q, j, subsystem):
        # Levels, spectrum and both subsystem phases as the paper builds them
        # from the reduced state's eigensystem, here from np.linalg.eigh.
        qs = _drawn_state(theta, g, q, j, subsystem)
        assume(not qs.trivial and qs.bloch_length >= 1e-6)
        probs, levels = levels_eigh(qs)
        assert probs == pytest.approx([qs.p1, qs.p2], abs=1e-14)
        assert mean_berry(qs) == 2.0 * PI * qs.a
        assert probs @ levels == pytest.approx(mean_berry(qs), abs=1e-14)
        # eigh's level vectors carry an error of ~1e-16 / |n|.
        tol = max(1e-11, 1e-15 / qs.bloch_length)
        assert np.abs(levels - berry_qubit_levels(qs)).max() <= tol
        params = ModelParams(theta, g, q, j)
        for closed, oracle in ((uhlmann_subsystem, uhlmann_from_levels),
                               (interferometric_subsystem, interferometric)):
            try:
                expected = oracle(probs, levels).value
            except DegeneratePhaseError:
                continue
            assert abs(wrap_angle(closed(params, subsystem).value - expected)) <= 1e-11


class TestUhlmannEquator:
    def test_step_structure(self):
        # Pure equator states: r = C, so the phase is pi below C = 1/2 and 0
        # above it -- the topological step at the critical coupling.
        assert uhlmann_equator(0.3).value == PI
        assert uhlmann_equator(0.49).value == PI
        assert uhlmann_equator(0.51).value == 0.0
        assert uhlmann_equator(0.9).value == 0.0

    def test_node_raises(self):
        # r = C on the equator; cos(pi r) = 0 at C = 1/2.
        with pytest.raises(DegeneratePhaseError):
            uhlmann_equator(0.5)

    def test_depolarized_flip(self):
        # For q large enough that r > 1/2 the cosine changes sign.
        c = 0.2
        q = 0.9
        r = math.sqrt(1.0 - (1.0 - q) ** 2 * (1.0 - c * c))
        assert r > 0.5
        assert uhlmann_equator(c, q).value == 0.0

    @pytest.mark.parametrize("q", [float("nan"), -0.1, 1.5])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match="^q must"):
            uhlmann_equator(0.3, q)

    def test_matches_subsystem_formula(self):
        for g in (0.4, 1.0, 2.5):
            c = concurrence_equator(g).value
            p = ModelParams(theta=PI / 2, g=g, q=0.0, j=2)
            assert uhlmann_equator(c).value == uhlmann_subsystem(p, "A").value


class TestUhlmannSubsystem:
    def test_z_point_consistency(self):
        for theta, g, q in [(0.7, 1.2, 0.0), (1.9, 0.5, 0.2), (PI / 2, 2.0, 0.05)]:
            p = ModelParams(theta=theta, g=g, q=q, j=2)
            for sub in ("A", "B"):
                z = z_point(p, sub)
                expect = uhlmann_subsystem(p, sub)
                got = math.atan2((-2 * z).imag, (-2 * z).real)
                if got <= -PI:
                    got = PI
                assert expect.value == pytest.approx(got, abs=1e-12)

    def test_pure_limit_reduces_to_berry_branch(self):
        # q = 0, gbar near pi: phase tracks the wrapped mean Berry structure
        # through the closed form; spot-check sign symmetry theta -> pi - theta.
        p1 = uhlmann_subsystem(ModelParams(theta=0.6, g=1.5, q=0.0, j=2), "A")
        p2 = uhlmann_subsystem(ModelParams(theta=PI - 0.6, g=1.5, q=0.0, j=2), "A")
        assert p1.value == pytest.approx(-p2.value, abs=1e-10) or (
            p1.value == PI and p2.value == PI
        )

    def test_full_mixing_phase(self):
        # q = 1 gives r = 1 exactly: Arg{-cos(pi)} = 0.
        p = ModelParams(theta=1.0, g=1.3, q=1.0, j=2)
        assert uhlmann_subsystem(p, "A").value == 0.0


class TestPoles:
    @given(st.sampled_from((0.0, PI)), st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
           st.floats(0.0, 1.0), st.integers(1, 4))
    def test_pole_value_is_the_limit(self, pole, g, q, j):
        # With coupling the poles are regular points: every closed form there
        # equals its value 1e-8 off the pole.  Berry is compared mod 2 pi.
        near = ModelParams(1e-8 if pole == 0.0 else PI - 1e-8, g, q, j)
        at = ModelParams(pole, g, q, j)
        for quantity in ("uhlmann_closed", "berry", "interferometric", "concurrence"):
            for subsystem in SUBSYSTEMS[quantity]:
                diff = evaluate(quantity, at, subsystem) - evaluate(quantity, near, subsystem)
                assert abs(math.remainder(diff, 2.0 * PI)) <= 1e-10

    def test_pole_values(self):
        # The loop shrinks to a point; the concurrence is that of the
        # {|++>, |-->} block for j = 1, 2 and 0 for the product states of j = 3, 4.
        for pole in (0.0, PI):
            for j in (1, 2, 3, 4):
                p = ModelParams(pole, 1.0, 0.0, j)
                for subsystem in ("A", "B"):
                    assert uhlmann_subsystem(p, subsystem).value == 0.0
                    assert interferometric_subsystem(p, subsystem).value == 0.0
                expected = 1.0 / math.sqrt(2.0) if j <= 2 else 0.0
                assert evaluate("concurrence", p) == pytest.approx(expected, abs=1e-15)


class TestMirrorAndEquator:
    @given(st.floats(0.01, PI / 2), st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
           st.floats(0.0, 0.5), st.integers(1, 4), st.sampled_from("AB"))
    def test_mirror_reverses_the_phase(self, theta, g, q, j, subsystem):
        # Phi(pi - theta) = -Phi(theta) mod 2 pi, for both subsystem phases.
        for phase in (uhlmann_subsystem, interferometric_subsystem):
            try:
                there = phase(ModelParams(theta, g, q, j), subsystem).value
                back = phase(ModelParams(PI - theta, g, q, j), subsystem).value
            except DegeneratePhaseError:
                continue
            assert abs(wrap_angle(there + back)) <= 1e-12

    @given(st.floats(-3.0, 2.0).map(lambda e: 10.0**e), st.floats(0.0, 1.0),
           st.integers(1, 4), st.sampled_from("AB"))
    def test_state_r_is_the_equator_r(self, g, q, j, subsystem):
        # On the equator g1 g2 |n|^2 / pi^2 = (1-q)^2 (1 - C^2), so the r of the
        # depolarized state is equator_r(C, q) and 2 z = cos(pi r) is real.
        qs = reduce_state(j, PI / 2, g, subsystem, q)
        assume(not qs.trivial)
        c = concurrence_equator(g).value
        g1, g2 = berry_qubit_levels(qs)
        n = qs.p2 - qs.p1
        assert g1 * g2 * n * n / PI**2 == pytest.approx((1 - q) ** 2 * (1 - c * c), abs=1e-14)
        re, im = _two_z(qs)
        assert re == pytest.approx(math.cos(PI * equator_r(c, q)), abs=1e-14)
        assert abs(im) <= 1e-14


class TestInterferometric:
    # interferometric(probs, levels) is the oracle in tests/oracles.py.
    def test_pure_weight_recovers_level_phase(self):
        val = interferometric((1.0, 0.0), (0.7, 2.0))
        assert val.value == pytest.approx(0.7, abs=1e-14)

    def test_balanced_cancellation_raises(self):
        with pytest.raises(DegeneratePhaseError):
            interferometric((0.5, 0.5), (0.0, PI))

    def test_bad_probabilities(self):
        with pytest.raises(ValueError):
            interferometric((0.7, 0.6), (0.0, 1.0))

    def test_matches_direct_sum(self):
        p = ModelParams(theta=1.1, g=1.6, q=0.15, j=2)
        qs = reduce_state(2, 1.1, 1.6, "A")
        g1, g2 = berry_qubit_levels(qs)
        w1 = p.q / 2 + (1 - p.q) * qs.p1
        w2 = p.q / 2 + (1 - p.q) * qs.p2
        z = w1 * np.exp(1j * g1) + w2 * np.exp(1j * g2)
        assert interferometric_subsystem(p, "A").value == pytest.approx(
            math.atan2(z.imag, z.real), abs=1e-14
        )

    @given(THETAS, COUPLINGS, st.floats(0.0, 1.0), st.integers(1, 4), st.sampled_from("AB"))
    def test_weighted_sum_never_vanishes_with_the_state(self, theta, g, q, j, subsystem):
        # |p1 e^{i g1} + p2 e^{i g2}|^2 = cos^2(pi x) + |n|^2 sin^2(pi x) >= |n|^2:
        # the sum only vanishes with the Bloch vector, so the interferometric
        # phase has no vortex inside the (theta, g) plane.
        qs = _drawn_state(theta, g, q, j, subsystem)
        assume(not qs.trivial)
        g1, g2 = berry_qubit_levels(qs)
        n = qs.bloch_length
        x = (2.0 * qs.a - 1.0) / n
        weighted = abs(qs.p1 * np.exp(1j * g1) + qs.p2 * np.exp(1j * g2)) ** 2
        identity = math.cos(PI * x) ** 2 + n * n * math.sin(PI * x) ** 2
        assert weighted == pytest.approx(identity, abs=1e-14)
        assert identity >= n * n * (1.0 - 1e-15)

    def test_full_depolarization_limit(self):
        # a - 1/2 and c both scale by 1 - q, so x = (2a - 1)/|n| does not
        # depend on q and the phase tends to Arg(-cos pi x) of the pure state.
        # At q = 1 the state has no coherence and the phase is defined as 0.
        theta, g, j, subsystem = 1.2, 0.4, 1, "B"
        full = interferometric_subsystem(ModelParams(theta, g, 1.0, j), subsystem)
        assert full.value == 0.0 and full.trivial
        qs = reduce_state(j, theta, g, subsystem)
        x = (2.0 * qs.a - 1.0) / qs.bloch_length
        assert abs(math.cos(PI * x)) > 0.1
        limit = PI if math.cos(PI * x) > 0.0 else 0.0
        near = interferometric_subsystem(ModelParams(theta, g, 1.0 - 1e-9, j), subsystem)
        assert abs(wrap_angle(near.value - limit)) < 1e-8
