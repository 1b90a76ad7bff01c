import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import connection_commutator
from spinphase import (
    ConvergenceFailureError,
    DegeneratePhaseError,
    Holonomy,
    ModelParams,
    composite_sampler,
    converged_phase,
    depolarize,
    depolarized_spectrum,
    eigenbasis,
    integrate_holonomy,
    pure_density,
    reduce_state,
    uhlmann_phase,
    uhlmann_subsystem,
    reduced_sampler,
)

PI = math.pi


def at(sampler, phi):
    """The connection a sampler gives at a single loop angle."""
    return sampler(np.asarray([phi]))[0]


def composite_sqrt(theta, g, j, q):
    """Spectral square root of the depolarized composite state, as a phi map."""
    p = np.sqrt(depolarized_spectrum(j, q))

    def fn(phi):
        w = eigenbasis(theta, g, phi)
        return (w * p) @ w.conj().T

    return fn


def reduced_sqrt(qs):
    def fn(phi):
        w, v = np.linalg.eigh(qs.matrix(phi))
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T

    return fn


class TestSpectrum:
    def test_values(self):
        p = depolarized_spectrum(2, 0.2)
        assert p[1] == pytest.approx(0.85)
        assert p[0] == p[2] == p[3] == pytest.approx(0.05)
        assert p.sum() == pytest.approx(1.0)

    def test_pure_limit(self):
        assert list(depolarized_spectrum(3, 0.0)) == [0.0, 0.0, 1.0, 0.0]


class TestCompositeConnection:
    def test_antihermitian(self):
        for phi in (0.0, 1.1, 4.0):
            a = at(composite_sampler(ModelParams(0.9, 1.3, 0.25, 2)), phi)
            assert np.allclose(a, -a.conj().T, atol=1e-12)

    def test_commutator_oracle(self):
        # Compare against the finite-difference commutator construction
        # [d sqrt(rho), sqrt(rho)] projected onto the eigenbasis.
        for theta, g, q, phi in [
            (0.8, 1.2, 0.3, 0.0),
            (1.7, 0.6, 0.1, 1.3),
            (PI / 2, 2.0, 0.5, 2.9),
        ]:
            params = ModelParams(theta, g, q, 2)
            a = at(composite_sampler(params), phi)
            w = eigenbasis(theta, g, phi)
            oracle = connection_commutator(
                composite_sqrt(theta, g, 2, q), w, depolarized_spectrum(2, q), phi
            )
            assert np.allclose(a, oracle, atol=1e-7)

    def test_sampler_matches_scalar(self):
        # A batch of angles gives the connections of each angle on its own.
        sampler = composite_sampler(ModelParams(1.1, 0.7, 0.15, 3))
        phis = np.array([0.0, 0.5, 2.2, 5.9])
        batch = sampler(phis)
        for k, phi in enumerate(phis):
            assert np.allclose(batch[k], at(sampler, float(phi)), atol=1e-14)


class TestReducedConnection:
    def test_antihermitian_and_traceless(self):
        qs = reduce_state(2, 0.8, 1.5, "A", 0.2)
        a = at(reduced_sampler(qs), 0.7)
        assert np.allclose(a, -a.conj().T, atol=1e-14)
        assert abs(np.trace(a)) < 1e-14

    def test_commutator_oracle(self):
        for j, theta, g, q, sub, phi in [
            (2, 0.8, 1.5, 0.0, "A", 0.4),
            (2, 1.9, 0.7, 0.3, "B", 2.1),
            (1, PI / 2, 2.5, 0.1, "A", 5.0),
        ]:
            qs = reduce_state(j, theta, g, sub, q)
            a = at(reduced_sampler(qs), phi)
            w, v = np.linalg.eigh(qs.matrix(phi))
            oracle = connection_commutator(reduced_sqrt(qs), v, w, phi)
            assert np.allclose(a, oracle, atol=1e-7)

    def test_trivial_state_gives_zero(self):
        from spinphase import QubitState

        qs = QubitState(0.3, 0.0)
        assert np.allclose(at(reduced_sampler(qs), 1.0), 0.0)


class TestIntegration:
    def test_equator_matrix_exponential_oracle(self):
        # On the equator a = 1/2, so the reduced connection is constant and
        # the loop holonomy is exactly exp(2 pi A).
        qs = reduce_state(2, PI / 2, 1.4, "A")
        a = at(reduced_sampler(qs), 0.0)
        hol = integrate_holonomy(reduced_sampler(qs), 0.0, steps=4096)
        assert np.allclose(hol.V, expm(2.0 * PI * a), atol=1e-10)

    def test_unitarity_defect_small(self):
        params = ModelParams(0.9, 1.2, 0.3, 2)
        hol = integrate_holonomy(composite_sampler(params), 0.0, steps=2048)
        assert hol.unitarity_defect < 1e-10

    def test_step_floor(self):
        qs = reduce_state(2, 1.0, 1.0, "A")
        with pytest.raises(ValueError):
            integrate_holonomy(reduced_sampler(qs), 0.0, steps=8)

    def test_matches_closed_form_reduced(self):
        for j, theta, g, q, sub in [
            (2, 0.7, 1.4, 0.0, "A"),
            (2, 1.1, 0.8, 0.25, "B"),
            (3, 2.0, 2.3, 0.1, "A"),
        ]:
            qs = reduce_state(j, theta, g, sub, q)
            phase, _ = converged_phase(reduced_sampler(qs), qs.matrix(0.0), 0.0)
            expected = uhlmann_subsystem(ModelParams(theta, g, q, j), sub)
            assert phase.value == pytest.approx(expected.value, abs=1e-9)

    def test_gauge_start_independence(self):
        # The loop phase must not depend on the starting angle phi0.
        qs = reduce_state(2, 1.2, 1.7, "A", 0.2)
        reference = None
        for phi0 in (0.0, PI / 3, 1.7):
            phase, _ = converged_phase(reduced_sampler(qs), qs.matrix(phi0), phi0)
            if reference is None:
                reference = phase.value
            assert phase.value == pytest.approx(reference, abs=1e-9)

    def test_self_convergence(self):
        params = ModelParams(1.0, 1.5, 0.2, 2)
        rho0 = depolarize(pure_density(2, 1.0, 1.5, 0.0), 0.2)
        sampler = composite_sampler(params)
        a = uhlmann_phase(rho0, integrate_holonomy(sampler, 0.0, 2000))
        b = uhlmann_phase(rho0, integrate_holonomy(sampler, 0.0, 4000))
        assert a.value == pytest.approx(b.value, abs=1e-10)

    @pytest.mark.parametrize("start_steps", [8, 15, 40000])
    def test_converged_phase_rejects_start_steps(self, start_steps):
        # Above MAX_STEPS // 2 no doubling could confirm the first integration.
        qs = reduce_state(2, 0.9, 1.1, "A")
        with pytest.raises(ValueError, match="^steps must"):
            converged_phase(reduced_sampler(qs), qs.matrix(0.0), start_steps=start_steps)

    def test_converged_phase_reports_steps(self):
        qs = reduce_state(2, 0.9, 1.1, "A")
        phase, hol = converged_phase(reduced_sampler(qs), qs.matrix(0.0))
        assert isinstance(hol, Holonomy)
        assert hol.steps >= 1024
        assert phase.magnitude is not None and 0.0 < phase.magnitude <= 1.0 + 1e-12


class TestPhaseExtraction:
    def test_dimension_mismatch(self):
        hol = Holonomy(np.eye(2, dtype=complex), 16, 0.0)
        with pytest.raises(ValueError):
            uhlmann_phase(np.eye(4) / 4.0, hol)

    def test_identity_holonomy_phase_zero(self):
        hol = Holonomy(np.eye(2, dtype=complex), 16, 0.0)
        phase = uhlmann_phase(np.diag([0.7, 0.3]).astype(complex), hol)
        assert phase.value == 0.0
        assert phase.magnitude == pytest.approx(1.0)

    def test_vanishing_trace_raises(self):
        hol = Holonomy(np.diag([1.0, -1.0]).astype(complex), 16, 0.0)
        with pytest.raises(DegeneratePhaseError):
            uhlmann_phase(np.eye(2, dtype=complex) / 2.0, hol)
