import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from oracles import connection_commutator
from spinphase import (
    ConvergenceFailureError,
    DegeneratePhaseError,
    Holonomy,
    ModelParams,
    composite_generator,
    composite_sampler,
    converged_phase,
    depolarize,
    depolarized_spectrum,
    eigenbasis,
    integrate_holonomy,
    pure_density,
    qubit_matrix,
    reduce_state,
    uhlmann_phase,
    uhlmann_subsystem,
    reduced_sampler,
)
from spinphase import holonomy
from spinphase.holonomy import CHUNK_STEPS, PAULI, PHASE_TOL
from spinphase.spin_model import MAX_STEPS

PI = math.pi


def at(sampler, phi):
    """The connection the first point of a sampler's batch has at a single loop angle."""
    return sampler(np.asarray([phi]))[0, 0]


def composite_one(params):
    """Sampler of a batch of one composite point."""
    return composite_sampler([composite_generator(params)])


def reduced_one(qs):
    """Sampler of a batch of one reduced state."""
    return reduced_sampler([qs])


def converged_one(sampler, rho0, phi0=0.0, **kwargs):
    """The phase and holonomy of a batch of one, raising where the point is flagged."""
    (outcome,), hol = converged_phase(sampler, np.asarray(rho0)[None], phi0, **kwargs)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome, hol


def composite_sqrt(theta, g, j, q):
    """Spectral square root of the depolarized composite state, as a phi map."""
    p = np.sqrt(depolarized_spectrum(j, q))

    def fn(phi):
        w = eigenbasis(theta, g, phi)
        return (w * p) @ w.conj().T

    return fn


def reduced_sqrt(qs):
    def fn(phi):
        w, v = np.linalg.eigh(qubit_matrix(qs, phi))
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
            a = at(composite_one(ModelParams(0.9, 1.3, 0.25, 2)), phi)
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
            a = at(composite_one(params), phi)
            w = eigenbasis(theta, g, phi)
            oracle = connection_commutator(
                composite_sqrt(theta, g, 2, q), w, depolarized_spectrum(2, q), phi
            )
            assert np.allclose(a, oracle, atol=1e-7)

    def test_sampler_matches_scalar(self):
        # A batch of angles gives the connections of each angle on its own.
        sampler = composite_one(ModelParams(1.1, 0.7, 0.15, 3))
        phis = np.array([0.0, 0.5, 2.2, 5.9])
        batch = sampler(phis)
        for k, phi in enumerate(phis):
            assert np.allclose(batch[k, 0], at(sampler, float(phi)), atol=1e-14)


class TestReducedConnection:
    def test_antihermitian_and_traceless(self):
        qs = reduce_state(2, 0.8, 1.5, "A", 0.2)
        a = at(reduced_one(qs), 0.7)
        assert np.allclose(a, -a.conj().T, atol=1e-14)
        assert abs(np.trace(a)) < 1e-14

    def test_commutator_oracle(self):
        for j, theta, g, q, sub, phi in [
            (2, 0.8, 1.5, 0.0, "A", 0.4),
            (2, 1.9, 0.7, 0.3, "B", 2.1),
            (1, PI / 2, 2.5, 0.1, "A", 5.0),
        ]:
            qs = reduce_state(j, theta, g, sub, q)
            a = at(reduced_one(qs), phi)
            w, v = np.linalg.eigh(qubit_matrix(qs, phi))
            oracle = connection_commutator(reduced_sqrt(qs), v, w, phi)
            assert np.allclose(a, oracle, atol=1e-7)

    def test_trivial_state_gives_zero(self):
        from spinphase import QubitState

        qs = QubitState(0.3, 0.0)
        assert np.allclose(at(reduced_one(qs), 1.0), 0.0)


class TestIntegration:
    def test_equator_matrix_exponential_oracle(self):
        # On the equator a = 1/2, so the reduced connection is constant and
        # the loop holonomy is exactly exp(2 pi A).
        qs = reduce_state(2, PI / 2, 1.4, "A")
        a = at(reduced_one(qs), 0.0)
        hol = integrate_holonomy(reduced_one(qs), 0.0, steps=4096)
        assert np.allclose(hol.V[0], expm(2.0 * PI * a), atol=1e-10)

    def test_unitarity_defect_small(self):
        params = ModelParams(0.9, 1.2, 0.3, 2)
        hol = integrate_holonomy(composite_one(params), 0.0, steps=2048)
        assert hol.unitarity_defect.shape == (1,)
        assert hol.unitarity_defect[0] < 1e-10

    def test_step_floor(self):
        qs = reduce_state(2, 1.0, 1.0, "A")
        with pytest.raises(ValueError):
            integrate_holonomy(reduced_one(qs), 0.0, steps=8)

    def test_matches_closed_form_reduced(self):
        for j, theta, g, q, sub in [
            (2, 0.7, 1.4, 0.0, "A"),
            (2, 1.1, 0.8, 0.25, "B"),
            (3, 2.0, 2.3, 0.1, "A"),
        ]:
            qs = reduce_state(j, theta, g, sub, q)
            phase, _ = converged_one(reduced_one(qs), qubit_matrix(qs, 0.0), 0.0)
            expected = uhlmann_subsystem(ModelParams(theta, g, q, j), sub)
            assert phase.value == pytest.approx(expected.value, abs=1e-9)

    def test_gauge_start_independence(self):
        # The loop phase must not depend on the starting angle phi0.
        qs = reduce_state(2, 1.2, 1.7, "A", 0.2)
        reference = None
        for phi0 in (0.0, PI / 3, 1.7):
            phase, _ = converged_one(reduced_one(qs), qubit_matrix(qs, phi0), phi0)
            if reference is None:
                reference = phase.value
            assert phase.value == pytest.approx(reference, abs=1e-9)

    def test_self_convergence(self):
        params = ModelParams(1.0, 1.5, 0.2, 2)
        rho0 = depolarize(pure_density(2, 1.0, 1.5, 0.0), 0.2)
        sampler = composite_one(params)
        a = uhlmann_phase(rho0, integrate_holonomy(sampler, 0.0, 2000).V[0])
        b = uhlmann_phase(rho0, integrate_holonomy(sampler, 0.0, 4000).V[0])
        assert a.value == pytest.approx(b.value, abs=1e-10)

    @pytest.mark.parametrize("start_steps", [8, 15, 40000])
    def test_converged_phase_rejects_start_steps(self, start_steps):
        # Above MAX_STEPS // 2 no doubling could confirm the first integration.
        qs = reduce_state(2, 0.9, 1.1, "A")
        with pytest.raises(ValueError, match="^steps must"):
            converged_phase(reduced_one(qs), qubit_matrix(qs, 0.0)[None], start_steps=start_steps)

    def test_converged_phase_reports_steps(self):
        qs = reduce_state(2, 0.9, 1.1, "A")
        phase, hol = converged_one(reduced_one(qs), qubit_matrix(qs, 0.0))
        assert isinstance(hol, Holonomy)
        assert hol.steps >= 1024
        assert phase.magnitude is not None and 0.0 < phase.magnitude <= 1.0 + 1e-12


class TestPhaseExtraction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            uhlmann_phase(np.eye(4) / 4.0, np.eye(2, dtype=complex))

    def test_identity_holonomy_phase_zero(self):
        phase = uhlmann_phase(np.diag([0.7, 0.3]).astype(complex), np.eye(2, dtype=complex))
        assert phase.value == 0.0
        assert phase.magnitude == pytest.approx(1.0)

    def test_vanishing_trace_raises(self):
        with pytest.raises(DegeneratePhaseError):
            uhlmann_phase(np.eye(2, dtype=complex) / 2.0, np.diag([1.0, -1.0]).astype(complex))


def batch(subsystem, points):
    """Initial states, batch sampler and one-point oracle samplers of points at phi0 = 0."""
    if subsystem == "composite":
        rho0 = [depolarize(pure_density(p.j, p.theta, p.g, 0.0), p.q) for p in points]
        sampler = composite_sampler([composite_generator(p) for p in points])
        ones = [oracles.composite_point_sampler(p) for p in points]
    else:
        qss = [reduce_state(p.j, p.theta, p.g, subsystem, p.q) for p in points]
        rho0 = [qubit_matrix(qs, 0.0) for qs in qss]
        sampler = reduced_sampler(qss)
        ones = [oracles.reduced_point_sampler(qs) for qs in qss]
    return np.stack(rho0), sampler, ones


def assert_matches_oracle(rho0, sampler, ones, start_steps, tol=PHASE_TOL, max_steps=MAX_STEPS):
    """The batch kernel against the one-point oracle, bit for bit; returns each point's steps."""
    outcomes, hol = converged_phase(sampler, rho0, 0.0, start_steps=start_steps, tol=tol)
    assert len(outcomes) == len(ones) == hol.V.shape[0]
    steps = []
    for i, one in enumerate(ones):
        try:
            phase, v, n = oracles.converged_point(one, rho0[i], 0.0, start_steps, tol, max_steps)
        except (DegeneratePhaseError, ConvergenceFailureError) as exc:
            assert type(outcomes[i]) is type(exc)
            assert str(outcomes[i]) == str(exc)
            steps.append(None)
            continue
        assert not isinstance(outcomes[i], Exception)
        assert outcomes[i].value == phase.value
        assert outcomes[i].magnitude == phase.magnitude
        assert np.array_equal(hol.V[i], v)
        steps.append(n)
    return steps


class TestBatchKernel:
    def test_sampler_is_the_stack_of_one_point_samplers(self):
        phis = 0.01 * np.arange(700) - 1.0
        points = [ModelParams(0.7, 1.9, 0.3, 1), ModelParams(2.2, 0.4, 0.0, 4)]
        for subsystem in ("A", "B", "composite"):
            _, sampler, ones = batch(subsystem, points)
            samples = sampler(phis)
            for i, one in enumerate(ones):
                assert np.array_equal(samples[:, i], one(phis))

    def test_chunked_integration_matches_oracle(self):
        # A step count that leaves a partial last chunk.
        steps = 2 * CHUNK_STEPS + 3
        points = [ModelParams(0.9, 1.2, 0.3, 2), ModelParams(1.7, 2.5, 0.0, 3),
                  ModelParams(0.4, 0.6, 0.8, 1)]
        h = 2.0 * PI / steps
        _, sampler, ones = batch("composite", points)
        hol = integrate_holonomy(sampler, 0.4, steps)
        assert hol.steps == steps and hol.V.shape == (3, 4, 4)
        for i, one in enumerate(ones):
            samples = one(0.4 + 0.5 * h * np.arange(2 * steps + 1))
            assert np.array_equal(hol.V[i], oracles.integrate_samples(samples, h))

    @settings(max_examples=12)
    @given(
        subsystem=st.sampled_from(("A", "B", "composite")),
        thetas=st.lists(st.floats(0.05, PI - 0.05), min_size=1, max_size=2),
        gs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2),
        q=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        j=st.integers(1, 4),
        start_steps=st.integers(64, 512),
    )
    def test_matches_one_point_oracle(self, subsystem, thetas, gs, q, j, start_steps):
        points = [ModelParams(theta, g, q, j) for theta in thetas for g in gs]
        assert_matches_oracle(*batch(subsystem, points), start_steps)

    def test_points_settle_at_their_own_step_counts(self):
        points = [ModelParams(theta, g, 0.0, 2) for theta in (0.5, 1.2) for g in (0.3, 1.0)]
        steps = assert_matches_oracle(*batch("A", points), 64)
        assert steps == [128, 128, 256, 128]

    def test_vanishing_trace_is_flagged_in_a_batch(self):
        # Point 0 has no connection, so V = 1 and a traceless rho0 has a
        # vanishing Tr[rho0 V]; point 1 turns at a constant rate.
        turn = 0.1j * PAULI[2]

        def sampler(phis):
            out = np.zeros((len(phis), 2, 2, 2), dtype=complex)
            out[:, 1] = turn
            return out

        ones = [lambda phis, i=i: sampler(phis)[:, i] for i in (0, 1)]
        rho0 = np.stack([np.diag([0.5, -0.5]), np.diag([0.7, 0.3])]).astype(complex)
        assert assert_matches_oracle(rho0, sampler, ones, 64) == [None, 128]
        outcomes, _ = converged_phase(sampler, rho0, start_steps=64)
        assert isinstance(outcomes[0], DegeneratePhaseError)

    def test_no_convergence_is_flagged_per_point(self, monkeypatch):
        # A lower step ceiling keeps the forced failure cheap.
        monkeypatch.setattr(holonomy, "MAX_STEPS", 256)
        points = [ModelParams(0.9, 1.2, 0.3, 2), ModelParams(1.7, 2.5, 0.0, 3)]
        rho0, sampler, ones = batch("composite", points)
        steps = assert_matches_oracle(rho0, sampler, ones, 64, tol=1e-300, max_steps=256)
        assert steps == [None, None]
        outcomes, hol = converged_phase(sampler, rho0, start_steps=64, tol=1e-300)
        assert all(isinstance(o, ConvergenceFailureError) for o in outcomes)
        assert hol.steps == 256

    def test_memory_does_not_grow_with_steps(self):
        # The connection samples of one chunk, not of the whole loop, exist at
        # once: 32768 steps held at once would take 2 * 32768 + 1 samples of
        # 256 B, 16.8 MB.
        sampler = composite_one(ModelParams(1.0, 1.5, 0.2, 2))
        tracemalloc.start()
        try:
            integrate_holonomy(sampler, 0.0, 32768)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
