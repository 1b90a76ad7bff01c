import math

import numpy as np
import pytest

from spinphase import (
    QubitState,
    concurrence_equator,
    depolarize,
    eigenstate,
    pure_density,
    qubit_matrix,
    reduce_state,
)
from oracles import bloch, partial_trace_standard, validate_density

GRID_THETAS = np.linspace(0.2, math.pi - 0.2, 15)
GRID_GS = np.linspace(0.1, 3.0, 15)

SWAP = np.array([[0, 1], [1, 0]])


def reduced_oracle(j, theta, g, phi, subsystem):
    """Brute-force partial trace, in the basis ordering of reduce_state."""
    pt = partial_trace_standard(pure_density(j, theta, g, phi), subsystem)
    if subsystem == "B":
        pt = SWAP @ pt @ SWAP
    return pt


class TestPureDensity:
    def test_projector(self):
        rho = pure_density(2, 0.9, 1.2, 0.5)
        validate_density(rho)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        assert np.abs(rho @ rho - rho).max() < 1e-10

    def test_projects_onto_eigenstate(self):
        theta, g = math.pi / 2, 2.0
        rho = pure_density(2, theta, g, 0.0)
        v = eigenstate(2, theta, g, 0.0)
        assert np.allclose(rho @ v, v, atol=1e-12)

    def test_phi_covariance(self):
        phi = 1.3
        u = np.diag(np.exp(1j * phi * np.array([-1.0, 0.0, 0.0, 1.0])))
        rho0 = pure_density(3, 0.7, 0.9, 0.0)
        assert np.allclose(pure_density(3, 0.7, 0.9, phi), u @ rho0 @ u.conj().T, atol=1e-13)


class TestDepolarize:
    def test_identity_at_q0(self):
        rho = pure_density(1, 0.8, 1.1, 0.2)
        assert np.allclose(depolarize(rho, 0.0), rho)

    def test_fully_mixed_at_q1(self):
        rho = pure_density(1, 0.8, 1.1, 0.2)
        assert np.allclose(depolarize(rho, 1.0), np.eye(4) / 4.0, atol=1e-14)

    def test_projector_spectrum(self):
        rho = depolarize(pure_density(2, 0.8, 1.1, 0.2), 0.25)
        spectrum = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(spectrum, [0.0625, 0.0625, 0.0625, 0.8125], atol=1e-12)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            depolarize(pure_density(2, 0.8, 1.1, 0.0), 1.2)


class TestReduceState:
    def test_equator_populations_are_half(self):
        for g in (0.3, 1.0, 2.5):
            for s in "AB":
                assert reduce_state(2, math.pi / 2, g, s).a == pytest.approx(0.5, abs=1e-12)

    def test_partial_trace_oracle_grid(self):
        phi = 0.7
        for theta in GRID_THETAS:
            for g in GRID_GS:
                for j in (1, 2, 3, 4):
                    for s in "AB":
                        qs = reduce_state(j, float(theta), float(g), s)
                        oracle = reduced_oracle(j, float(theta), float(g), phi, s)
                        assert np.abs(qubit_matrix(qs, phi) - oracle).max() < 1e-12

    def test_separable_limit_is_pure(self):
        qs = reduce_state(2, math.pi / 4, 1e-12, "A")
        assert qs.p1 == pytest.approx(0.0, abs=1e-9)

    def test_phi_independent_coefficients(self):
        qs = reduce_state(2, 1.0, 1.4, "A")
        m0 = qubit_matrix(qs, 0.0)
        m1 = qubit_matrix(qs, 2.1)
        assert m0[0, 0] == m1[0, 0]
        assert abs(m0[0, 1]) == pytest.approx(abs(m1[0, 1]), abs=1e-15)

    def test_eigensystem_reconstruction(self):
        phi = 0.45
        qs = reduce_state(2, 0.9, 1.3, "A")
        m = qubit_matrix(qs, phi)
        w, v = np.linalg.eigh(m)
        assert w == pytest.approx([qs.p1, qs.p2], abs=1e-14)
        assert qs.bloch_length == pytest.approx(w[1] - w[0], abs=1e-14)
        assert np.abs((v * [qs.p1, qs.p2]) @ v.conj().T - m).max() < 1e-14
        assert qs.p1 + qs.p2 == pytest.approx(1.0, abs=1e-14)
        det = qs.a * (1 - qs.a) - qs.c**2
        assert qs.p1 * qs.p2 == pytest.approx(det, abs=1e-14)
        assert 0.0 <= qs.p1 <= 0.5 <= qs.p2 <= 1.0


class TestDepolarizeReduced:
    def test_identity_and_full_mixing(self):
        qs = reduce_state(2, 0.9, 1.3, "B")
        assert reduce_state(2, 0.9, 1.3, "B", 0.0) == qs
        mixed = reduce_state(2, 0.9, 1.3, "B", 1.0)
        assert mixed.a == pytest.approx(0.5) and mixed.c == pytest.approx(0.0)
        assert mixed.p1 == pytest.approx(0.5) and mixed.p2 == pytest.approx(0.5)

    def test_commutes_with_channel(self):
        q, phi = 0.3, 0.7
        for j in (1, 2):
            for s in "AB":
                qs_then = reduce_state(j, 0.9, 1.3, s, q)
                rho_d = depolarize(pure_density(j, 0.9, 1.3, phi), q)
                pt = partial_trace_standard(rho_d, s)
                if s == "B":
                    pt = SWAP @ pt @ SWAP
                assert np.abs(qubit_matrix(qs_then, phi) - pt).max() < 1e-12

    def test_eigenvalue_shift(self):
        qs = reduce_state(2, 0.9, 1.3, "A")
        q = 0.2
        qd = reduce_state(2, 0.9, 1.3, "A", q)
        assert qd.p1 == pytest.approx(q / 2 + (1 - q) * qs.p1, abs=1e-14)
        # The channel shifts the spectrum and leaves the level vectors as they are.
        _, v = np.linalg.eigh(qubit_matrix(qs, 0.3))
        _, vd = np.linalg.eigh(qubit_matrix(qd, 0.3))
        assert np.abs(np.abs(v.conj().T @ vd) - np.eye(2)).max() < 1e-12

    def test_det_identity(self):
        for theta in GRID_THETAS[::3]:
            for g in GRID_GS[::3]:
                for q in (0.1, 0.4, 0.8):
                    qs = reduce_state(2, float(theta), float(g), "A")
                    qd = reduce_state(2, float(theta), float(g), "A", q)
                    det = qs.a * (1 - qs.a) - qs.c**2
                    det_d = qd.a * (1 - qd.a) - qd.c**2
                    expected = (q / 2) * (1 - q / 2) + (1 - q) ** 2 * det
                    assert det_d == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_q(self):
        for q in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="^q must"):
                reduce_state(2, 0.9, 1.3, "A", q)


class TestBloch:
    def test_maximally_mixed_radius_zero(self):
        qs = QubitState(0.5, 0.0)
        _, r = bloch(qs, 0.0)
        assert r == 0.0

    def test_rejects_non_finite_coefficients(self):
        for a, c in ((float("nan"), 0.1), (0.5, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                QubitState(a, c)

    def test_radius_squared_is_one_minus_concurrence_squared(self):
        # The squared Bloch norm of either reduced state of a pure two-qubit
        # state determines the concurrence: |n|^2 = 1 - C^2.
        qs = reduce_state(2, math.pi / 2, 2.0, "A")
        _, r = bloch(qs, 0.3)
        c = concurrence_equator(2.0).value
        assert r**2 == pytest.approx(1.0 - c**2, abs=1e-12)
        assert r == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_depolarization_shrinks_linearly(self):
        qs = reduce_state(2, 0.8, 1.7, "B")
        _, r = bloch(qs, 0.0)
        _, rd = bloch(reduce_state(2, 0.8, 1.7, "B", 0.5), 0.0)
        assert rd == pytest.approx(0.5 * r, abs=1e-14)

    def test_vector_matches_state(self):
        qs = reduce_state(2, 0.8, 1.7, "A")
        phi = 0.6
        n, _ = bloch(qs, phi)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        rebuilt = 0.5 * (np.eye(2) + n[0] * sx - n[1] * sy + n[2] * sz)
        assert np.abs(rebuilt - qubit_matrix(qs, phi)).max() < 1e-12
