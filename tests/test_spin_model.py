import math

import numpy as np
import pytest
from hypothesis import given

from spinphase import (
    DomainBoundaryError,
    ModelParams,
    eigenstate,
    eigenvalues,
    eigenvector_components,
    hamiltonian,
)
from spinphase.spin_model import G_LIMIT, MAX_STEPS, check_param
from strategies import COUPLINGS, THETAS, with_reproducers

INTERIOR_THETAS = np.linspace(0.15, math.pi - 0.15, 20)
INTERIOR_GS = np.linspace(0.1, 3.0, 20)


class TestModelParams:
    def test_accepts_admissible_values(self):
        p = ModelParams(theta=1.0, g=0.5, q=0.25, j=3, phi0=0.1)
        assert p.j == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=-0.1, g=1.0),
            dict(theta=math.pi + 0.1, g=1.0),
            dict(theta=1.0, g=-1.0),
            dict(theta=1.0, g=1.0, q=1.5),
            dict(theta=1.0, g=1.0, j=5),
            dict(theta=float("nan"), g=1.0),
            dict(theta=1.0, g=float("inf")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestCheckParam:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("theta", 4.0, "theta must lie in [0, pi], got 4.0"),
            ("g", -1, "g must be >= 0, got -1.0"),
            ("q", 1.5, "q must lie in [0, 1], got 1.5"),
            ("q", float("nan"), "q must be finite, got nan"),
            ("phi", float("inf"), "phi must be finite, got inf"),
            ("j", 5, "j must be one of 1..4, got 5"),
            ("steps", 15, "steps must lie in [16, 32768], got 15"),
            ("steps", 40000, "steps must lie in [16, 32768], got 40000"),
        ],
    )
    def test_message_names_the_parameter(self, name, value, message):
        with pytest.raises(ValueError) as info:
            check_param(name, value)
        assert str(info.value) == message

    def test_returns_floats_and_counts(self):
        assert check_param("g", 2) == 2.0 and isinstance(check_param("g", 2), float)
        assert check_param("j", 4) == 4
        assert check_param("steps", 16) == 16
        assert check_param("steps", MAX_STEPS // 2) == MAX_STEPS // 2


class TestHamiltonian:
    def test_uncoupled_equator_is_sigma_x(self):
        h = hamiltonian(math.pi / 2, 0.0, 0.0)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.kron(sx, np.eye(2))[np.ix_([1, 0, 3, 2], [1, 0, 3, 2])]
        assert np.allclose(h, expected, atol=1e-14)

    def test_uncoupled_pole_is_sigma_z(self):
        h = hamiltonian(0.0, 0.0, 0.0)
        sz = np.diag([1.0, -1.0]).astype(complex)
        expected = np.kron(sz, np.eye(2))[np.ix_([1, 0, 3, 2], [1, 0, 3, 2])]
        assert np.allclose(h, expected, atol=1e-14)

    def test_hermitian(self):
        h = hamiltonian(0.9, 2.2, 1.7)
        assert np.abs(h - h.conj().T).max() < 1e-14

    def test_eigenpairs_against_dense_solver(self):
        theta, phi, g = math.pi / 3, 1.1, 0.7
        h = hamiltonian(theta, phi, g)
        for j in (1, 2, 3, 4):
            v = eigenstate(j, theta, g, phi)
            e = eigenvalues(theta, g)[j - 1]
            assert np.linalg.norm(h @ v - e * v) < 1e-12


class TestEigenvalues:
    def test_uncoupled_spectrum(self):
        assert eigenvalues(0.77, 0.0) == (1.0, -1.0, 1.0, -1.0)

    def test_equator_g2_closed_value(self):
        # sqrt(3 + 2 sqrt(2)) = 1 + sqrt(2)
        e1 = eigenvalues(math.pi / 2, 2.0)[0]
        assert e1 == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)

    def test_matches_dense_solver(self):
        theta, g = math.pi / 4, 1.0
        dense = np.linalg.eigvalsh(hamiltonian(theta, 0.0, g))
        assert np.allclose(sorted(eigenvalues(theta, g)), dense, atol=1e-12)

    def test_symmetries(self):
        for theta in INTERIOR_THETAS:
            for g in INTERIOR_GS:
                e1, e2, e3, e4 = eigenvalues(float(theta), float(g))
                assert e2 == -e1 and e4 == -e3
                assert e1 >= e3 >= 0.0
                mirrored = eigenvalues(math.pi - float(theta), float(g))
                assert np.allclose((e1, e2, e3, e4), mirrored, atol=1e-13)


class TestEigenvectorComponents:
    def test_equator_g2_ground_state(self):
        u1, _, u3, _, _ = eigenvector_components(2, math.pi / 2, 2.0)
        assert u1 == pytest.approx(1.0, abs=1e-14)
        assert u3 == pytest.approx(-(1.0 + math.sqrt(2.0)), abs=1e-13)

    def test_small_theta_components_vanish_like_sin(self):
        # u1 and u4 are O(sin theta); halving theta halves them.
        u1, _, _, u4, _ = eigenvector_components(2, 1e-4, 1.0)
        v1, _, _, v4, _ = eigenvector_components(2, 5e-5, 1.0)
        assert abs(u1) < 1e-3 and abs(u4) < 1e-3
        assert u1 / v1 == pytest.approx(2.0, abs=1e-6)
        assert u4 / v4 == pytest.approx(2.0, abs=1e-6)

    def test_separable_limit_subsystem_b_on_equator(self):
        # g -> 0+ ground state factorizes with the driven-free spin on the
        # Bloch equator: reduced coefficients a = c = 1/2.
        from spinphase import reduce_state

        qs = reduce_state(2, math.pi / 2, 1e-12, "B")
        assert qs.a == pytest.approx(0.5, abs=1e-9)
        assert qs.c == pytest.approx(0.5, abs=1e-9)
        assert qs.p1 == pytest.approx(0.0, abs=1e-9)

    def test_limit_branch_continuous_with_formula(self):
        for j in (1, 2, 3, 4):
            lim = eigenvector_components(j, 1.1, 0.0)
            near = eigenvector_components(j, 1.1, 1e-7)
            v_lim = np.array(lim[:4]) / math.sqrt(lim[4])
            v_near = np.array(near[:4]) / math.sqrt(near[4])
            assert np.allclose(v_lim, v_near, atol=1e-6)

    def test_domain_boundary_at_poles_with_coupling(self):
        with pytest.raises(DomainBoundaryError):
            eigenvector_components(3, 0.0, 1.0)
        with pytest.raises(DomainBoundaryError):
            eigenvector_components(1, math.pi, 0.5)

    def test_norm_positive_on_interior(self):
        for theta in INTERIOR_THETAS[::4]:
            for g in INTERIOR_GS[::4]:
                for j in (1, 2, 3, 4):
                    assert eigenvector_components(j, float(theta), float(g))[4] > 0.0


class TestCancellationFree:
    @given(THETAS, COUPLINGS)
    @with_reproducers()
    def test_eigen_residual(self, theta, g):
        h = hamiltonian(theta, 0.4, g)
        # Up to G_LIMIT the components are the g -> 0+ limit, whose residual
        # in H(g) is of order g (at most g / sqrt(2)); at g = 0 it is exact.
        tol = 1e-13 * max(1.0, g) + (g if g <= G_LIMIT else 0.0)
        for j in (1, 2, 3, 4):
            v = eigenstate(j, theta, g, 0.4)
            hv = h @ v
            assert np.linalg.norm(hv - np.vdot(v, hv) * v) <= tol

    @given(THETAS, COUPLINGS)
    @with_reproducers()
    def test_energies_match_dense_solver(self, theta, g):
        dense = np.linalg.eigvalsh(hamiltonian(theta, 0.0, g))
        closed = np.sort(eigenvalues(theta, g))
        assert np.abs(closed - dense).max() <= 1e-13 * max(1.0, g)


class TestEigenstate:
    def test_unit_norm(self):
        v = eigenstate(3, 0.8, 1.4, 2.2)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_phi_enters_only_as_edge_phases(self):
        phi = 0.9
        v = eigenstate(2, 0.8, 1.4, phi)
        v0 = eigenstate(2, 0.8, 1.4, 0.0)
        assert v[0] == pytest.approx(v0[0] * np.exp(-1j * phi), abs=1e-14)
        assert v[3] == pytest.approx(v0[3] * np.exp(1j * phi), abs=1e-14)
        assert v[1] == v0[1] and v[2] == v0[2]

    def test_residual_at_spec_point(self):
        theta, g, phi = math.pi / 3, 1.5, 0.4
        h = hamiltonian(theta, phi, g)
        v = eigenstate(2, theta, g, phi)
        assert np.linalg.norm(h @ v - eigenvalues(theta, g)[1] * v) < 1e-10

    def test_orthonormality_and_residual_grid(self):
        for theta in INTERIOR_THETAS:
            for g in INTERIOR_GS:
                basis = np.column_stack(
                    [eigenstate(j, float(theta), float(g), 0.6) for j in (1, 2, 3, 4)]
                )
                gram = basis.conj().T @ basis
                assert np.abs(gram - np.eye(4)).max() < 1e-10
                h = hamiltonian(float(theta), 0.6, float(g))
                es = eigenvalues(float(theta), float(g))
                for j in (1, 2, 3, 4):
                    res = np.linalg.norm(h @ basis[:, j - 1] - es[j - 1] * basis[:, j - 1])
                    assert res < 1e-10

    def test_phi_derivative_overlap_formula(self):
        # <u_i | d_phi u_j> = i (u_i4 u_j4 - u_i1 u_j1) / sqrt(N_i N_j)
        theta, g, phi, step = 0.9, 1.3, 0.7, 1e-5
        comps = [eigenvector_components(j, theta, g) for j in (1, 2, 3, 4)]
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                up = eigenstate(j, theta, g, phi + step)
                um = eigenstate(j, theta, g, phi - step)
                numeric = np.vdot(eigenstate(i, theta, g, phi), (up - um) / (2 * step))
                ui, uj = comps[i - 1], comps[j - 1]
                analytic = 1j * (ui[3] * uj[3] - ui[0] * uj[0]) / math.sqrt(ui[4] * uj[4])
                assert abs(numeric - analytic) < 1e-8
