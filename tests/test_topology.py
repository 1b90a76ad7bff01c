import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from oracles import find_vortices_loop, phase_curve, sampled_winding, z_point

from spinphase import (
    G_CRITICAL_PURE,
    Q_TRANSITION_MAX,
    GridTooCoarseError,
    IllPosedError,
    ModelParams,
    WindingResult,
    concurrence_equator,
    critical_coupling,
    find_vortices,
    phase_map,
    winding_number,
)
from spinphase.topology import ORIENTATION

PI = math.pi


def _transition(q):
    """g_c(q) where a transition exists, else None."""
    return critical_coupling(q) if q <= Q_TRANSITION_MAX else None


def _near_transition(g, q, width):
    """Within width of the transition line g = g_c(q), in g or, at its end, in q."""
    g_c = _transition(q)
    return abs(q - Q_TRANSITION_MAX) <= width or (g_c is not None and abs(g - g_c) <= width)


_COUPLINGS = st.one_of(st.floats(0.0, 3.2), st.floats(1e-9, 1e-3))
_STRENGTHS = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 0.15))
_SUBSYSTEMS = st.sampled_from("AB")
_LEVELS = st.integers(1, 4)


class TestWindingNumber:
    def test_weak_coupling_winds_once(self):
        res = winding_number(0.1)
        assert res.winding == 1
        # At q = 0, r_eq is the concurrence itself.
        assert res.clearance == pytest.approx(math.cos(PI * concurrence_equator(0.1).value))

    def test_unit_coupling_winds_once(self):
        assert winding_number(1.0).winding == 1

    def test_strong_coupling_does_not_wind(self):
        res = winding_number(2.0)
        assert res.winding == 0
        assert res.clearance == pytest.approx(-math.cos(PI * concurrence_equator(2.0).value))

    def test_critical_coupling_is_ill_posed(self):
        with pytest.raises(IllPosedError):
            winding_number(G_CRITICAL_PURE)

    def test_depolarized_critical_coupling_is_ill_posed(self):
        for q in (0.01, 0.05, 0.1073, 0.13):
            for subsystem, j in (("A", 2), ("B", 3)):
                with pytest.raises(IllPosedError):
                    winding_number(critical_coupling(q), q, subsystem, j)

    def test_winding_step_across_transition(self):
        assert winding_number(G_CRITICAL_PURE - 1e-3).winding == 1
        assert winding_number(G_CRITICAL_PURE + 1e-3).winding == 0

    def test_curve_closure(self):
        # theta -> 0 and theta -> pi endpoints approach the same curve point.
        curve = phase_curve(0.5)
        assert abs(curve[-1] - curve[0]) < 1e-4

    def test_rejects_bad_arguments(self):
        for kwargs in (dict(subsystem="composite"), dict(j=5), dict(q=1.5)):
            with pytest.raises(ValueError):
                winding_number(1.0, **kwargs)
        with pytest.raises(ValueError):
            winding_number(-1.0)

    def test_separable_subsystem_b_does_not_wind(self):
        for q in (0.0, 0.05, Q_TRANSITION_MAX):
            assert winding_number(0.0, q, subsystem="B") == WindingResult(0, 1.0)

    def test_subsystem_b_winds_at_any_coupling_below_the_transition(self):
        # Only at g = 0 is B's reduced state diagonal for every theta; any
        # coupling gives its curve a polar layer of width ~g that winds.
        for j in (1, 2, 3, 4):
            assert winding_number(1e-12, 0.0, "B", j).winding == ORIENTATION["B"][j - 1]
            assert winding_number(0.0, 0.0, "B", j).winding == 0

    def test_subsystem_curves_are_mirrored(self):
        # The two subsystem curves traverse with opposite orientation, so the
        # windings are negatives of each other.
        for g in (0.4, 1.6, 2.4):
            assert winding_number(g, subsystem="A").winding == -winding_number(
                g, subsystem="B"
            ).winding

    @given(_COUPLINGS, _STRENGTHS, _SUBSYSTEMS, _LEVELS)
    def test_winds_below_the_transition(self, g, q, subsystem, j):
        assume(not _near_transition(g, q, 1e-6))
        g_c = _transition(q)
        # Uncoupled, B's curve is a single point and does not wind.
        expected = int(g_c is not None and g < g_c and (subsystem == "A" or g > 0.0))
        assert abs(winding_number(g, q, subsystem, j).winding) == expected

    @given(_COUPLINGS, _STRENGTHS, _SUBSYSTEMS, _LEVELS)
    @example(1e-5, 0.05, "A", 3)
    @example(0.2, 0.05, "B", 4)
    def test_matches_sampled_curve(self, g, q, subsystem, j):
        assume(not _near_transition(g, q, 1e-3))
        # The sampled curve misses the polar layer of subsystem B, of width ~g:
        # below 1e-6 from the poles it is not sampled.
        assume(subsystem == "A" or g > 1e-5)
        closed = winding_number(g, q, subsystem, j).winding
        assert closed == sampled_winding(phase_curve(g, q, subsystem, j))

    @given(_COUPLINGS.filter(lambda g: g > 1e-5), st.floats(0.0, 0.3), _SUBSYSTEMS, _LEVELS)
    def test_orientation_is_the_sign_of_the_curve(self, g, q, subsystem, j):
        for theta in np.linspace(0.05, PI / 2, 24, endpoint=False):
            im = (-2.0 * z_point(ModelParams(float(theta), g, q, j), subsystem)).imag
            assert np.sign(im) == ORIENTATION[subsystem][j - 1]


class TestPhaseMap:
    def test_values_on_equator_row(self):
        thetas = np.array([PI / 2])
        gs = np.array([0.5, 2.5])
        values, flags = phase_map(thetas, gs)
        assert flags.sum() == 0
        assert values[0, 0] == pytest.approx(PI)
        assert values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_point_flagged(self):
        thetas = np.array([PI / 2])
        gs = np.array([G_CRITICAL_PURE])
        values, flags = phase_map(thetas, gs)
        assert flags[0, 0] == 2
        assert math.isnan(values[0, 0])


class TestFindVortices:
    def test_detects_the_critical_vortex(self):
        # Even sample count keeps the equator (where the step is exactly pi,
        # a wrap-ambiguous link) between grid rows.
        thetas = np.linspace(1.2, PI - 1.2, 40)
        gs = np.linspace(0.9, 1.5, 40)
        values, flags = phase_map(thetas, gs)
        hits = find_vortices(values, thetas, gs, flags)
        assert len(hits) == 1
        hit = hits[0]
        assert abs(hit.theta_cell - PI / 2) < 0.05
        assert abs(hit.g_cell - G_CRITICAL_PURE) < 0.05
        assert abs(abs(hit.circulation) - 2.0 * PI) < 1e-9

    def test_clean_region_has_no_vortices(self):
        thetas = np.linspace(1.0, PI - 1.0, 21)
        gs = np.linspace(2.0, 3.0, 21)
        values, flags = phase_map(thetas, gs)
        assert find_vortices(values, thetas, gs, flags) == []

    def test_degenerate_sample_counts_as_hit(self):
        thetas = np.array([PI / 2 - 0.01, PI / 2 + 0.01])
        gs = np.array([G_CRITICAL_PURE - 0.01, G_CRITICAL_PURE + 0.01])
        values = np.zeros((2, 2))
        flags = np.zeros((2, 2), dtype=int)
        flags[0, 0] = 2
        hits = find_vortices(values, thetas, gs, flags)
        assert len(hits) == 1

    def test_coarse_grid_raises(self):
        # A 2-point theta axis across the full phase step produces jumpy
        # links everywhere.
        rng = np.random.default_rng(7)
        values = rng.uniform(-PI, PI, size=(6, 6))
        axis = np.linspace(0.5, 2.5, 6)
        with pytest.raises(GridTooCoarseError):
            find_vortices(values, axis, axis)

    def test_matches_loop_oracle(self):
        # Same hits (floats and order) and the same errors as the
        # plaquette-by-plaquette search, on even and odd grids: an odd theta
        # count over a symmetric range puts the equator on a grid row.
        rng = np.random.default_rng(11)
        for case in range(60):
            nt, ng = (int(n) for n in rng.integers(2, 26, size=2))
            lo = float(rng.uniform(0.0, 1.4))
            hi = PI - lo if case % 2 else float(rng.uniform(1.7, PI))
            thetas = np.linspace(lo, hi, nt)
            gs = np.linspace(rng.uniform(0.0, 0.5), rng.uniform(1.0, 2.6), ng)
            q = float(rng.choice([0.0, 0.05, 0.1073]))
            values, flags = phase_map(thetas, gs, q, "AB"[case % 3 % 2], case % 4 + 1)
            values = values + rng.choice([0.0, 0.0, 0.1, 3.0]) * rng.normal(size=values.shape)
            flags[rng.random(flags.shape) < 0.02] = 1
            flags[rng.random(flags.shape) < 0.02] = 2
            if case % 5 == 0:
                values[flags != 0] = np.nan
                flags = None
            outcomes = []
            for search in (find_vortices, find_vortices_loop):
                try:
                    outcomes.append(search(values, thetas, gs, flags))
                except GridTooCoarseError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
