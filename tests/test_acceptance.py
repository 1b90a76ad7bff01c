"""End-to-end acceptance checks, one summary line per criterion."""

import math

import numpy as np
import pytest

from oracles import concurrence_wootters
from spinphase import (
    G_CRITICAL_PURE,
    Q_TRANSITION_MAX,
    ModelParams,
    OutOfTransitionRangeError,
    SweepSpec,
    berry_composite,
    concurrence_depolarized,
    concurrence_equator,
    concurrence_pure,
    critical_coupling,
    depolarize,
    find_vortices,
    interferometric_subsystem,
    phase_map,
    pure_density,
    reduce_state,
    run_sweep,
    transition_concurrence,
    uhlmann_subsystem,
    winding_number,
    wrap_angle,
)
from spinphase.sweeps import _numeric_phases, cross_validate

PI = math.pi


class _Reporter:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance [{self.label}]: {status}")
        return False


def test_01_pure_critical_coupling_by_bisection():
    with _Reporter("1 pure critical coupling (bisection) = 2/sqrt(3)"):
        lo, hi = 0.5, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if concurrence_equator(mid).value < 0.5:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(root - G_CRITICAL_PURE) < 1e-9


def test_02_depolarized_critical_point():
    with _Reporter("2 depolarized critical coupling and concurrence at q=0.1073"):
        assert critical_coupling(0.1073) == pytest.approx(0.5002, abs=5e-4)
        assert transition_concurrence(0.1073).value == pytest.approx(0.1628, abs=5e-4)


def test_03_transition_range():
    with _Reporter("3 transition range and concurrence bounds"):
        for q in (Q_TRANSITION_MAX + 1e-9, 0.2, 0.7, 1.0):
            with pytest.raises(OutOfTransitionRangeError):
                critical_coupling(q)
        # The depolarized concurrence at the critical coupling reaches zero
        # at q ~ 0.13148, slightly inside the transition range: the clamped
        # value (1-q)C - q/2 changes sign there.  Strict positivity is only
        # checked below that point; the upper bound 1/2 holds throughout.
        q_separable = 0.13148
        for q in np.linspace(0.0, Q_TRANSITION_MAX, 102)[1:-1]:
            value = transition_concurrence(float(q)).value
            assert 0.0 <= value <= 0.5
            if q < q_separable:
                assert value > 0.0


def test_04_equator_step_function():
    with _Reporter("4 equator phase step, exact 0 / pi"):
        for g in (0.2, 0.8, 1.1):
            assert uhlmann_subsystem(ModelParams(PI / 2, g, 0.0, 2), "A").value == PI
        for g in (1.2, 2.0, 5.0):
            assert uhlmann_subsystem(ModelParams(PI / 2, g, 0.0, 2), "A").value == 0.0
        step = critical_coupling(0.075)
        for g in (0.2, step - 0.05):
            assert uhlmann_subsystem(ModelParams(PI / 2, g, 0.075, 2), "A").value == PI
        for g in (step + 0.05, 2.0, 5.0):
            assert uhlmann_subsystem(ModelParams(PI / 2, g, 0.075, 2), "A").value == 0.0


def test_05_numeric_vs_closed_form_grid():
    with _Reporter("5 ODE holonomy vs closed form, 12x12 grid, both subsystems"):
        for subsystem in ("A", "B"):
            spec = SweepSpec(
                theta_range=(0.3, PI - 0.3, 12),
                g_range=(0.2, 3.0, 12),
                q_list=(0.0, 0.05, 0.1073),
                j=2,
                subsystem=subsystem,
                quantity="uhlmann_numeric",
                steps=512,
            )
            report = cross_validate(spec)
            assert report.count > 0
            assert report.max_error < 1e-7


def test_06_composite_low_q_limit():
    with _Reporter("6 composite phase at q=1e-4 tracks the Berry phase"):
        rng = np.random.default_rng(20240817)
        points = []
        for _ in range(20):
            theta = float(rng.uniform(0.3, PI - 0.3))
            g = float(rng.uniform(0.1, 3.0))
            points.append(ModelParams(theta, g, 1e-4, 2))
        for params, numeric in zip(points, _numeric_phases(points, "composite", 512)):
            berry = berry_composite(2, params.theta, params.g).value
            assert abs(wrap_angle(numeric - berry)) < 1e-3


def test_07_concurrence_oracles():
    with _Reporter("7 closed-form concurrences vs Wootters"):
        for theta in np.linspace(0.2, PI - 0.2, 12):
            for g in np.linspace(0.1, 3.0, 12):
                for j in (1, 2, 3, 4):
                    ref = concurrence_wootters(pure_density(j, float(theta), float(g), 0.0))
                    assert abs(concurrence_pure(j, float(theta), float(g)).value - ref.value) < 1e-13
        for j in (1, 2, 3, 4):
            for g in np.linspace(0.0, 4.0, 30):
                ref = concurrence_wootters(pure_density(j, PI / 2, float(g), 0.0))
                assert abs(concurrence_equator(float(g)).value - ref.value) < 1e-10
        for g in np.linspace(0.2, 3.0, 10):
            for q in np.linspace(0.0, 0.9, 10):
                rho_p = pure_density(2, PI / 2, float(g), 0.0)
                ref = concurrence_wootters(depolarize(rho_p, float(q)))
                value = concurrence_depolarized(concurrence_equator(float(g)), float(q))
                assert abs(value.value - ref.value) < 1e-10


def test_08_berry_phase_sum_rule():
    with _Reporter("8 subsystem composed phases sum to the composite phase"):
        from spinphase import mean_berry

        for theta in np.linspace(0.2, PI - 0.2, 20):
            for g in np.linspace(0.1, 3.5, 20):
                total = (
                    mean_berry(reduce_state(2, float(theta), float(g), "A"))
                    + mean_berry(reduce_state(2, float(theta), float(g), "B"))
                    - 2.0 * PI
                )
                expected = berry_composite(2, float(theta), float(g)).unwrapped
                assert abs(total - expected) < 1e-10


def test_09_winding_and_vortex_localization():
    with _Reporter("9 winding numbers and vortex localization"):
        for g, expected in ((0.1, 1), (1.0, 1), (2.0, 0)):
            result = winding_number(g)
            assert result.winding == expected
            assert result.clearance > 0.1
        thetas = np.linspace(0.3, PI - 0.3, 200)
        gs = np.linspace(0.3, 2.3, 200)
        values, flags = phase_map(thetas, gs)
        hits = find_vortices(values, thetas, gs, flags)
        assert len(hits) == 1
        d_theta = thetas[1] - thetas[0]
        d_g = gs[1] - gs[0]
        assert abs(hits[0].theta_cell - PI / 2) <= d_theta
        assert abs(hits[0].g_cell - G_CRITICAL_PURE) <= d_g


def test_10_weak_coupling_limits():
    with _Reporter("10 weak-coupling limits of subsystem phases"):
        g = 1e-6
        for theta in (PI / 6, PI / 4, 2 * PI / 3):
            params = ModelParams(theta, g, 0.0, 2)
            target_a = PI * (1.0 - math.cos(theta))
            phi_a = uhlmann_subsystem(params, "A").value
            phi_b = uhlmann_subsystem(params, "B").value
            # Tolerance 1e-6 in units of pi, matching how the phases are
            # quoted everywhere else.
            assert abs(wrap_angle(phi_a - target_a)) / PI < 1e-6
            assert abs(wrap_angle(phi_b - PI)) / PI < 1e-6
            int_a = interferometric_subsystem(params, "A").value
            int_b = interferometric_subsystem(params, "B").value
            assert abs(wrap_angle(int_a - target_a)) / PI < 1e-6
            assert abs(wrap_angle(int_b - PI)) / PI < 1e-6


def test_11_strong_coupling_behavior():
    with _Reporter("11 strong-coupling limit of subsystem phases"):
        for theta in (PI / 4, 3 * PI / 8, 3 * PI / 4):
            phi_b = uhlmann_subsystem(ModelParams(theta, 50.0, 0.0, 2), "B").value
            berry = berry_composite(2, theta, 50.0).value
            assert abs(wrap_angle(phi_b - berry)) < 0.01 * PI
        for subsystem in ("A", "B"):
            phi = uhlmann_subsystem(ModelParams(PI / 4, 50.0, 0.0, 2), subsystem).value
            assert abs(phi) < 0.01 * PI


def _sweep_vortices(quantity, q, subsystem, j):
    """Vortex hits of a 24x24 sweep over theta in [0, pi], g in [0, 3].

    Boundary rows (the poles) are skipped; a vortex-flagged sample is a hit.
    """
    spec = SweepSpec((0.0, PI, 24), (0.0, 3.0, 24), (q,), j, subsystem, quantity)
    rows = run_sweep(spec)
    values = np.array([np.nan if r.value is None else r.value * PI for r in rows])
    flags = np.array([{"": 0, "boundary": 1}.get(r.flag, 2) for r in rows])
    shape = (24, 24)
    return spec, find_vortices(values.reshape(shape), spec.theta_axis(), spec.g_axis(),
                               flags.reshape(shape))


def _phase_gap(g, q, subsystem, j):
    """max over theta of |Uhlmann - interferometric|, on a grid through the equator."""
    gap = 0.0
    for theta in np.linspace(0.01, PI - 0.01, 315):
        params = ModelParams(float(theta), g, q, j)
        gap = max(gap, abs(wrap_angle(uhlmann_subsystem(params, subsystem).value
                                      - interferometric_subsystem(params, subsystem).value)))
    return gap


def test_12_interferometric_phase_has_no_vortex():
    with _Reporter("12 interferometric phase presents no vortex; Uhlmann phase does"):
        for q, uhlmann_hits in ((0.0, 1), (0.05, 1), (0.3, 0)):
            for subsystem in ("A", "B"):
                for j in (1, 2, 3, 4):
                    _, hits = _sweep_vortices("interferometric", q, subsystem, j)
                    assert hits == []
                    spec, hits = _sweep_vortices("uhlmann_closed", q, subsystem, j)
                    assert len(hits) == uhlmann_hits
                    g_step = spec.g_axis()[1] - spec.g_axis()[0]
                    for hit in hits:
                        assert hit.theta_cell == pytest.approx(PI / 2)
                        assert abs(hit.g_cell - critical_coupling(q)) <= g_step / 2


def test_13_phases_coincide_for_pure_weakly_entangled_states():
    with _Reporter("13 Uhlmann and interferometric phases coincide at q=0, weak coupling"):
        for g in (0.01, 0.05):
            bound = 2.0 * PI * concurrence_equator(g).value ** 2
            for subsystem in ("A", "B"):
                for j in (1, 2, 3, 4):
                    assert _phase_gap(g, 0.0, subsystem, j) <= bound


def test_14_phases_differ_in_the_strong_regime():
    with _Reporter("14 Uhlmann and interferometric phases differ clearly at strong coupling"):
        for subsystem in ("A", "B"):
            for j in (1, 2, 3, 4):
                for q in (0.0, 0.05):
                    assert _phase_gap(2.0, q, subsystem, j) >= 0.99 * PI
                # Depolarization alone already separates them at weak coupling.
                assert 0.09 * PI <= _phase_gap(0.05, 0.05, subsystem, j) <= 0.11 * PI
