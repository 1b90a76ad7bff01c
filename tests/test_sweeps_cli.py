import contextlib
import io
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinphase import cli
from spinphase.sweeps import (
    CSV_HEADER,
    SweepSpec,
    cross_validate,
    run_sweep,
    write_csv,
)

PI = math.pi


def csv_text(spec):
    buf = io.StringIO()
    write_csv(run_sweep(spec), buf)
    return buf.getvalue()


class TestSweepSpec:
    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            SweepSpec((0.3, 2.8, 4), (0.1, 2.0, 4), quantity="bogus")

    def test_rejects_theta_outside_domain(self):
        with pytest.raises(ValueError):
            SweepSpec((-0.1, 2.8, 4), (0.1, 2.0, 4))

    def test_rejects_small_counts(self):
        with pytest.raises(ValueError):
            SweepSpec((0.3, 2.8, 1), (0.1, 2.0, 4))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            SweepSpec((0.3, 2.8, 4), (0.1, 2.0, 4), q_list=(1.5,))

    def test_rejects_composite_closed_form(self):
        with pytest.raises(ValueError):
            SweepSpec((0.3, 2.8, 4), (0.1, 2.0, 4), subsystem="composite")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g_range=(-0.5, 2.0, 4)),
            dict(quantity="interferometric", subsystem="composite"),
            dict(quantity="winding", subsystem="composite"),
            dict(quantity="uhlmann_numeric", steps=40000),
            dict(subsystem="C"),
        ],
    )
    def test_rejects_before_any_point_runs(self, kwargs):
        # The spec itself refuses, so run_sweep never starts a grid that
        # would abort partway.
        with pytest.raises(ValueError):
            SweepSpec(**(dict(theta_range=(0.3, 2.8, 4), g_range=(0.1, 2.0, 4)) | kwargs))


class TestRunSweep:
    def test_grid_shape_and_order(self):
        spec = SweepSpec((0.3, 2.8, 3), (0.1, 2.0, 4), q_list=(0.0, 0.2))
        rows = run_sweep(spec)
        assert len(rows) == 2 * 3 * 4
        assert [r.q for r in rows[:12]] == [0.0] * 12
        assert rows[0].theta == pytest.approx(0.3)
        assert rows[3].theta == pytest.approx(0.3)
        assert rows[4].theta > rows[3].theta

    def test_degenerate_point_becomes_flag(self):
        g_c = 2.0 / math.sqrt(3.0)
        spec = SweepSpec((PI / 2, PI / 2, 2), (g_c, g_c, 2))
        rows = run_sweep(spec)
        assert all(r.value is None and r.flag == "vortex" for r in rows)

    def test_winding_rows(self):
        spec = SweepSpec((0.3, 2.8, 2), (0.5, 2.5, 3), quantity="winding")
        rows = run_sweep(spec)
        assert [r.value for r in rows] == [1.0, 0.0, 0.0]
        assert all(r.theta is None for r in rows)

    def test_winding_rows_of_every_level(self):
        # j = 3, 4 have no pole to abort on: the winding is read at the equator.
        spec = SweepSpec((0.0, PI, 2), (0.2, 2.2, 4), (0.05,), j=3, quantity="winding")
        assert [r.value for r in run_sweep(spec)] == [-1.0, -1.0, 0.0, 0.0]

    def test_winding_ill_posed_flag(self):
        g_c = 2.0 / math.sqrt(3.0)
        spec = SweepSpec((0.3, 2.8, 2), (g_c, g_c, 2), quantity="winding")
        rows = run_sweep(spec)
        assert all(r.value is None and r.flag == "ill-posed" for r in rows)


class TestWriteCsv:
    def test_header_and_line_endings(self):
        spec = SweepSpec((0.3, 2.8, 2), (0.1, 2.0, 2))
        text = csv_text(spec)
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert "\r" not in text
        assert text.endswith("\n")
        assert len(lines) == 2 + 4  # header + rows + trailing newline

    def test_deterministic_bytes(self):
        spec = SweepSpec((0.3, 2.8, 3), (0.1, 2.0, 3), quantity="concurrence")
        assert csv_text(spec).encode() == csv_text(spec).encode()

    def test_twelve_significant_digits(self):
        spec = SweepSpec((PI / 3, PI / 3, 2), (1.0, 1.0, 2))
        line = csv_text(spec).split("\n")[1]
        theta_field = line.split(",")[0]
        assert theta_field == f"{PI / 3:.12g}"


class TestCrossValidate:
    def test_small_grid_agrees(self):
        spec = SweepSpec(
            (0.5, PI - 0.5, 3),
            (0.3, 2.2, 3),
            q_list=(0.0, 0.2),
            quantity="uhlmann_numeric",
            steps=512,
        )
        report = cross_validate(spec)
        assert report.count > 0
        assert not report.failed
        assert report.max_error < 1e-7

    def test_rejects_composite(self):
        spec = SweepSpec(
            (0.5, 2.5, 2), (0.3, 2.2, 2), subsystem="B", quantity="uhlmann_numeric"
        )
        object.__setattr__(spec, "subsystem", "composite")
        with pytest.raises(ValueError):
            cross_validate(spec)


class TestCli:
    def test_spectrum_output(self, capsys):
        assert cli.main(["spectrum", "--theta", "1.5707963", "--g", "2.0"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "j,energy,u1,u2,u3,u4,norm"
        energy_1 = float(out[1].split(",")[1])
        assert energy_1 == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-6)

    def test_phase_equator_value(self, capsys):
        code = cli.main(
            ["phase", "--theta", str(PI / 2), "--g", "0.5", "--subsystem", "A"]
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0)

    def test_phase_numeric_matches_closed(self, capsys):
        args = ["--theta", "1.1", "--g", "1.4", "--q", "0.2", "--subsystem", "B"]
        assert cli.main(["phase", *args]) == 0
        closed = float(capsys.readouterr().out)
        assert cli.main(["phase", *args, "--quantity", "uhlmann_numeric",
                         "--steps", "512"]) == 0
        numeric = float(capsys.readouterr().out)
        assert numeric == pytest.approx(closed, abs=1e-8)

    def test_concurrence_value(self, capsys):
        assert cli.main(["concurrence", "--theta", str(PI / 2), "--g", "2.0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_critical_values(self, capsys):
        assert cli.main(["critical", "--q", "0.1073"]) == 0
        lines = dict(l.split(",") for l in capsys.readouterr().out.strip().split("\n"))
        assert float(lines["critical_coupling"]) == pytest.approx(0.5, abs=5e-4)
        assert float(lines["transition_concurrence"]) == pytest.approx(0.1628, abs=5e-4)

    def test_winding_output(self, capsys):
        assert cli.main(["winding", "--g", "0.5"]) == 0
        lines = dict(l.split(",") for l in capsys.readouterr().out.strip().split("\n"))
        assert lines == {"winding": "1", "clearance": "0.723"}

    def test_sweep_writes_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--quantity", "concurrence", "--grid", "3x3",
            "--theta-min", "0.4", "--theta-max", "2.7",
            "--g-min", "0.2", "--g-max", "2.2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11

    def test_validate_reports_ok(self, capsys):
        code = cli.main([
            "validate", "--grid", "3x3", "--steps", "512",
            "--theta-min", "0.5", "--theta-max", "2.6",
            "--g-min", "0.3", "--g-max", "2.2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "status,OK" in out

    def test_validate_of_no_point_is_not_a_pass(self, capsys):
        # Every point of the theta = 0 row is flagged, so nothing is compared.
        code = cli.main(["validate", "--theta-min", "0", "--theta-max", "0", "--grid", "2x2"])
        out = capsys.readouterr().out.split("\n")
        assert code == cli.EXIT_VALIDATION
        assert out[:2] == ["points,0", "flagged,4"] and out[-2] == "status,EMPTY"

    def test_exit_code_usage(self, capsys):
        assert cli.main(["phase", "--theta", "1.0"]) == 1  # missing --g
        assert cli.main(["nonsense"]) == 1
        assert cli.main(["winding", "--g", "0.5", "--samples", "256"]) == 1

    def test_exit_code_domain(self, capsys):
        # Winding at the critical coupling is ill posed.
        g_c = 2.0 / math.sqrt(3.0)
        assert cli.main(["winding", "--g", str(g_c)]) == 3
        # Transition quantities outside the admissible q range.
        assert cli.main(["critical", "--q", "0.2"]) == 3
        # Degenerate phase at the equator vortex.
        assert cli.main(["phase", "--theta", str(PI / 2), "--g", str(g_c)]) == 3

    def test_exit_code_invalid_value(self, capsys):
        assert cli.main(["phase", "--theta", "nan", "--g", "1.0"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--theta", "1.1", "--g", "1.4", "--quantity", "uhlmann_numeric",
             "--steps", "40000"],
            ["phase", "--theta", "1.1", "--g", "1.4", "--subsystem", "composite"],
            ["sweep", "--g-min", "-0.5", "--grid", "2x2"],
            ["sweep", "--quantity", "interferometric", "--subsystem", "composite"],
            ["sweep", "--quantity", "winding", "--subsystem", "composite"],
            ["validate", "--steps", "8", "--grid", "2x2"],
        ],
    )
    def test_exit_code_rejected_request(self, argv, capsys):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


# Field angles anywhere, and 1e-14 to 1e-6 from either pole, where reduced
# states are nearly diagonal; couplings anywhere, and in the separable limit.
_POLAR = st.floats(-14.0, -6.0).map(lambda e: 10.0**e)
_THETAS = st.one_of(st.floats(0.0, PI), _POLAR, _POLAR.map(lambda d: PI - d))
_COUPLINGS = st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e-8))
_STRENGTHS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.05, 0.1073]))


@st.composite
def _cli_calls(draw):
    """Valid calls of every command but validate, whose holonomy is slow."""
    theta, g, q = draw(_THETAS), draw(_COUPLINGS), draw(_STRENGTHS)
    state = ["--q", repr(q), "--j", str(draw(st.integers(1, 4)))]
    subsystem = ["--subsystem", draw(st.sampled_from(["A", "B", "composite"]))]
    point = ["--theta", repr(theta), "--g", repr(g), *state]
    command = draw(st.sampled_from(["spectrum", "phase", "concurrence", "critical",
                                    "winding", "sweep"]))
    if command == "spectrum":
        return ["spectrum", *point[:4]]
    if command == "phase":
        quantity = draw(st.sampled_from(["uhlmann_closed", "berry", "interferometric"]))
        return ["phase", *point, *subsystem, "--quantity", quantity]
    if command == "concurrence":
        return ["concurrence", *point]
    if command == "critical":
        return ["critical", "--q", repr(q)]
    if command == "winding":
        return ["winding", "--g", repr(g), *state, "--subsystem", draw(st.sampled_from("AB"))]
    thetas, gs = sorted((theta, draw(_THETAS))), sorted((g, draw(_COUPLINGS)))
    quantity = draw(st.sampled_from(["uhlmann_closed", "berry", "interferometric",
                                     "concurrence", "winding"]))
    return ["sweep", "--quantity", quantity, *state, *subsystem, "--grid", "3x3",
            "--theta-min", repr(thetas[0]), "--theta-max", repr(thetas[1]),
            "--g-min", repr(gs[0]), "--g-max", repr(gs[1])]


@given(_cli_calls())
@example(["phase", "--theta", "1e-8", "--g", "1", "--j", "1"])
@example(["phase", "--theta", "3.1415926342907925", "--g", "0", "--q", "0.1073", "--j", "4"])
@example(["sweep", "--quantity", "uhlmann_closed", "--q", "0.1073", "--j", "1",
          "--theta-min", "3.1415926478294924", "--theta-max", "3.141592653589793",
          "--g-min", "1.131964823075859", "--g-max", "1.1329648230758589", "--grid", "3x3"])
def test_cli_answers_with_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDATION, cli.EXIT_DOMAIN)
