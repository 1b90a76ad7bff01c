"""Output checker: structure, ranges, flags and oracles for every job.

Runs outside the timed region.  ``check`` returns the reasons a job failed;
an empty list means it passed.  Reasons starting with ``wrong:`` mean the
program returned an answer the checker rejects; the others (an exit code or an
exception) mean it returned no answer.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass

import numpy as np

from spinphase import (
    Q_TRANSITION_MAX,
    DegeneratePhaseError,
    DomainBoundaryError,
    IllPosedError,
    ModelParams,
    berry_composite,
    cli,
    critical_coupling,
    mean_berry,
    reduce_state,
    uhlmann_subsystem,
    winding_number,
)
from workloads import Job, Sweep, Validate, VortexScan

CSV_HEADER = "theta,g,q,j,subsystem,quantity,value_pi,flag"
DOCUMENTED_FLAGS = frozenset({"vortex", "boundary", "no-convergence", "ill-posed"})
SIN_THETA_BOUNDARY = 1e-9
# Agreement of two routes to the same phase, in units of pi.
PHASE_TOL_PI = 1e-6
# CSV values carry 12 significant digits.
EXACT_TOL = 1e-9
ORACLE_ROWS = 8
# The purity relation takes a square root of p1 p2, whose rounding (~1e-15)
# becomes ~3e-8 in the concurrence where p1 p2 -> 0.
RELATION_TOL = EXACT_TOL + 2.0 * math.sqrt(1e-15)
# Numeric oracle queries for closed-form Uhlmann rows per run, one per job:
# each costs a full RK4 holonomy (~45 ms at the baseline).
NUMERIC_ORACLE_BUDGET = 24
# A 256-sample winding curve cannot place the transition closer than ~1e-4 in
# g (measured worst case 9e-5); inside this band either winding, or the
# ill-posed flag, is accepted.
WINDING_BAND = 1e-3
KNOWN_ABORT = "known abort: winding sweep exit 3 on an escaped domain error"


@dataclass
class Outcome:
    """What one job returned; ``scan`` is (values, flags, hits) for topology scans."""

    code: int | None = None
    stdout: str = ""
    seconds: float = 0.0
    scan: tuple | None = None
    error: str | None = None
    stderr: str = ""


def is_wrong(reasons: list[str]) -> bool:
    return any(r.startswith("wrong:") for r in reasons)


def failures(reasons: list[str]) -> list[str]:
    """The reasons that fail a job: all but a confirmed known abort."""
    return [r for r in reasons if r != KNOWN_ABORT]


def _wrap_pi(x):
    """Wrap a phase in units of pi to (-1, 1]."""
    return x - 2.0 * np.ceil((x - 1.0) / 2.0)


def _transition(q: float) -> float | None:
    return critical_coupling(q) if q <= Q_TRANSITION_MAX else None


class Checker:
    def __init__(self, seed: int):
        self._seed = seed
        self.numeric_budget = NUMERIC_ORACLE_BUDGET

    def check(self, index: int, job: Job, out: Outcome) -> list[str]:
        if out.error is not None:
            return [f"exception: {out.error}"]
        rng = random.Random(f"check:{self._seed}:{index}")
        cmd = job.command
        if isinstance(cmd, Validate):
            reasons = _check_validate(cmd, out)
        elif out.code != 0:
            reasons = [KNOWN_ABORT] if _is_known_abort(cmd, out) else [f"exit {out.code}"]
        else:
            reasons = self._check_sweep(cmd, out.stdout, rng)
        if job.scan is not None:
            reasons += _check_scan(job.scan, out.scan)
        return reasons

    def _check_sweep(self, cmd: Sweep, text: str, rng: random.Random) -> list[str]:
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return ["wrong: CSV header or final newline"]
        rows = [line.split(",") for line in lines[1:-1]]
        winding = cmd.quantity == "winding"
        thetas = cmd.theta.values()
        gs = cmd.g.values()
        n_theta = 1 if winding else len(thetas)
        expected = len(cmd.q_list) * n_theta * len(gs)
        if len(rows) != expected or any(len(r) != 8 for r in rows):
            return [f"wrong: {len(rows)} rows, expected {expected} of 8 fields"]
        cols = list(zip(*rows))
        # Rows are q-major, then theta, then g.
        q_exp = np.repeat(cmd.q_list, n_theta * len(gs))
        g_exp = np.tile(gs, len(cmd.q_list) * n_theta)
        theta_exp = np.tile(np.repeat(thetas, len(gs)), len(cmd.q_list))
        reasons = []
        if not _close(cols[1], g_exp) or not _close(cols[2], q_exp):
            reasons.append("wrong: g or q column")
        if winding:
            if any(cols[0]):
                reasons.append("wrong: theta column of a winding sweep")
        elif not _close(cols[0], theta_exp):
            reasons.append("wrong: theta column")
        if set(cols[3]) != {str(cmd.j)} or set(cols[4]) != {cmd.subsystem}:
            reasons.append("wrong: j or subsystem column")
        if set(cols[5]) != {cmd.quantity}:
            reasons.append("wrong: quantity column")
        flags = np.array(cols[7])
        if not set(cols[7]) <= DOCUMENTED_FLAGS | {""}:
            reasons.append(f"wrong: undocumented flag in {sorted(set(cols[7]))}")
        if any(bool(v) == bool(f) for v, f in zip(cols[6], cols[7])):
            reasons.append("wrong: a row has both or neither of value and flag")
        if reasons:
            return reasons
        values = np.array([float(v) if v else np.nan for v in cols[6]])
        valued = ~np.isnan(values)
        if not winding and (
            (flags == "boundary") & (np.sin(theta_exp) > SIN_THETA_BOUNDARY)
        ).any():
            reasons.append("wrong: boundary flag off the sin(theta) = 0 boundary")
        v = values[valued]
        if cmd.quantity == "concurrence":
            in_range = ((v >= 0.0) & (v <= 1.0)).all()
        elif winding:
            in_range = np.isin(v, (-1.0, 0.0, 1.0)).all()
        else:
            in_range = (np.abs(v) <= 1.0 + 1e-12).all()
        if not in_range:
            reasons.append(f"wrong: {cmd.quantity} value out of range")
        points = [
            (i, float(theta_exp[i]), float(g_exp[i]), float(q_exp[i]), float(values[i]))
            for i in np.flatnonzero(valued)
        ]
        oracle = {
            "concurrence": self._concurrence_oracle,
            "berry": self._berry_oracle,
            "uhlmann_closed": self._numeric_oracle,
            "uhlmann_numeric": self._closed_oracle,
            "winding": self._winding_oracle,
        }.get(cmd.quantity)
        if oracle is not None:
            reasons += oracle(cmd, points, flags, g_exp, q_exp, rng)
        return reasons

    # Each oracle gets the valued rows as (row, theta, g, q, value).

    def _concurrence_oracle(self, cmd, points, flags, g_exp, q_exp, rng):
        """Wootters concurrence against max(0, (1-q) 2 sqrt(p1 p2) - q/2)."""
        for i, theta, g, q, value in _sample(rng, points):
            qs = reduce_state(cmd.j, theta, g, "A")
            relation = max(0.0, (1.0 - q) * 2.0 * math.sqrt(max(qs.p1 * qs.p2, 0.0)) - q / 2.0)
            if abs(value - relation) > RELATION_TOL:
                return [f"wrong: concurrence row {i}: {value} vs {relation}"]
        return []

    def _berry_oracle(self, cmd, points, flags, g_exp, q_exp, rng):
        """Composite Berry phase against the A + B level-sum rule."""
        for i, theta, g, q, value in _sample(rng, points):
            a = reduce_state(cmd.j, theta, g, "A")
            b = reduce_state(cmd.j, theta, g, "B")
            if a.trivial or b.trivial:
                continue
            total = (mean_berry(a) + mean_berry(b)) / math.pi - 2.0
            if abs(_wrap_pi(value - total)) > EXACT_TOL:
                return [f"wrong: berry row {i}: {value} vs sum rule {total}"]
        return []

    def _numeric_oracle(self, cmd, points, flags, g_exp, q_exp, rng):
        """Closed-form Uhlmann phase against a numeric ``phase`` query."""
        if self.numeric_budget <= 0 or not points:
            return []
        self.numeric_budget -= 1
        i, theta, g, q, value = rng.choice(points)
        argv = [
            "phase", "--quantity", "uhlmann_numeric", "--theta", repr(theta),
            "--g", repr(g), "--q", repr(q), "--j", str(cmd.j), "--subsystem", cmd.subsystem,
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            return [f"wrong: numeric oracle for row {i} exited {code}: {stderr.getvalue().strip()}"]
        numeric = float(stdout.getvalue())
        if abs(_wrap_pi(value - numeric)) > PHASE_TOL_PI:
            return [f"wrong: uhlmann_closed row {i}: {value} vs numeric {numeric}"]
        return []

    def _closed_oracle(self, cmd, points, flags, g_exp, q_exp, rng):
        """Numeric rows against uhlmann_subsystem, or composite q = 0 rows against Berry."""
        for i, theta, g, q, value in points:
            try:
                if cmd.subsystem == "composite":
                    if q != 0.0:
                        continue
                    ref = berry_composite(cmd.j, theta, g).in_units_of_pi()
                else:
                    ref = uhlmann_subsystem(ModelParams(theta, g, q, cmd.j), cmd.subsystem).in_units_of_pi()
            except (DegeneratePhaseError, DomainBoundaryError):
                continue
            if abs(_wrap_pi(value - ref)) > PHASE_TOL_PI:
                return [f"wrong: uhlmann_numeric row {i}: {value} vs closed form {ref}"]
        return []

    def _winding_oracle(self, cmd, points, flags, g_exp, q_exp, rng):
        """|w| = 1 below the critical coupling of a q that admits a transition, else 0."""
        for i, _, g, q, value in points:
            g_c = _transition(q)
            if g_c is not None and abs(g - g_c) <= WINDING_BAND:
                continue
            expected = 1.0 if g_c is not None and g < g_c else 0.0
            if abs(value) != expected:
                return [f"wrong: winding row {i} (g={g:.6g}, q={q}): {value}, expected |w| = {expected:g}"]
        for i in np.flatnonzero(flags == "ill-posed"):
            g_c = _transition(q_exp[i])
            if g_c is None or abs(g_exp[i] - g_c) > WINDING_BAND:
                return [f"wrong: ill-posed flag at g={g_exp[i]:.6g} away from the transition"]
        return []


def _close(column, expected) -> bool:
    try:
        parsed = np.array(column, dtype=float)
    except ValueError:
        return False
    return bool((np.abs(parsed - expected) <= EXACT_TOL * np.maximum(1.0, np.abs(expected))).all())


def _sample(rng: random.Random, points: list) -> list:
    return rng.sample(points, min(ORACLE_ROWS, len(points)))


def _is_known_abort(cmd: Sweep, out: Outcome) -> bool:
    """Exit 3 of a winding sweep, with no rows, where some coupling of the sweep
    makes ``winding_number`` raise ``DomainBoundaryError``."""
    if (cmd.quantity != "winding" or out.code != 3 or out.stdout
            or not out.stderr.startswith("domain error:")):
        return False
    for q in cmd.q_list:
        for g in cmd.g.values():
            try:
                winding_number(float(g), q, cmd.subsystem, j=cmd.j)
            except DomainBoundaryError:
                return True
            except IllPosedError:
                pass
    return False


def _check_validate(cmd: Validate, out: Outcome) -> list[str]:
    lines = out.stdout.splitlines()
    if "status,FAIL" in lines:
        return ["wrong: validate reported status,FAIL"]
    if out.code != 0:
        return [f"exit {out.code}"]
    fields = dict(line.split(",", 1) for line in lines if line.count(",") == 1)
    expected = len(cmd.q_list) * cmd.theta.count * cmd.g.count
    if lines[-1:] != ["status,OK"]:
        return ["wrong: validate did not end with status,OK"]
    if int(fields.get("points", -1)) + int(fields.get("flagged", -1)) != expected:
        return [f"wrong: validate covered {fields.get('points')}+{fields.get('flagged')} of {expected} points"]
    return []


def _check_scan(scan: VortexScan, result: tuple) -> list[str]:
    values, flags, hits = result
    thetas, gs = scan.theta.values(), scan.g.values()
    shape = (len(thetas), len(gs))
    if values.shape != shape or flags.shape != shape:
        return ["wrong: phase map shape"]
    if not np.isin(flags, (0, 1, 2)).all():
        return ["wrong: phase map flag outside {0, 1, 2}"]
    clean = flags == 0
    if not (np.isfinite(values[clean]).all() and np.isnan(values[~clean]).all()):
        return ["wrong: phase map values and flags disagree"]
    if (np.abs(values[clean]) > math.pi + 1e-12).any():
        return ["wrong: phase map value outside (-pi, pi]"]
    if ((flags == 1) & (np.sin(thetas)[:, None] > SIN_THETA_BOUNDARY)).any():
        return ["wrong: boundary cell off the sin(theta) = 0 boundary"]
    g_c = _transition(scan.q)
    if g_c is None:
        return [f"wrong: {len(hits)} vortices for q = {scan.q} beyond the transition"] if hits else []
    d_theta, d_g = thetas[1] - thetas[0], gs[1] - gs[0]
    near = [
        h for h in hits
        if abs(h.theta_cell - math.pi / 2) <= d_theta and abs(h.g_cell - g_c) <= d_g
    ]
    if len(hits) != 1 or len(near) != 1:
        return [f"wrong: {len(hits)} vortices ({len(near)} at the transition), expected one"]
    return []

