"""Closed-loop benchmark of the spinphase CLI and topology functions.

One client submits one job at a time and waits for it (closed loop, one
process, BLAS pinned to one thread by ``run.py``).  Each job's output is
captured in memory and checked after its clock stops.  With tracing off the
run reports the end-to-end metrics; with tracing on every job runs twice,
plain and traced in alternating order, and the run reports per-layer metrics
from the traced executions plus the tracing overhead against the plain ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spinphase import cli, topology

import check
import workloads
from tracing import Tracer

LAYERS = ("spin_model", "states", "closed_form", "entanglement", "holonomy",
          "topology", "sweeps", "cli")
END_TO_END = {
    "points_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FLAGS = ("vortex", "boundary", "no-convergence", "ill-posed")
EXIT_CODES = (0, 1, 2, 3)
PER_LAYER = {
    "holonomy.self_ms": "ms",
    "holonomy.integrations": "count",
    "holonomy.rk4_steps": "count",
    "holonomy.useful_step_frac": "frac",
    "entanglement.self_ms": "ms",
    "entanglement.wootters_calls": "count",
    "closed_form.self_ms": "ms",
    "closed_form.calls": "count",
    "spin_model.self_ms": "ms",
    "spin_model.calls_per_point": "calls/point",
    "states.self_ms": "ms",
    "states.calls_per_point": "calls/point",
    "topology.self_ms": "ms",
    "topology.find_vortices_ms": "ms",
    "topology.winding_calls": "count",
    "topology.vortex_hits": "count",
    "sweeps.self_ms": "ms",
    "sweeps.write_csv_ms": "ms",
    "sweeps.csv_bytes": "B",
    "sweeps.rows": "count",
    **{f"sweeps.flagged.{flag}": "count" for flag in FLAGS},
    "cli.self_ms": "ms",
    **{f"cli.exit.{code}": "count" for code in EXIT_CODES},
    "trace.overhead_frac": "frac",
    "trace.job_ms": "ms",
    "trace.points": "count",
}
# Functions whose calls or results feed a named per-layer metric.
INTEGRATE = "holonomy.integrate_holonomy"
CONVERGED = "holonomy.converged_phase"
WOOTTERS = "entanglement.concurrence_wootters"
COMPONENTS = "spin_model.eigenvector_components"
WINDING = "topology.winding_number"
VORTICES = "topology.find_vortices"
WRITE_CSV = "sweeps.write_csv"
NAMED = (INTEGRATE, CONVERGED, WOOTTERS, COMPONENTS, WINDING, VORTICES, WRITE_CSV)
UNITS = {
    INTEGRATE: lambda hol: hol.steps,
    CONVERGED: lambda result: result[1].steps,
    VORTICES: len,
}

WARMUP_JOBS = 4
# Untraced runs are cut into blocks of about BLOCK_S timed seconds.
# points_per_s is the median of the blocks' rates, and one set-up launch runs
# after each block, so a spell of a slow host (on a shared virtual machine the
# same job can take ~1.6x as long for several seconds) moves a few blocks,
# not the run's figures.
BLOCK_S = 2.0
DIGEST_JOBS = 16
# p90 needs at least ten successful jobs beyond it.
MIN_OK_JOBS = 100
# Re-runs that confirm the latency tail stop when they have taken this share
# of the run's timed work.
RERUN_SHARE = 0.1
# The timed loop outlasts --seconds only to reach MIN_OK_JOBS, and never
# beyond this wall-clock age of the process.
WALL_LIMIT_S = 120.0
SETUP_LAUNCHES = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import spinphase.cli as cli; "
    "cli.build_parser(); print('ready', flush=True)"
)


def execute(job: workloads.Job) -> check.Outcome:
    """Run one job with its output captured in memory; time only the program."""
    argv = job.command.argv()
    scan = job.scan
    axes = (scan.theta.values(), scan.g.values()) if scan else None
    out = check.Outcome()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            out.code = cli.main(argv)
            if scan is not None:
                values, flags = topology.phase_map(*axes, scan.q, scan.subsystem, scan.j)
                hits = topology.find_vortices(values, *axes, flags)
                out.scan = (values, flags, hits)
    except Exception as exc:  # a crash fails the job; the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - start
    out.stdout = stdout.getvalue()
    out.stderr = stderr.getvalue()
    return out


def produced_points(job: workloads.Job, out: check.Outcome) -> int:
    """CSV rows, validated points and map cells a job returned."""
    count = 0
    if out.code == 0:
        cmd = job.command
        if isinstance(cmd, workloads.Validate):
            count = len(cmd.q_list) * cmd.theta.count * cmd.g.count
        else:
            count = max(out.stdout.count("\n") - 1, 0)
    if out.scan is not None:
        count += out.scan[0].size
    return count


def _digest_update(digest, index: int, out: check.Outcome) -> None:
    digest.update(f"job {index} exit {out.code}\n".encode())
    digest.update(out.stdout.encode())
    if out.scan is not None:
        values, flags, hits = out.scan
        digest.update(" ".join(f"{v:.12g}" for v in values.ravel()).encode())
        digest.update(flags.tobytes())
        digest.update("".join(f"{h.theta_cell:.12g},{h.g_cell:.12g};" for h in hits).encode())


def launch_setup(src: Path) -> float:
    """Time from a fresh interpreter launch until build_parser() returns."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(src)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up launch failed with exit code {proc.returncode}")
    return elapsed


def _percentiles_ms(seconds: list[float], measured: float) -> tuple[float, float]:
    if len(seconds) < 2:
        # No latency distribution: read the whole measured time as the latency.
        return measured * 1e3, measured * 1e3
    ms = [1e3 * s for s in seconds]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def fingerprint(out: check.Outcome) -> bytes:
    """Digest of everything a job returned."""
    digest = hashlib.sha256(f"{out.code} {out.error}\n{out.stdout}".encode())
    if out.scan is not None:
        values, flags, hits = out.scan
        digest.update(values.tobytes())
        digest.update(flags.tobytes())
        digest.update(repr([(h.theta_cell, h.g_cell) for h in hits]).encode())
    return digest.digest()


def confirm_tail(passed: list[tuple[workloads.Job, float, bytes]],
                 budget_s: float) -> tuple[list[float], int, bool]:
    """Latencies of the passed jobs, each given as (job, seconds, fingerprint),
    where every one that p90 reads is the faster of two runs of its job.

    A slow moment of a shared host lifts one job's time by up to ~1.6x; when
    such jobs pass a tenth of the run they would set the p90.  The slowest
    unconfirmed job at or above the p90 runs again, until all of them have two
    runs or the re-runs have taken ``budget_s``.  Returns the
    latencies, the number of re-runs and whether every re-run returned the
    same output as the first run.
    """
    seconds = [s for _, s, _ in passed]
    n = len(seconds)
    # statistics.quantiles(n=10)[-1] reads the values from this 1-based rank up.
    tail = n - min(max(9 * (n + 1) // 10, 1), n - 1) + 1 if n >= 2 else 0
    confirmed = [False] * n
    reruns, same, spent = 0, True, 0.0
    while spent < budget_s:
        top = sorted(range(n), key=seconds.__getitem__, reverse=True)[:tail]
        pending = [i for i in top if not confirmed[i]]
        if not pending:
            break
        i = pending[0]
        job, _, first = passed[i]
        again = execute(job)
        same = same and fingerprint(again) == first
        seconds[i] = min(seconds[i], again.seconds)
        spent += again.seconds
        confirmed[i] = True
        reruns += 1
    return seconds, reruns, same


class _LayerCounts:
    """Output-side per-layer counts taken from the traced jobs."""

    def __init__(self):
        self.exits = Counter()
        self.flags = Counter()
        self.rows = 0
        self.csv_bytes = 0
        self.points = 0

    def add(self, job: workloads.Job, out: check.Outcome) -> None:
        self.exits[out.code] += 1
        self.points += produced_points(job, out)
        if isinstance(job.command, workloads.Sweep) and out.code == 0:
            lines = out.stdout.splitlines()[1:]
            self.rows += len(lines)
            self.csv_bytes += len(out.stdout.encode())
            self.flags.update(line.rsplit(",", 1)[1] for line in lines)


def layer_metrics(tracer: Tracer, counts: _LayerCounts, plain_s: float, traced_s: float) -> dict:
    steps = tracer.get(INTEGRATE).units
    points = max(counts.points, 1)
    values = {
        "holonomy.integrations": tracer.get(INTEGRATE).calls,
        "holonomy.rk4_steps": steps,
        # Steps of accepted integrations over all steps; 1 when none ran.
        "holonomy.useful_step_frac": tracer.get(CONVERGED).units / steps if steps else 1.0,
        "entanglement.wootters_calls": tracer.get(WOOTTERS).calls,
        "closed_form.calls": tracer.layer_calls("closed_form"),
        "spin_model.calls_per_point": tracer.get(COMPONENTS).calls / points,
        "states.calls_per_point": tracer.layer_calls("states") / points,
        "topology.find_vortices_ms": 1e3 * tracer.get(VORTICES).busy,
        "topology.winding_calls": tracer.get(WINDING).calls,
        "topology.vortex_hits": tracer.get(VORTICES).units,
        "sweeps.write_csv_ms": 1e3 * tracer.get(WRITE_CSV).busy,
        "sweeps.csv_bytes": counts.csv_bytes,
        "sweeps.rows": counts.rows,
        "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s else 0.0,
        "trace.job_ms": 1e3 * traced_s,
        "trace.points": counts.points,
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = 1e3 * tracer.layer_self(layer)
    for flag in FLAGS:
        values[f"sweeps.flagged.{flag}"] = counts.flags[flag]
    for code in EXIT_CODES:
        values[f"cli.exit.{code}"] = counts.exits[code]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result, info) as printed by ``run.py``."""
    started = time.perf_counter()
    if not trace:
        launch_setup(src)  # compiles bytecode; not timed
    for job in itertools.islice(workloads.jobs(workload, seed, "warmup"), WARMUP_JOBS):
        execute(job)
    checker = check.Checker(seed)
    tracer = Tracer("spinphase", LAYERS, UNITS) if trace else None
    counts = _LayerCounts()
    digest = hashlib.sha256()
    failures = Counter()
    passed, ok_points = [], 0
    attempted = failed = known_aborts = 0
    wrong = False
    measured = plain_s = traced_s = 0.0
    block_s = block_points = 0.0
    block_rates, setup_times = [], []
    reruns = 0
    for index, job in enumerate(workloads.jobs(workload, seed)):
        if tracer is None:
            out = execute(job)
            measured += out.seconds
        else:
            out, traced = _run_pair(job, tracer, traced_first=index % 2 == 1)
            plain_s += out.seconds
            traced_s += traced.seconds
            measured += out.seconds + traced.seconds
            counts.add(job, traced)
        reasons = checker.check(index, job, out)
        if tracer is not None and (traced.stdout, traced.code) != (out.stdout, out.code):
            reasons.append("wrong: traced output differs from the plain output")
        if index < DIGEST_JOBS:
            _digest_update(digest, index, out)
        attempted += 1
        problems = check.failures(reasons)
        if problems:
            failed += 1
            wrong = wrong or check.is_wrong(problems)
            failures[problems[0][:80]] += 1
        else:
            # A confirmed known abort still returned its topology scan, but
            # latency is taken over complete answers only.
            if reasons:
                known_aborts += 1
            else:
                passed.append((job, out.seconds, fingerprint(out)))
            points = produced_points(job, out)
            ok_points += points
            block_points += points
        block_s += out.seconds
        if tracer is None and block_s >= BLOCK_S:
            block_rates.append(block_points / block_s)
            block_s = block_points = 0.0
            setup_times.append(launch_setup(src))
        if measured >= seconds and index + 1 >= DIGEST_JOBS and (
            tracer is not None or len(passed) >= MIN_OK_JOBS
            or time.perf_counter() - started > WALL_LIMIT_S
        ):
            break

    if tracer is None:
        if block_s >= BLOCK_S / 2 or not block_rates:
            block_rates.append(block_points / block_s)
        while len(setup_times) < SETUP_LAUNCHES:
            setup_times.append(launch_setup(src))
        latencies, reruns, same = confirm_tail(passed, RERUN_SHARE * measured)
        if not same:
            wrong = True
            failures["wrong: a re-run returned different output"] += 1
        p50, p90 = _percentiles_ms(latencies, measured)
        values = {
            "points_per_s": statistics.median(block_rates),
            "job_p50_ms": p50,
            "job_p90_ms": p90,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = layer_metrics(tracer, counts, plain_s, traced_s)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "measured_s": measured,
        "ok_jobs": len(passed),
        "points": ok_points,
        "output_sha256": digest.hexdigest(),
        "digest_jobs": DIGEST_JOBS,
        "failures": dict(failures),
        "known_aborts": known_aborts,
        "blocks": len(block_rates),
        "tail_reruns": reruns,
        "setup_launches": len(setup_times),
        "numeric_oracle_queries": check.NUMERIC_ORACLE_BUDGET - checker.numeric_budget,
        "wall_s": time.perf_counter() - started,
    }
    if tracer is not None:
        attributed = sum(tracer.layer_self(layer) for layer in LAYERS)
        info.update(
            absent=tracer.missing_layers + tracer.absent(NAMED),
            unit_errors=tracer.unit_errors,
            attributed_frac=attributed / traced_s,
        )
    return result, info


def _run_pair(job, tracer: Tracer, traced_first: bool):
    """Run a job plain and traced, in the given order; the tracer is off between."""
    def traced_run():
        tracer.install()
        try:
            return execute(job)
        finally:
            tracer.uninstall()

    if traced_first:
        traced = traced_run()
        return execute(job), traced
    plain = execute(job)
    return plain, traced_run()
