"""Self-tests of the benchmark: generator, checker, tracer and entry point.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spinphase  # noqa: E402
from spinphase import cli, critical_coupling, sweeps  # noqa: E402

import check  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _first(workload: str, seed: int, count: int = 24) -> list[workloads.Job]:
    return list(itertools.islice(workloads.jobs(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)
    assert _first(workload, 7) != list(itertools.islice(workloads.jobs(workload, 7, "warmup"), 24))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_emits_only_valid_specs(workload):
    parser = cli.build_parser()
    for job in _first(workload, 3, 200):
        args = parser.parse_args(job.command.argv())
        if args.command == "sweep":
            sweeps.SweepSpec(
                theta_range=(args.theta_min, args.theta_max, args.grid[0]),
                g_range=(args.g_min, args.g_max, args.grid[1]),
                q_list=tuple(args.q_list), j=args.j,
                subsystem=args.subsystem, quantity=args.quantity,
            )
        if job.scan is not None:
            theta, g = job.scan.theta, job.scan.g
            assert (theta.lo, theta.hi) == (0.0, math.pi)
            assert theta.count % 2 == 0
            assert g.lo < critical_coupling(0.1073) and critical_coupling(0.0) < g.hi


def _job(argv_job: workloads.Sweep) -> tuple[workloads.Job, check.Outcome]:
    job = workloads.Job(argv_job)
    return job, harness.execute(job)


def _edit(out: check.Outcome, stdout: str) -> check.Outcome:
    return check.Outcome(out.code, stdout, out.seconds, out.scan, out.error)


CONCURRENCE = workloads.Sweep(
    "concurrence", "A", 2, (0.0, 0.1073),
    workloads.Axis(0.4, 2.0, 2), workloads.Axis(0.3, 2.2, 2),
)
WINDING = workloads.Sweep(
    "winding", "A", 2, (0.0,), workloads.Axis(0.0, 3.14, 2), workloads.Axis(0.1, 2.5, 4),
)


def test_checker_passes_program_output():
    checker = check.Checker(seed=1)
    for index, job in enumerate(_first("closed_sweep", 5, 4) + _first("topology_scan", 5, 2)):
        out = harness.execute(job)
        reasons = checker.check(index, job, out)
        assert not check.is_wrong(reasons), reasons


def test_checker_rejects_perturbed_value():
    job, out = _job(CONCURRENCE)
    assert check.Checker(1).check(0, job, out) == []
    lines = out.stdout.split("\n")
    fields = lines[3].split(",")
    fields[6] = repr(float(fields[6]) + 1e-6)
    lines[3] = ",".join(fields)
    assert check.is_wrong(check.Checker(1).check(0, job, _edit(out, "\n".join(lines))))


def test_checker_rejects_dropped_row():
    job, out = _job(CONCURRENCE)
    lines = out.stdout.split("\n")
    del lines[2]
    assert check.is_wrong(check.Checker(1).check(0, job, _edit(out, "\n".join(lines))))


def test_checker_rejects_wrong_winding():
    job, out = _job(WINDING)
    assert check.Checker(1).check(0, job, out) == []
    lines = out.stdout.split("\n")
    assert lines[1].endswith(",1,") or lines[1].endswith(",-1,")
    lines[1] = lines[1].rsplit(",", 2)[0] + ",0,"
    assert check.is_wrong(check.Checker(1).check(0, job, _edit(out, "\n".join(lines))))


def test_checker_confirms_known_winding_abort():
    g_axis = workloads.Axis(0.0692, 2.23, 38)
    job, out = _job(workloads.Sweep("winding", "A", 3, (0.0,), WINDING.theta, g_axis))
    assert out.code == 3
    reasons = check.Checker(1).check(0, job, out)
    assert reasons == [check.KNOWN_ABORT]
    assert check.failures(reasons) == []


def test_checker_fails_unconfirmed_winding_abort():
    job, out = _job(WINDING)
    fake = check.Outcome(3, "", out.seconds, None, None, "domain error: made up")
    reasons = check.Checker(1).check(0, job, fake)
    assert check.failures(reasons) == ["exit 3"]
    assert not check.is_wrong(reasons)


def test_confirm_tail_reruns_slow_jobs_and_compares_output():
    job, out = _job(WINDING)
    fp = harness.fingerprint(out)
    passed = [(job, out.seconds, fp)] * 19 + [(job, 100.0, fp)]
    latencies, reruns, same = harness.confirm_tail(passed, budget_s=60.0)
    assert same and reruns >= 1
    assert max(latencies) < 100.0
    _, _, same = harness.confirm_tail([(job, 100.0, b"other")] + passed, budget_s=60.0)
    assert not same


def test_tracer_wraps_every_binding():
    tracer = Tracer("spinphase", harness.LAYERS)
    bindings = set(tracer.bindings())
    for namespace in ("spinphase.states", "spinphase.closed_form", "spinphase"):
        assert (namespace, "reduce_state") in bindings
    # No binding of a traced function in any spinphase namespace is missed.
    originals = {id(fn): key for fn, key in _public_functions().items()}
    for name, module in sys.modules.items():
        if name == "spinphase" or name.startswith("spinphase."):
            for attr, obj in vars(module).items():
                if id(obj) in originals:
                    assert (name, attr) in bindings
    original = spinphase.states.reduce_state
    tracer.install()
    try:
        assert spinphase.reduce_state is not original
        assert spinphase.closed_form.reduce_state is spinphase.states.reduce_state
    finally:
        tracer.uninstall()
    assert spinphase.reduce_state is original and spinphase.closed_form.reduce_state is original


def _public_functions():
    import inspect

    found = {}
    for layer in harness.LAYERS:
        module = sys.modules[f"spinphase.{layer}"]
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{name}"
    return found


def test_self_times_sum_to_job_time_within_overhead():
    tracer = Tracer("spinphase", harness.LAYERS, harness.UNITS)
    traced_total = plain_best = traced_best = 0.0
    for index, job in enumerate(_first("closed_sweep", 2, 4)):
        # The overhead is taken from each job's fastest plain and traced runs,
        # so that a slow moment of the host does not decide the comparison.
        pairs = [harness._run_pair(job, tracer, traced_first=(index + k) % 2 == 1)
                 for k in range(3)]
        traced_total += sum(t.seconds for _, t in pairs)
        plain_best += min(p.seconds for p, _ in pairs)
        traced_best += min(t.seconds for _, t in pairs)
    overhead = traced_best / plain_best - 1.0
    attributed = sum(tracer.layer_self(layer) for layer in harness.LAYERS)
    assert attributed <= traced_total
    assert (traced_total - attributed) / traced_total <= max(overhead, 0.0)


def test_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(spinphase.holonomy, "integrate_holonomy")
    monkeypatch.delattr(spinphase, "integrate_holonomy")
    tracer = Tracer("spinphase", harness.LAYERS + ("no_such_layer",), harness.UNITS)
    assert tracer.missing_layers == ["no_such_layer"]
    assert tracer.absent([harness.INTEGRATE, harness.CONVERGED]) == [harness.INTEGRATE]
    metrics = harness.layer_metrics(tracer, harness._LayerCounts(), 1.0, 1.0)
    assert metrics["holonomy.integrations"]["value"] == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_entry_point_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
