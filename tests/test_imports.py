"""Import layering: numpy loads only where arrays are built.

The closed-form layer (errors, spin_model, states, closed_form, entanglement,
winding_number and the sweeps quantity table) runs without numpy; holonomy,
sweep grids and phase maps load it.  The package root resolves its exports
on first access.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinphase

SRC = str(Path(__file__).resolve().parent.parent / "src")
POINT = ["--theta", "1.1", "--g", "1.4", "--q", "0.2"]
# Point commands that need no array; each is run in turn in one process.
CLOSED_COMMANDS = [
    ["spectrum", "--theta", "1.1", "--g", "1.4"],
    *(["phase", *POINT, "--quantity", quantity]
      for quantity in ("uhlmann_closed", "berry", "interferometric")),
    ["phase", *POINT, "--subsystem", "B"],
    ["concurrence", *POINT],
    ["critical", "--q", "0.05"],
    ["winding", "--g", "0.5", "--q", "0.05"],
]
ARRAY_COMMANDS = [
    ["sweep", "--grid", "3x3"],
    ["validate", "--grid", "2x2", "--steps", "64"],
    ["phase", *POINT, "--quantity", "uhlmann_numeric", "--steps", "64"],
]
# Every name the package root exported before its exports became lazy, less
# the oracles that moved to tests/oracles.py (hamiltonian, bloch), and the
# submodule that defines it now.
EXPORTS = {
    **dict.fromkeys(
        ["PhaseValue", "berry_composite", "berry_qubit_levels", "interferometric_subsystem",
         "mean_berry", "uhlmann_equator", "uhlmann_subsystem", "wrap_angle"],
        "closed_form"),
    **dict.fromkeys(
        ["G_CRITICAL_PURE", "Q_TRANSITION_MAX", "ConcurrenceValue", "concurrence_depolarized",
         "concurrence_equator", "concurrence_pure", "critical_coupling",
         "transition_concurrence"],
        "entanglement"),
    **dict.fromkeys(
        ["ConvergenceFailureError", "DegeneratePhaseError", "DomainBoundaryError",
         "GridTooCoarseError", "IllPosedError", "OutOfTransitionRangeError", "SpinPhaseError"],
        "errors"),
    **dict.fromkeys(
        ["Holonomy", "composite_generator", "composite_sampler", "converged_phase",
         "depolarize", "depolarized_spectrum", "eigenbasis", "eigenstate",
         "integrate_holonomy", "pure_density", "reduced_sampler", "uhlmann_phase"],
        "holonomy"),
    **dict.fromkeys(["ModelParams", "eigenvalues", "eigenvector_components"], "spin_model"),
    **dict.fromkeys(["QubitState", "reduce_state"], "states"),
    **dict.fromkeys(["SweepRow", "SweepSpec", "cross_validate", "run_sweep", "write_csv"],
                    "sweeps"),
    **dict.fromkeys(
        ["VortexHit", "WindingResult", "find_vortices", "phase_map", "winding_number"],
        "topology"),
}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60)


# Prints, after the parser is built and after each command, whether numpy is
# loaded, with the command's exit code.
NUMPY_PROBE = """
import json, sys
import spinphase.cli as cli
cli.build_parser()
print("probe", json.dumps(["build_parser", 0, "numpy" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    print("probe", json.dumps([" ".join(argv), code, "numpy" in sys.modules]))
"""


def probe(commands: list[list[str]]) -> list[tuple[str, int, bool]]:
    proc = run_python(NUMPY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line[len("probe "):])) for line in proc.stdout.splitlines()
            if line.startswith("probe ")]


def test_point_commands_run_without_numpy():
    steps = probe(CLOSED_COMMANDS)
    assert len(steps) == len(CLOSED_COMMANDS) + 1
    assert [(name, code) for name, code, numpy_loaded in steps if code or numpy_loaded] == []


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=["sweep", "validate", "numeric-phase"])
def test_array_commands_load_numpy(argv):
    ((_, parser_code, before), (_, code, after)) = probe([argv])
    assert (parser_code, before) == (0, False)
    assert (code, after) == (0, True)


def test_every_export_resolves_to_its_submodule_object():
    for name, module in EXPORTS.items():
        defined = getattr(importlib.import_module(f"spinphase.{module}"), name)
        assert getattr(spinphase, name) is defined, name
    assert set(EXPORTS) <= set(dir(spinphase))
    assert "__version__" in dir(spinphase)


def test_moved_oracles_are_not_exported():
    for name in ("hamiltonian", "bloch"):
        assert not hasattr(spinphase, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinphase.no_such_name  # noqa: B018
    assert getattr(spinphase, "no_such_name", None) is None


def test_submodules_import_from_the_root():
    proc = run_python("from spinphase import cli, topology; "
                      "print(cli.main.__module__, topology.phase_map.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["spinphase.cli", "spinphase.topology"]


def test_importing_the_root_loads_no_submodule():
    proc = run_python("import sys, spinphase; "
                      "print(sorted(m for m in sys.modules if m.startswith('spinphase')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['spinphase']"
