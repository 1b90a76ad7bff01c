"""Geometric phases and entanglement of two coupled spin-1/2 particles.

Computes Uhlmann, Berry and interferometric phases for the composite system
and its subsystems under a depolarizing channel, with numerical holonomy
integration cross-validated against exact closed forms, plus concurrence
measures and topological (winding-number / vortex) analysis.

Importing spinphase loads no submodule: an export is resolved on first
access (PEP 562), from the table below, and numpy loads only with the array
layer (holonomy, sweep grids, phase maps).
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_LAYERS = {
    "closed_form": ("PhaseValue", "berry_composite", "berry_qubit_levels",
                    "interferometric_subsystem", "mean_berry", "uhlmann_equator",
                    "uhlmann_subsystem", "wrap_angle"),
    "entanglement": ("G_CRITICAL_PURE", "Q_TRANSITION_MAX", "ConcurrenceValue",
                     "concurrence_depolarized", "concurrence_equator", "concurrence_pure",
                     "critical_coupling", "transition_concurrence"),
    "errors": ("ConvergenceFailureError", "DegeneratePhaseError", "DomainBoundaryError",
               "GridTooCoarseError", "IllPosedError", "OutOfTransitionRangeError",
               "SpinPhaseError"),
    "holonomy": ("Holonomy", "composite_generator", "composite_sampler", "converged_phase",
                 "depolarize", "depolarized_spectrum", "eigenbasis", "eigenstate",
                 "integrate_holonomy", "pure_density", "qubit_matrix", "reduced_sampler",
                 "uhlmann_phase"),
    "spin_model": ("ModelParams", "eigenvalues", "eigenvector_components"),
    "states": ("QubitState", "reduce_state"),
    "sweeps": ("SweepRow", "SweepSpec", "cross_validate", "run_sweep", "write_csv"),
    "topology": ("VortexHit", "WindingResult", "find_vortices", "phase_map",
                 "winding_number"),
    "cli": (),
}
# Exported name -> its submodule.
_EXPORTS = {name: module for module, names in _LAYERS.items() for name in names}


class _Package(types.ModuleType):
    """The package module: binding a loaded submodule here binds its exports too.

    The import system binds each submodule on its package as it loads it, so
    the exports of every loaded layer sit in the package namespace, as in a
    package that imports them eagerly; the others resolve on first access
    through __getattr__.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType):
            for export in _LAYERS.get(name, ()):
                super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_LAYERS))
