"""Geometric phases and entanglement of two coupled spin-1/2 particles.

Computes Uhlmann, Berry and interferometric phases for the composite system
and its subsystems under a depolarizing channel, with numerical holonomy
integration cross-validated against exact closed forms, plus concurrence
measures and topological (winding-number / vortex) analysis.
"""

from .closed_form import (
    PhaseValue,
    berry_composite,
    berry_qubit_levels,
    interferometric_subsystem,
    mean_berry,
    uhlmann_equator,
    uhlmann_subsystem,
    wrap_angle,
)
from .entanglement import (
    G_CRITICAL_PURE,
    Q_TRANSITION_MAX,
    ConcurrenceValue,
    concurrence_depolarized,
    concurrence_equator,
    concurrence_pure,
    critical_coupling,
    transition_concurrence,
)
from .errors import (
    ConvergenceFailureError,
    DegeneratePhaseError,
    DomainBoundaryError,
    GridTooCoarseError,
    IllPosedError,
    OutOfTransitionRangeError,
    SpinPhaseError,
)
from .holonomy import (
    Holonomy,
    composite_generator,
    composite_sampler,
    converged_phase,
    depolarized_spectrum,
    integrate_holonomy,
    reduced_sampler,
    uhlmann_phase,
)
from .spin_model import (
    ModelParams,
    eigenbasis,
    eigenstate,
    eigenvalues,
    eigenvector_components,
    hamiltonian,
)
from .states import (
    QubitState,
    bloch,
    depolarize,
    pure_density,
    reduce_state,
)
from .sweeps import SweepSpec, SweepRow, cross_validate, run_sweep, write_csv
from .topology import VortexHit, WindingResult, find_vortices, phase_map, winding_number

__version__ = "0.1.0"
