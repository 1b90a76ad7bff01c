"""Command-line interface: point queries, sweeps, winding and validation.

Phases are printed in units of pi.  Exit codes: 0 success, 1 invalid
arguments, 2 validation failure, 3 domain error on a single-point query.

Only sweep, validate and the numeric phase build arrays, so only they load
numpy (through sweeps); the point commands run on the closed forms alone.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import entanglement, sweeps
from .errors import (
    DegeneratePhaseError,
    DomainBoundaryError,
    IllPosedError,
    OutOfTransitionRangeError,
    SpinPhaseError,
)
from .spin_model import (
    DEFAULT_STEPS, MAX_STEPS, ModelParams, eigenvalues, eigenvector_components,
)
from .topology import winding_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_point_args(parser, q=True, j=True, subsystem=True):
    parser.add_argument("--theta", type=float, required=True, help="field direction in radians")
    parser.add_argument("--g", type=float, required=True, help="coupling strength")
    if q:
        parser.add_argument("--q", type=float, default=0.0, help="depolarization strength")
    if j:
        parser.add_argument("--j", type=int, default=2, choices=(1, 2, 3, 4),
                            help="eigenstate index (2 = ground state)")
    if subsystem:
        parser.add_argument("--subsystem", default="A", choices=("A", "B", "composite"))


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        t, g = text.lower().split("x")
        nt, ng = int(t), int(g)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 60x60, got {text!r}")
    if nt < 2 or ng < 2:
        raise argparse.ArgumentTypeError("grid counts must be >= 2")
    return nt, ng


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinphase",
                     description="Geometric phases and entanglement of two coupled spins")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energies and eigenvector components")
    _add_point_args(p, q=False, j=False, subsystem=False)

    p = sub.add_parser("phase", help="single-point geometric phase (in units of pi)")
    _add_point_args(p)
    p.add_argument("--quantity", default="uhlmann_closed", choices=sweeps.PHASES)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                   help=f"initial integration step count for the numeric phase, "
                        f"16 to {MAX_STEPS // 2}")

    p = sub.add_parser("concurrence", help="concurrence of the (depolarized) composite state")
    _add_point_args(p, subsystem=False)

    p = sub.add_parser("critical", help="critical coupling and transition concurrence")
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("sweep", help="grid sweep emitted as CSV")
    p.add_argument("--quantity", default="uhlmann_closed", choices=sweeps.QUANTITIES)
    p.add_argument("--subsystem", default="A", choices=("A", "B", "composite"))
    p.add_argument("--j", type=int, default=2, choices=(1, 2, 3, 4))
    p.add_argument("--q", type=float, nargs="+", default=[0.0], dest="q_list")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--g-min", type=float, default=0.0)
    p.add_argument("--g-max", type=float, default=2.5)
    p.add_argument("--grid", type=_parse_grid, default=(60, 60), help="T x G point counts")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("winding", help="winding number of the phase curve")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--subsystem", default="A", choices=("A", "B"))
    p.add_argument("--j", type=int, default=2, choices=(1, 2, 3, 4))

    p = sub.add_parser("validate", help="numeric vs closed-form cross check")
    p.add_argument("--subsystem", default="A", choices=("A", "B"))
    p.add_argument("--j", type=int, default=2, choices=(1, 2, 3, 4))
    p.add_argument("--q", type=float, nargs="+", default=[0.0], dest="q_list")
    p.add_argument("--grid", type=_parse_grid, default=(8, 8))
    p.add_argument("--theta-min", type=float, default=0.3)
    p.add_argument("--theta-max", type=float, default=math.pi - 0.3)
    p.add_argument("--g-min", type=float, default=0.2)
    p.add_argument("--g-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    return parser


def _cmd_spectrum(args) -> int:
    energies = eigenvalues(args.theta, args.g)
    print("j,energy,u1,u2,u3,u4,norm")
    for j in (1, 2, 3, 4):
        u1, u2, u3, u4, norm = eigenvector_components(j, args.theta, args.g)
        print(f"{j},{energies[j - 1]:.12g},{u1:.12g},{u2:.12g},{u3:.12g},{u4:.12g},{norm:.12g}")
    return EXIT_OK


def _cmd_phase(args) -> int:
    params = ModelParams(args.theta, args.g, args.q, args.j)
    value = sweeps.evaluate(args.quantity, params, args.subsystem, args.steps)
    print(f"{value / math.pi:.12g}")
    return EXIT_OK


def _cmd_concurrence(args) -> int:
    params = ModelParams(args.theta, args.g, args.q, args.j)
    print(f"{sweeps.evaluate('concurrence', params, 'composite'):.12g}")
    return EXIT_OK


def _cmd_critical(args) -> int:
    g_dc = entanglement.critical_coupling(args.q)
    c_tr = entanglement.transition_concurrence(args.q)
    print(f"critical_coupling,{g_dc:.12g}")
    print(f"transition_concurrence,{c_tr.value:.12g}")
    return EXIT_OK


def _spec(args, quantity: str) -> sweeps.SweepSpec:
    return sweeps.SweepSpec(
        theta_range=(args.theta_min, args.theta_max, args.grid[0]),
        g_range=(args.g_min, args.g_max, args.grid[1]),
        q_list=tuple(args.q_list),
        j=args.j,
        subsystem=args.subsystem,
        quantity=quantity,
        steps=args.steps,
    )


def _cmd_sweep(args) -> int:
    rows = sweeps.run_sweep(_spec(args, args.quantity))
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            sweeps.write_csv(rows, fh)
    else:
        sweeps.write_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_winding(args) -> int:
    result = winding_number(args.g, args.q, args.subsystem, args.j)
    print(f"winding,{result.winding}")
    print(f"clearance,{result.clearance:.3g}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    report = sweeps.cross_validate(_spec(args, "uhlmann_numeric"))
    print(f"points,{report.count}")
    print(f"flagged,{report.flagged}")
    print(f"max_error,{report.max_error:.3e}")
    for theta, g, q, err in report.exceeding:
        print(f"exceeds,{theta:.6g},{g:.6g},{q:.6g},{err:.3e}")
    if report.failed:
        print("status,FAIL")
        return EXIT_VALIDATION
    if report.count == 0:
        # Every point was flagged: a check of nothing is not a pass.
        print("status,EMPTY")
        return EXIT_VALIDATION
    print("status,OK")
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "phase": _cmd_phase,
    "concurrence": _cmd_concurrence,
    "critical": _cmd_critical,
    "sweep": _cmd_sweep,
    "winding": _cmd_winding,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (DomainBoundaryError, DegeneratePhaseError, OutOfTransitionRangeError,
            IllPosedError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpinPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
