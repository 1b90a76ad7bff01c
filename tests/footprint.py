"""Numerics footprint of a change: the same seeded points through two source trees.

Usage: python tests/footprint.py OLD_SRC NEW_SRC

Each tree's ``spinphase`` runs in its own interpreter over 20 000 seeded
points: half at least 1e-3 from a pole, half 1e-9 to 1e-3 from one; g
log-uniform in [1e-10, 3] or uniform in [0, 3]; q drawn from
{0, 0.05, 0.1073, 0.3, U(0, 1), 1}; j from 1..4.  A further 400 points sit
exactly on a pole, theta in {0, pi}, a quarter of them at g = 0.  The
subsystem phases are evaluated for A and B, the composite Berry phase and the
concurrence once a point.  For each quantity it prints the largest difference
far from, near and on the poles (radians for phases), the number of values
whose 12-digit CSV form changed, and every flag that changed.
"""

import math
import os
import pickle
import subprocess
import sys

import numpy as np

POINTS = 20_000
POLE_POINTS = 400
SEED = 20_251_020
REGIONS = ("far", "near", "pole")
QUANTITIES = {
    "uhlmann_closed": ("A", "B"),
    "interferometric": ("A", "B"),
    "berry": ("composite",),
    "concurrence": ("composite",),
}


def points():
    """(theta, g, q, j) rows: POINTS / 2 far from the poles, as many near, then
    POLE_POINTS on them."""
    rng = np.random.default_rng(SEED)
    half = POINTS // 2
    off = 10.0 ** rng.uniform(-9.0, -3.0, half)
    near = np.where(rng.random(half) < 0.5, off, math.pi - off)
    thetas = np.concatenate([rng.uniform(1e-3, math.pi - 1e-3, half), near])
    gs = np.where(rng.random(POINTS) < 0.5, 10.0 ** rng.uniform(-10.0, math.log10(3.0), POINTS),
                  rng.uniform(0.0, 3.0, POINTS))
    pick = rng.integers(0, 6, POINTS)
    # Index 4 draws q from U(0, 1).
    qs = np.where(pick == 4, rng.uniform(0.0, 1.0, POINTS),
                  np.array([0.0, 0.05, 0.1073, 0.3, 0.0, 1.0])[pick])
    js = rng.integers(1, 5, POINTS)
    # The pole points reuse the first rows' g, q and j; a quarter are uncoupled.
    poles = np.where(rng.random(POLE_POINTS) < 0.5, 0.0, math.pi)
    pole_gs = np.where(rng.random(POLE_POINTS) < 0.25, 0.0, gs[:POLE_POINTS])
    thetas, gs = np.concatenate([thetas, poles]), np.concatenate([gs, pole_gs])
    qs, js = np.concatenate([qs, qs[:POLE_POINTS]]), np.concatenate([js, js[:POLE_POINTS]])
    return [(float(t), float(g), float(q), int(j)) for t, g, q, j in zip(thetas, gs, qs, js)]


def evaluate_all():
    """{quantity: [(value or None, flag)]}, point-major, subsystems innermost."""
    from spinphase import ModelParams
    from spinphase.sweeps import _POINT_FLAGS, evaluate

    out = {}
    rows = points()
    for quantity, subsystems in QUANTITIES.items():
        values = []
        for theta, g, q, j in rows:
            params = ModelParams(theta, g, q, j)
            for subsystem in subsystems:
                try:
                    values.append((evaluate(quantity, params, subsystem), ""))
                except tuple(_POINT_FLAGS) as exc:
                    values.append((None, _POINT_FLAGS[type(exc)]))
        out[quantity] = values
    return out


def run(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, __file__, "--evaluate"], env=env,
                          capture_output=True, check=True)
    return pickle.loads(done.stdout)


def csv_form(quantity, value):
    unit = 1.0 if quantity == "concurrence" else math.pi
    return f"{value / unit:.12g}"


def compare(old, new):
    rows = points()
    half = POINTS // 2
    for quantity, subsystems in QUANTITIES.items():
        unit = "" if quantity == "concurrence" else " rad"
        per_point = len(subsystems)
        largest = [(0.0, None)] * len(REGIONS)
        changed = [0] * len(REGIONS)
        total = [0] * len(REGIONS)
        flag_lines = []
        for k, ((a, fa), (b, fb)) in enumerate(zip(old[quantity], new[quantity])):
            point, subsystem = rows[k // per_point], subsystems[k % per_point]
            region = min(k // per_point // half, 2)
            total[region] += 1
            if fa != fb:
                flag_lines.append(f"  {point} {subsystem}: {fa or a!r} -> {fb or b!r}")
                continue
            if a is None:
                continue
            diff = b - a if quantity == "concurrence" else abs(math.remainder(b - a, 2 * math.pi))
            if abs(diff) > largest[region][0]:
                largest[region] = (abs(diff), (point, subsystem))
            changed[region] += csv_form(quantity, a) != csv_form(quantity, b)
        print(f"{quantity}:")
        for region, name in enumerate(REGIONS):
            size, where = largest[region]
            print(f"  {name}: largest difference {size:.2g}{unit} at {where}; "
                  f"{changed[region]} of {total[region]} 12-digit values changed")
        print(f"  changed flags: {len(flag_lines)}")
        for line in flag_lines:
            print(line)


if __name__ == "__main__":
    if sys.argv[1:] == ["--evaluate"]:
        sys.stdout.buffer.write(pickle.dumps(evaluate_all()))
    elif len(sys.argv) == 3:
        compare(run(sys.argv[1]), run(sys.argv[2]))
    else:
        sys.exit(__doc__)
