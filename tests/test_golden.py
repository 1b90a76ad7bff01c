"""Byte-for-byte pins of the command-line output.

Each case runs ``cli.main`` in memory and compares the sha256 of its exit code
and standard output with a recorded digest.  A refactor leaves every digest as
it is; a change of numbers states its value differences and updates the
digests it moves.  Standard error (the wording of messages) is not pinned.
"""

import contextlib
import hashlib
import io
import math
import sys

import pytest

from spinphase import cli

G_C = repr(2.0 / math.sqrt(3.0))
# theta in {0, pi/4, pi/2, 3pi/4, pi} and g in {0, g_c, 2 g_c}: the grid holds
# the poles with coupling, the poles at g = 0 (boundary rows), g = 0 off the
# poles and the equator vortex.
CLOSED_GRID = ["--grid", "5x3", "--g-max", repr(4.0 / math.sqrt(3.0))]
NUMERIC_GRID = ["--grid", "2x2", "--theta-min", "0.5", "--theta-max", "2.6",
                "--g-min", "0.3", "--g-max", "2.2", "--steps", "512"]
POINT = ["--theta", "1.1", "--g", "1.4", "--q", "0.2"]

CASES = {
    "sweep-uhlmann_closed": (
        ["sweep", "--quantity", "uhlmann_closed", "--q", "0", "0.2", *CLOSED_GRID],
        "bc0ea4d0b4e618dc3987512776412a9c8a559b5dd3b0dae0f5962958cd9f16c2",
    ),
    "sweep-uhlmann_numeric": (
        ["sweep", "--quantity", "uhlmann_numeric", "--subsystem", "B", "--q", "0.1",
         *NUMERIC_GRID],
        "333ba228589db1448236da80879a06fac3147e1906cdb76b9c0ac59e517b388a",
    ),
    "sweep-berry": (
        ["sweep", "--quantity", "berry", "--subsystem", "composite", "--j", "3",
         *CLOSED_GRID],
        "7fc5aa444f109709e0f10831f19134127a93277404a71da329060e868ae4e398",
    ),
    "sweep-interferometric": (
        ["sweep", "--quantity", "interferometric", "--subsystem", "B", "--q", "0", "0.3",
         *CLOSED_GRID],
        "9071db3d8a99da9969f70986aac541528427297a421fcecbc36d07b7cd708323",
    ),
    "sweep-concurrence": (
        ["sweep", "--quantity", "concurrence", "--j", "1", "--q", "0", "0.3", *CLOSED_GRID],
        "bf764ace3a0c69a6d16a1cf15583f803bc0ecaed6084ea74abe8e2fb5b9aa89c",
    ),
    "sweep-winding": (
        ["sweep", "--quantity", "winding", "--q", "0.05", "--grid", "2x6",
         "--g-min", "0.2", "--g-max", "2.2"],
        "0f22aaee42ab6e0dab24ca39fc4da6975f970d0cb38642b979f52dff1e323c8a",
    ),
    "spectrum": (
        ["spectrum", "--theta", "1.1", "--g", "0.7"],
        "d106f29c452cb858fa704c70d058fac82142826a9bf000b5ccf9be0f04afa0ee",
    ),
    "phase-uhlmann_closed": (
        ["phase", *POINT],
        "54954efc28cab8f694feddcdd98a7a31b564404ea0716d29787c50ab3620b630",
    ),
    "phase-uhlmann_numeric": (
        ["phase", *POINT, "--subsystem", "B", "--quantity", "uhlmann_numeric",
         "--steps", "512"],
        "beb8c65efc112802024a51da44022b317b55edabfff149d296f5b5788cc56a55",
    ),
    "phase-berry": (
        ["phase", *POINT, "--quantity", "berry", "--j", "4"],
        "23718315dcf0cc6cdae0ab58437006707488d306d351e7cf97f3c5a001a22ccf",
    ),
    "phase-interferometric": (
        ["phase", *POINT, "--quantity", "interferometric"],
        "5687fcd2526357e523b8858c7c0a33f4b534da7830a6ccd98b32d3a15d47d406",
    ),
    "phase-vortex": (
        ["phase", "--theta", repr(math.pi / 2), "--g", G_C],
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    ),
    "phase-composite-closed": (
        ["phase", *POINT, "--subsystem", "composite"],
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    "concurrence": (
        ["concurrence", *POINT],
        "4e9c4e3d62173f7d581ce73008a4bd45bf4e2a4da9047f61171dcd1b2455ef4b",
    ),
    "critical": (
        ["critical", "--q", "0.05"],
        "dc34ae7b70ea88cb5eba5a148fa854687e9c790bd4ca36d6da16df6f4d435154",
    ),
    "winding": (
        ["winding", "--g", "0.5", "--q", "0.05"],
        "04860a17d034ae2e9681b84ad3e3381f63b1cd1b938ca1653c4566c218242a1a",
    ),
    "validate": (
        ["validate", "--grid", "2x2", "--steps", "512", "--q", "0", "0.1"],
        "c482c77939d237b8aa7da2528895a467725b30f85f084fc52836703b78cdcf3f",
    ),
}


def run(argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{code}\n{stdout.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes(name):
    argv, digest = CASES[name]
    assert hashlib.sha256(run(argv).encode()).hexdigest() == digest


if __name__ == "__main__":
    # Print "name, recorded, actual" for each digest that moved; exit 1 if any did.
    moved = 0
    for name, (argv, recorded) in sorted(CASES.items()):
        actual = hashlib.sha256(run(argv).encode()).hexdigest()
        if actual != recorded:
            moved += 1
            print(f"{name}, {recorded}, {actual}")
    sys.exit(1 if moved else 0)
