"""packinglab runs without mpmath, which only the tests and their oracles use.

A subprocess that blocks the import of mpmath runs the README tour's
geometrize lines through cli.main and algebraic_guess on an int, a float and
a Fraction; each output must equal the same run in this process, where
mpmath is installed.  This module imports nothing that imports mpmath, so
the subprocess can run its run().
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from packinglab.cli import main
from packinglab.geometrize import algebraic_guess

COMMANDS = [
    "fixtures tetrahedron --out tetra.json",
    "geometrize tetra.json --d 0 --out system.json",
    "fixtures cuboctahedron --out cubocta.json",
    "geometrize cubocta.json --d 6 --out cubocta_system.json",
]

# (value, d, denom_bound, tol)
GUESSES = [(3, 3, 6, 0.0), (1.1547005384, 3, 6, 1e-9), (Fraction(1, 3), 0, 64, 0.0)]


def run(workdir: Path) -> dict:
    """Each command's exit code, stdout and stderr, every document written
    to workdir, and each guess, as text."""
    out = {}
    for command in COMMANDS:
        argv = [str(workdir / a) if a.endswith(".json") else a for a in command.split()]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out[command] = [code, stdout.getvalue(), stderr.getvalue()]
    out["files"] = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    out["guesses"] = [str(algebraic_guess(*case)) for case in GUESSES]
    return out


def test_runs_without_mpmath(tmp_path):
    here = Path(__file__).resolve().parent
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "sys.modules['mpmath'] = None\n"
        "import packinglab\n"
        "import test_without_mpmath\n"
        "print(json.dumps(test_without_mpmath.run(Path(sys.argv[1]))))\n"
    )
    (tmp_path / "without").mkdir()
    (tmp_path / "with").mkdir()
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "without")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    without = json.loads(done.stdout)
    assert without == run(tmp_path / "with")
    assert all(json.loads(without[c][2])["verified"] is True for c in COMMANDS if "geometrize" in c)
    assert without["guesses"] == ["3", "2/3*sqrt(3)", "1/3"]


def test_math_sqrt_is_correctly_rounded():
    # the guesser's float sqrt(d): no float lies nearer to the true root, so
    # the root lies strictly between the midpoints to its two neighbours
    for d in range(2, 10**4 + 1):
        if math.isqrt(d) ** 2 == d:
            continue
        s = math.sqrt(d)
        below = (Fraction(math.nextafter(s, 0)) + Fraction(s)) / 2
        above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
        assert below**2 < d < above**2, d
