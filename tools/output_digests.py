"""Print one SHA-256 per output of a fixed list of mflow commands and demos.

    python3 tools/output_digests.py [CHECKOUT] > digests.txt

``CHECKOUT`` is the root of an mflow source tree (default: the tree this
script belongs to); its ``src/`` and ``demos/`` are used.  Beside the
commands and demos, one seeded wide quadratic solve (n = 1000, m = 500, a
fixed iteration count) prints the SHA-256 of its records, so that the
matvec path is also covered at a size where BLAS, not Python, does the
work; it runs with ``L`` C-ordered, F-ordered and as a strided view, the
layouts that ``LinearMap`` wraps or copies.  Each splitting instance is also
Euler-integrated at step size 0.5 for 3,000 steps.  Two malformed ``mflow solve``
command lines (a non-integer ``--max-iter``, and a ``--lambda``, which ``solve``
does not take) run too, so that their exit codes and stderr are covered.
``mflow check --samples 64`` also runs on a 1-D quadratic instance file whose
data are scaled by 2^20 and by 2^-20, so that cap sampling is covered on a far
and on a tiny cap.  Every command runs
in a fresh interpreter with one BLAS thread, writing into its own temporary
directory.  For each command the script hashes its exit code, stdout and
stderr, and then every file it wrote; each output's path is replaced by a
fixed token before hashing, because the order tables embed it.  Two
checkouts produce byte-identical outputs exactly when this script prints
the same lines for both, so comparing them is one ``diff``.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SPLITTING = ("quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2")
FIELDS = ("lens-drift", "box-flow")
CHECK_SEEDS = (0, 1, 7, 104729)
TOKEN = b"<out>"
WIDE_SOLVE = """
import hashlib
import sys
import numpy as np
import mflow

rng = np.random.default_rng(0)
L = rng.standard_normal((500, 1000)) / np.sqrt(1000)
if sys.argv[1:] == ["F"]:
    L = np.asfortranarray(L)
elif sys.argv[1:] == ["strided"]:
    every_other = np.zeros((500, 2000))
    every_other[:, ::2] = L
    L = every_other[:, ::2]
named = mflow.quadratic_instance(rng.standard_normal(1000), rng.standard_normal(500), L)
run = mflow.solve(named.instance, max_iter=300, tol_residual=1e-300, tol_step=1e-300, z=named.z)
records = (run.points, run.norm_to_w, run.fejer_slack, run.residual, run.step_norm)
print(run.termination, run.iterations)
print(hashlib.sha256(b"".join(r.tobytes() for r in records)).hexdigest())
"""

SCALED_CHECK = """
import json
import runpy
import sys

s = 2.0 ** int(sys.argv[1])
doc = {
    "name": "custom1d",
    "A": {"tag": "quadratic", "b": [0.0]},
    "B": {"tag": "quadratic", "b": [s]},
    "L": [[1.0]],
    "gamma": 0.5,
    "mu": 0.5,
    "w": {"p": [0.0], "v": [0.0]},
    "x0": {"p": [0.0], "v": [0.0]},
    "z": [s / 2, -s / 2],
}
with open("instance.json", "w") as fh:
    json.dump(doc, fh)
sys.argv = ["mflow", "check", "--instance", "instance.json", "--samples", "64", "--out", "out"]
runpy.run_module("mflow", run_name="__main__")
"""


def commands():
    """(label, mflow arguments) of every command whose outputs are hashed."""
    out = []
    for tag in SPLITTING:
        out.append((f"solve {tag}", ["solve", "--instance", tag, "--max-iter", "3000"]))
    for tag in SPLITTING:
        args = ["integrate", "--instance", tag, "--lambda", "0.5", "--t-final", "1500"]
        out.append((f"integrate {tag} lambda 0.5 t-final 1500", args))
    # two malformed solves, whose exit codes and error lines are digested
    args = ["solve", "--instance", "quadratic1d", "--max-iter", "abc"]
    out.append(("solve quadratic1d max-iter abc", args))
    args = ["solve", "--instance", "quadratic3x2", "--lambda", "0.5", "--max-iter", "10"]
    out.append(("solve quadratic3x2 lambda 0.5", args))
    for tag in SPLITTING + FIELDS:
        for seed in CHECK_SEEDS:
            args = ["check", "--instance", tag, "--samples", "512", "--seed", str(seed)]
            out.append((f"check {tag} seed {seed}", args))
    for tag in SPLITTING + FIELDS:
        args = ["integrate", "--instance", tag, "--lambda", "0.2,0.1"]
        out.append((f"integrate {tag}", args))
    return out


def digest(data, workdir):
    return hashlib.sha256(data.replace(os.fsencode(workdir), TOKEN)).hexdigest()


def run(argv, root, workdir):
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return subprocess.run(argv, capture_output=True, cwd=workdir, env=env, timeout=600)


def report(label, proc, workdir):
    """Digest lines of one finished process and of the files it left in ``workdir``."""
    lines = [
        f"{digest(str(proc.returncode).encode(), workdir)}  {label}: exit {proc.returncode}",
        f"{digest(proc.stdout, workdir)}  {label}: stdout",
        f"{digest(proc.stderr, workdir)}  {label}: stderr",
    ]
    for path in sorted(p for p in Path(workdir).rglob("*") if p.is_file()):
        name = path.relative_to(workdir)
        lines.append(f"{digest(path.read_bytes(), workdir)}  {label}: {name}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.exit(__doc__.splitlines()[2].strip())
    root = Path(argv[0]).resolve() if argv else HERE
    jobs = [
        (label, [sys.executable, "-m", "mflow", *args, "--out", "out"])
        for label, args in commands()
    ]
    jobs.append(("solve wide n=1000 m=500 seed 0", [sys.executable, "-c", WIDE_SOLVE]))
    for layout in ("F", "strided"):
        label = f"solve wide n=1000 m=500 seed 0 {layout} L"
        jobs.append((label, [sys.executable, "-c", WIDE_SOLVE, layout]))
    for k in (20, -20):
        jobs.append((f"check custom1d scaled 2^{k}", [sys.executable, "-c", SCALED_CHECK, str(k)]))
    jobs += [
        (f"demo {demo.stem}", [sys.executable, str(demo)])
        for demo in sorted((root / "demos").glob("*.py"))
    ]
    for label, cmd in jobs:
        with tempfile.TemporaryDirectory() as workdir:
            proc = run(cmd, root, workdir)
            print("\n".join(report(label, proc, workdir)), flush=True)


if __name__ == "__main__":
    main()
