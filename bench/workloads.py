"""The benchmark workloads: seeded inputs, set-up, calibration, timed operations, checks.

Every workload is a list of operations.  One repetition runs each operation
once; only the call into ``mflow`` is timed, and each output is checked
afterwards.  An operation fails when it raises, misses its tolerance,
breaks the monotonicity or Fejer bounds of acceptance criterion 3, returns
an unexpected exit code or verdict, or produces an output that differs
bitwise from the reference (the calibration iterate, or the output of the
first repetition).

Why several draws per workload: the iteration count to a fixed error is
sensitive to rounding.  Perturbing the anchor shift of a built-in by one
part in 1e15 moves the count by up to 3x, so the count of a single solve is
close to a random variable with a coefficient of variation near 0.3 at
every tolerance from 1e-3 to 1e-6.  A workload therefore sums independent
draws; the sum varies by 5 to 10% between seeds.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import mflow
import mflow.cli
from mflow.space import PDPoint

SHIFT_SCALE = 0.02  # anchor shift of acceptance criterion 2
MONOTONE_TOL = 1e-10  # criterion 3: norm_to_w drop and fejer_slack floor
NO_STOP = 1e-300  # disables the residual and step stops of a timed solve

BUILTINS = ("quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2")
BUILTIN_DRAWS = 12
BUILTIN_TOL = 1e-4  # absolute error against the built-in oracle
BUILTIN_CALIBRATION_CAP = 50_000

WIDE_N, WIDE_M = 1000, 500
WIDE_DRAWS = 16
WIDE_TOL = 3e-3  # error relative to ||z|| against the dense-solve oracle
WIDE_CALIBRATION_CAP = 10_000

CHECK_TAGS = ("quadratic3x2", "lasso3x2", "box-flow")
CHECK_SAMPLES = 512

CLI_BASE = "quadratic3x2"
CLI_DRAWS = 24
CLI_TOL_RESIDUAL = 1e-4

# tags of the operations that iterate, as in dynamics.iters_to_tol.<tag>
ITERATION_TAGS = BUILTINS + ("wide", "cli")

# the name each workload's timed total goes by in the reports
TASK_ALIAS = {
    "solve-builtins": "time_to_tol_s",
    "solve-wide": "time_to_tol_s",
    "check-cap": "check_s",
    "solve-cli": "cli_solve_s",
}


class CalibrationError(RuntimeError):
    """The untimed calibration solve did not reach the tolerance."""


def digest(data):
    return hashlib.sha256(data).hexdigest()


def trajectory_problems(norm_to_w, fejer_slack):
    """Criterion 3 bounds on one trajectory; returns a list of violations."""
    problems = []
    drop = float(np.min(np.diff(norm_to_w), initial=0.0))
    if drop < -MONOTONE_TOL:
        problems.append(f"norm_to_w decreases by {-drop:.3e}")
    floor = float(np.min(fejer_slack))
    if floor < -MONOTONE_TOL:
        problems.append(f"fejer_slack reaches {floor:.3e}")
    return problems


# -- generated inputs -------------------------------------------------------


def builtin_shifts(seed, dims):
    """Anchor shifts ``0.02 N(0, 1)`` per built-in: ``{tag: (draws, dim)}``."""
    rng = np.random.default_rng(seed)
    return {
        tag: SHIFT_SCALE * rng.standard_normal((BUILTIN_DRAWS, dim))
        for tag, dim in dims.items()
    }


def wide_data(seed):
    """Draws ``(L, p0, q0)`` with ``L = N(0, 1) / sqrt(n)`` and ``N(0, 1)`` blocks."""
    rng = np.random.default_rng(seed)
    return [
        (
            rng.standard_normal((WIDE_M, WIDE_N)) / np.sqrt(WIDE_N),
            rng.standard_normal(WIDE_N),
            rng.standard_normal(WIDE_M),
        )
        for _ in range(WIDE_DRAWS)
    ]


def cli_documents(seed, named):
    """Instance documents of ``named`` with the anchor and start shifted jointly."""
    inst = named.instance
    rng = np.random.default_rng(seed)
    docs = []
    for k in range(CLI_DRAWS):
        shift = SHIFT_SCALE * rng.standard_normal(inst.dim)
        anchor = {"p": shift[: inst.dim_p].tolist(), "v": shift[inst.dim_p :].tolist()}
        docs.append(
            {
                "name": f"cli{k}",
                "A": {"tag": "quadratic", "b": inst.A.b.tolist()},
                "B": {"tag": "quadratic", "b": inst.B.b.tolist()},
                "L": inst.L.matrix.tolist(),
                "gamma": inst.gamma,
                "mu": inst.mu,
                "w": anchor,
                "x0": anchor,
                "z": named.z.tolist(),
            }
        )
    return docs


# -- operations -------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class Outcome:
    problems: list
    iterations: int
    signature: str


def shifted(inst, shift):
    w = PDPoint(shift[: inst.dim_p], shift[inst.dim_p :])
    return dataclasses.replace(inst, w=w, x0=w)


def fixed_length_solve(inst, n, z):
    """Exactly ``n`` iterations of the discrete scheme, with error columns for ``z``."""
    return mflow.solve(inst, max_iter=n, tol_residual=NO_STOP, tol_step=NO_STOP, z=z)


@dataclasses.dataclass(eq=False)
class SolveOp:
    """``mflow.solve`` run for exactly the calibrated iteration count ``n_star``."""

    tag: str
    inst: object
    z: np.ndarray
    tol: float
    scale: float  # error divisor: 1 for absolute, ||z|| for relative error
    cap: int
    n_star: int = None
    x_star: np.ndarray = None
    calibration_error: str = None

    def calibrate(self):
        """Find the first iterate within tolerance, in growing bounded-memory chunks.

        The scheme's next iterate depends only on the current one and the
        anchor, so restarting from a chunk's last iterate continues the
        same sequence bit for bit.
        """
        chunk, max_chunk = 256, max(256, 2**17 // self.inst.dim)
        start, offset = self.inst, 0
        try:
            while offset < self.cap:
                traj = fixed_length_solve(start, chunk, self.z)
                errs = np.linalg.norm(traj.points - self.z, axis=1) / self.scale
                hit = np.flatnonzero(errs <= self.tol)
                if hit.size:
                    if offset + hit[0] == 0:
                        raise CalibrationError("the start is already within tolerance")
                    self.n_star = offset + int(hit[0])
                    self.x_star = traj.points[hit[0]].copy()
                    return
                if traj.termination != "max_iter":
                    raise CalibrationError(f"solve stopped on {traj.termination!r}")
                x0 = PDPoint.from_flat(traj.final, self.inst.dim_p)
                start = dataclasses.replace(self.inst, x0=x0)
                offset += chunk
                chunk = min(2 * chunk, max_chunk)
            raise CalibrationError(f"error above {self.tol} after {offset} iterations")
        except Exception as exc:  # a failed calibration fails this operation
            self.calibration_error = f"calibration: {type(exc).__name__}: {exc}"

    def run(self):
        if self.n_star is None:
            raise CalibrationError(self.calibration_error)
        return fixed_length_solve(self.inst, self.n_star, self.z)

    def check(self, traj):
        problems = []
        if traj.termination != "max_iter" or traj.iterations != self.n_star:
            problems.append(f"stopped on {traj.termination} after {traj.iterations}")
        err = float(np.linalg.norm(traj.final - self.z)) / self.scale
        if not err <= self.tol:
            problems.append(f"error {err:.3e} above {self.tol}")
        if traj.final.tobytes() != self.x_star.tobytes():
            problems.append("final iterate differs from the calibration iterate")
        problems += trajectory_problems(traj.norm_to_w, traj.fejer_slack)
        return Outcome(problems, traj.iterations, digest(traj.final.tobytes()))


@dataclasses.dataclass(eq=False)
class CliOp:
    """One in-process ``mflow`` command writing into its own directory."""

    tag: str
    argv: list
    out: Path

    def run(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = mflow.cli.main(self.argv + ["--out", str(self.out)])
        return code, stdout.getvalue(), stderr.getvalue()


class CliSolveOp(CliOp):
    def check(self, result):
        code, _, stderr = result
        if code != 0:
            return Outcome([f"exit code {code}: {stderr.strip()}"], 0, "")
        summary = json.loads((self.out / f"{self.out.name}_summary.json").read_text())
        csv_bytes = (self.out / f"{self.out.name}_trajectory.csv").read_bytes()
        problems = []
        if summary["termination"] != "residual":
            problems.append(f"terminated on {summary['termination']}")
        if not summary["final_residual"] <= CLI_TOL_RESIDUAL:
            problems.append(f"residual {summary['final_residual']:.3e}")
        cols = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
        problems += trajectory_problems(cols[:, -4], cols[:, -3])
        return Outcome(problems, summary["iterations"], digest(csv_bytes))


class CheckOp(CliOp):
    def check(self, result):
        code, stdout, stderr = result
        problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()}"]
        report = (self.out / f"{self.tag}_checks.json").read_bytes()
        failed = [rep["name"] for rep in json.loads(report) if not rep["passed"]]
        if failed or "FAIL" in stdout:
            problems.append(f"checks failed: {failed}")
        return Outcome(problems, 0, digest(report))


# -- workloads --------------------------------------------------------------


def solve_builtins(seed, workdir):
    named = {tag: mflow.get_instance(tag) for tag in BUILTINS}
    shifts = builtin_shifts(seed, {tag: named[tag].instance.dim for tag in BUILTINS})
    return [
        SolveOp(
            tag, shifted(named[tag].instance, s), named[tag].z, BUILTIN_TOL, 1.0,
            BUILTIN_CALIBRATION_CAP,
        )
        for tag in BUILTINS
        for s in shifts[tag]
    ]


def solve_wide(seed, workdir):
    ops = []
    for k, (L, p0, q0) in enumerate(wide_data(seed)):
        named = mflow.quadratic_instance(p0, q0, L, tag=f"wide{k}")
        scale = float(np.linalg.norm(named.z))
        ops.append(
            SolveOp("wide", named.instance, named.z, WIDE_TOL, scale, WIDE_CALIBRATION_CAP)
        )
    return ops


def check_cap(seed, workdir):
    return [
        CheckOp(
            tag,
            ["check", "--instance", tag, "--samples", str(CHECK_SAMPLES), "--seed", str(seed)],
            workdir / tag,
        )
        for tag in CHECK_TAGS
    ]


def solve_cli(seed, workdir):
    ops = []
    for doc in cli_documents(seed, mflow.get_instance(CLI_BASE)):
        path = workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        argv = ["solve", "--instance", str(path), "--tol-residual", repr(CLI_TOL_RESIDUAL)]
        ops.append(CliSolveOp("cli", argv, workdir / doc["name"]))
    return ops


WORKLOADS = {
    "solve-builtins": solve_builtins,
    "solve-wide": solve_wide,
    "check-cap": check_cap,
    "solve-cli": solve_cli,
}


def setup(name, seed, workdir):
    """Build the workload's operations: the set-up that ``setup_s`` times."""
    return WORKLOADS[name](seed, Path(workdir))


def calibrate(ops):
    for op in ops:
        if isinstance(op, SolveOp):
            op.calibrate()


def run_rep(ops, references, label):
    """Run every operation once.

    Returns the time of each operation, the iterations per tag and the
    failures.  An operation that raises, or whose check raises or finds a
    problem, is recorded as failed and the repetition goes on.
    ``references`` maps an operation's index to its first output signature.
    """
    times = []
    iterations = {}
    failures = []
    for i, op in enumerate(ops):
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation, counted below
            times.append(perf_counter() - start)
            failures.append(f"{label} op {i} ({op.tag}): {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - start)
        try:
            outcome = op.check(result)
        except Exception as exc:  # e.g. an expected output file is missing
            outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"], 0, "")
        del result
        problems = list(outcome.problems)
        if references.setdefault(i, outcome.signature) != outcome.signature:
            problems.append("output differs from the first repetition")
        if problems:
            failures.append(f"{label} op {i} ({op.tag}): {'; '.join(problems)}")
        iterations[op.tag] = iterations.get(op.tag, 0) + outcome.iterations
    return times, iterations, failures
