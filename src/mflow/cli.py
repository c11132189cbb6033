"""Command-line driver: solve, integrate, check, project.

Exit codes: 0 success (converged / all checks passed), 1 malformed
configuration or arguments (any ``ValueError`` a command raises), 2 budget
exhausted or checks failed, 3 numerical breakdown (empty two-cut
intersection, non-finite iterates).
Verbosity comes from the ``MFLOW_LOG`` environment variable
(DEBUG/INFO/WARNING/ERROR).
"""

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, dynamics
from .config import resolve_instance
from .geometry import EmptyIntersectionError, haugazeau_projection, haugazeau_rows
from .problems import builtin_tags
from .space import as_vector
from .splitting import kt_operator

log = logging.getLogger("mflow")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCOMPLETE = 2
EXIT_BREAKDOWN = 3


def _setup_logging():
    level = os.environ.get("MFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _out_path(args):
    # called before the work, so that an --out that cannot be made fails at once, not after
    # the run: the nearest existing one of it and its ancestors must be a directory
    out = Path(args.out or "mflow-out")
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                reason = "File exists" if path == out else "Not a directory"
                raise ValueError(f"output directory {str(out)!r}: {reason}")
            break
    return out


def _out_dir(out):
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output directory {str(out)!r}: {exc.strerror or exc}") from exc
    return out


def _parse_lambdas(raw):
    try:
        values = [float(t) for t in raw.split(",") if t.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --lambda list {raw!r}: {exc}") from exc
    if not values:
        raise ValueError("empty --lambda list")
    return values


def cmd_solve(args):
    named = resolve_instance(args.instance)
    if named.instance is None:
        raise ValueError(f"instance {named.tag!r} is a raw field; use 'integrate'")
    # only the settings given are passed on; dynamics.solve holds the defaults
    stops = {
        key: getattr(args, key)
        for key in ("max_iter", "tol_residual")
        if getattr(args, key) is not None
    }
    out = _out_path(args)
    traj = dynamics.solve(named.instance, z=named.z, **stops)
    _out_dir(out)
    csv_path = out / f"{named.tag}_trajectory.csv"
    traj.write_csv(csv_path)
    summary = {
        "label": named.tag,
        "mode": "discrete",
        "lambda": None,
        "termination": traj.termination,
        "iterations": traj.iterations,
        "final_point": traj.final.tolist(),
        "final_residual": float(traj.residual[-1]),
        "final_norm_to_w": float(traj.norm_to_w[-1]),
    }
    if named.z is not None:
        summary["final_error"] = float(np.linalg.norm(traj.final - named.z))
    summary_path = out / f"{named.tag}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2))
    print(
        f"{named.tag}: {traj.termination} after {traj.iterations} iterations, "
        f"residual {traj.residual[-1]:.3e}"
    )
    log.info("wrote %s and %s", csv_path, summary_path)
    return EXIT_OK if traj.termination in ("residual", "step") else EXIT_INCOMPLETE


def cmd_integrate(args):
    named = resolve_instance(args.instance)
    lams = _parse_lambdas(args.lam)
    # integrate_field's own test and a file name of its own, for each step size before any run
    csv_names = {}
    for lam in lams:
        dynamics._check_horizon(lam, args.t_final)
        name = f"{named.tag}_lam{lam:g}.csv"
        if name in csv_names:
            raise ValueError(f"step sizes {csv_names[name]!r} and {lam!r} both write {name}")
        csv_names[name] = lam
    out = _out_dir(_out_path(args))

    if named.instance is None:
        fld, x0 = named.extended_field, named.start
    else:
        fld, x0 = dynamics.build_field(named.instance, cap=named.cap), named.instance.x0.flat
    references = named.references

    rows = []
    sup_errors = []
    for name, lam in csv_names.items():
        traj = dynamics.integrate_field(fld, x0, lam, args.t_final, cap=named.cap)
        csv_path = out / name
        traj.write_csv(csv_path)
        row = {"lambda": lam, "steps": traj.iterations, "csv": str(csv_path)}
        if references:
            # against the closest closed form (extensions may branch)
            tgrid = np.linspace(0.0, args.t_final, 1001)
            nodes = traj.points
            best_label, best_err = None, np.inf
            for label, reference in references:
                sup_err = max(
                    float(
                        np.linalg.norm(
                            dynamics.euler_eval(nodes, lam, t) - reference(t)
                        )
                    )
                    for t in tgrid
                )
                if sup_err < best_err:
                    best_label, best_err = label, sup_err
            row["sup_error"] = best_err
            row["reference"] = best_label
            sup_errors.append(best_err)
        rows.append(row)

    for i in range(1, len(sup_errors)):
        rows[i]["error_ratio"] = sup_errors[i] / sup_errors[i - 1]

    table_path = out / f"{named.tag}_order_table.json"
    table_path.write_text(json.dumps(rows, indent=2))
    header = f"{'lambda':>10} {'steps':>8} {'sup_error':>14} {'ratio':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['lambda']:>10g} {row['steps']:>8d} "
            f"{row.get('sup_error', float('nan')):>14.6e} "
            f"{row.get('error_ratio', float('nan')):>8.3f}"
        )
    log.info("wrote %s", table_path)
    return EXIT_OK


def cmd_check(args):
    named = resolve_instance(args.instance)
    if named.cap is None or named.z is None:
        raise ValueError(
            f"instance {named.tag!r} has no solution/cap attached; checks need both"
        )
    # only the settings given are passed on; diagnostics.sample_cap holds the defaults
    given = {"n_samples": args.samples, "seed": args.seed}
    sampling = {key: value for key, value in given.items() if value is not None}
    out = _out_path(args)
    samples = diagnostics.sample_cap(named.cap, **sampling)
    # each map runs once, on z stacked on the samples; the checks score those values
    points = np.vstack([named.cap.z, samples])
    # a non-finite value fails the checks' own test, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if named.instance is None:
            fx = named.field(points)
        else:
            tx = kt_operator(named.instance, points)
            # the flow field Q(w, x, Tx) - x, as build_field's target evaluates it
            q = haugazeau_rows(named.cap.w, points, tx)
            fx = q - points
    reports = [
        diagnostics.check_unique_zero(fx, named.cap, samples),
        diagnostics.check_cap_invariance(fx, named.cap, samples),
        diagnostics.check_outward_drift(fx, named.cap, samples),
    ]
    if named.instance is not None:
        reports.extend(diagnostics.check_projection_conditions(tx, q, named.cap, samples))

    report_path = _out_dir(out) / f"{named.tag}_checks.json"
    report_path.write_text(
        json.dumps([rep.to_dict() for rep in reports], indent=2)
    )
    width = max(len(rep.name) for rep in reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.name:<{width}}  {status}  worst_violation={rep.worst_violation:.3e}"
            f"  samples={rep.sample_count}"
        )
    log.info("wrote %s", report_path)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_INCOMPLETE


def cmd_project(args):
    try:
        w = as_vector(json.loads(args.w))
        b = as_vector(json.loads(args.b))
        c = as_vector(json.loads(args.c))
    except ValueError as exc:
        raise ValueError(f"points must be JSON arrays: {exc}")
    # an overflowing Gram entry is recomputed from rescaled differences; an
    # overflowing difference gives a non-finite point, reported as a breakdown
    with np.errstate(over="ignore", invalid="ignore"):
        point, case = haugazeau_projection(w, b, c, return_case=True)
    if not np.all(np.isfinite(point)):
        raise dynamics.NonFiniteError(f"the projection is not finite (case {case})")
    print(json.dumps({"projection": point.tolist(), "case": case}))
    return EXIT_OK


@functools.cache
def build_parser():
    """The ``mflow`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mflow",
        description="Best-approximation projection dynamics for coupled "
        "monotone inclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--instance",
            required=True,
            help=f"built-in tag ({', '.join(builtin_tags())}) or instance JSON path",
        )
        p.add_argument("--out", default=None, help="output directory (default mflow-out)")

    p_solve = sub.add_parser("solve", help="run the discrete scheme")
    add_common(p_solve)
    p_solve.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_solve.add_argument("--tol-residual", dest="tol_residual", type=float, default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_int = sub.add_parser("integrate", help="Euler trajectories for a list of step sizes")
    add_common(p_int)
    p_int.add_argument(
        "--lambda", dest="lam", required=True, help="comma-separated step sizes in (0, 1]"
    )
    p_int.add_argument("--t-final", dest="t_final", type=float, default=1.0)
    p_int.set_defaults(fn=cmd_integrate)

    p_check = sub.add_parser("check", help="run the sampled assumption checks")
    add_common(p_check)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_check.set_defaults(fn=cmd_check)

    p_proj = sub.add_parser("project", help="two-cut projection of an anchor point")
    p_proj.add_argument("w", help="anchor point as a JSON array")
    p_proj.add_argument("b", help="first cut point as a JSON array")
    p_proj.add_argument("c", help="second cut point as a JSON array")
    p_proj.set_defaults(fn=cmd_project)

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line; 2 here means an incomplete run
        if exc.code != 2:
            raise
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except EmptyIntersectionError as exc:
        print(f"empty intersection: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except dynamics.NonFiniteError as exc:
        print(f"breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    # the one error boundary: a value the CLI or the library rejects
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
