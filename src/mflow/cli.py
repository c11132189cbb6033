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
from .config import ConfigError, load_json, resolve_instance
from .geometry import EmptyIntersectionError, haugazeau_projection, haugazeau_rows
from .problems import builtin_tags
from .space import as_vector
from .splitting import fixed_point_operator

log = logging.getLogger("mflow")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INCOMPLETE = 2
EXIT_BREAKDOWN = 3


def _setup_logging():
    level = os.environ.get("MFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _out_dir(args):
    out = Path(args.out or "mflow-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_lambdas(raw):
    if raw is None:
        raise ConfigError("missing --lambda list")
    if isinstance(raw, str):
        tokens = [tok for tok in raw.split(",") if tok.strip()]
    elif isinstance(raw, (list, tuple)):
        tokens = raw
    else:
        tokens = [raw]
    try:
        values = [_real(tok) for tok in tokens]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad --lambda list {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError("empty --lambda list")
    return values


def _integral(value):
    # a JSON number with no fractional part (1000 or 1e3); int() would truncate 16.7
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value):
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _text(value):
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


# Run-config keys: (JSON key, argument attribute, conversion of the JSON value).
# A command applies the keys it has flags for and ignores the others.
_RUN_SETTINGS = (
    ("instance", "instance", None),
    ("lambda", "lam", _parse_lambdas),
    ("max_iter", "max_iter", _integral),
    ("tol_residual", "tol_residual", _real),
    ("tol_step", "tol_step", _real),
    ("seed", "seed", _integral),
    ("out", "out", _text),
    ("samples", "samples", _integral),
)


def _merge_config(args):
    """Overlay the --config values the command has flags for under explicit flags."""
    if not args.config:
        return
    doc = load_json(args.config)
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: run configuration must be an object")
    unknown = sorted(doc.keys() - {key for key, _, _ in _RUN_SETTINGS})
    if unknown:
        raise ConfigError(f"{args.config}: no command takes {', '.join(map(repr, unknown))}")
    for key, attr, convert in _RUN_SETTINGS:
        if key in doc and hasattr(args, attr) and getattr(args, attr) is None:
            value = doc[key]
            if convert is not None:
                try:
                    value = convert(value)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"{args.config}: bad {key!r}: {exc}") from exc
            setattr(args, attr, value)


def _resolve(args):
    if args.instance is None:
        raise ConfigError("no instance selected (use --instance or --config)")
    return resolve_instance(args.instance, path=args.config or "<cli>")


def cmd_solve(args):
    _merge_config(args)
    named = _resolve(args)
    if named.instance is None:
        raise ConfigError(f"instance {named.tag!r} is a raw field; use 'integrate'")
    # only the settings given are passed on; dynamics.solve holds the defaults
    stops = {
        key: getattr(args, key)
        for key in ("max_iter", "tol_residual", "tol_step")
        if getattr(args, key) is not None
    }
    traj = dynamics.solve(named.instance, z=named.z, label=named.tag, **stops)
    out = _out_dir(args)
    csv_path = out / f"{named.tag}_trajectory.csv"
    traj.write_csv(csv_path)
    summary = traj.summary()
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
    _merge_config(args)
    named = _resolve(args)
    # a run document's list is parsed in _merge_config, the flag's here
    lams = args.lam if isinstance(args.lam, list) else _parse_lambdas(args.lam)
    # integrate_field's own test and a file name of its own, for each step size before any run
    csv_names = {}
    for lam in lams:
        dynamics._check_horizon(lam, args.t_final)
        name = f"{named.tag}_lam{lam:g}.csv"
        if name in csv_names:
            raise ConfigError(f"step sizes {csv_names[name]!r} and {lam!r} both write {name}")
        csv_names[name] = lam
    out = _out_dir(args)

    fld = named.extended_field or named.flow_field()
    x0 = _integration_start(args, named)
    references = named.references

    rows = []
    sup_errors = []
    for name, lam in csv_names.items():
        traj = dynamics.integrate_field(
            fld, x0, lam, args.t_final, cap=named.cap, z=named.z, label=named.tag
        )
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


def _integration_start(args, named):
    if named.instance is not None:
        start = named.instance.x0.flat
    else:
        start = named.start if named.start is not None else getattr(named.cap, "z", None)
    if not args.x0:
        if start is None:
            raise ConfigError(f"instance {named.tag!r} needs an explicit --x0")
        return start
    try:
        x0 = as_vector(json.loads(args.x0))
    except ValueError as exc:
        raise ConfigError(f"bad --x0: {exc}") from exc
    if start is not None and x0.shape != start.shape:
        raise ConfigError(
            f"--x0 has dimension {x0.shape[0]}, instance {named.tag!r} "
            f"has dimension {start.shape[0]}"
        )
    return x0


def cmd_check(args):
    _merge_config(args)
    named = _resolve(args)
    if named.cap is None or named.z is None:
        raise ConfigError(
            f"instance {named.tag!r} has no solution/cap attached; checks need both"
        )
    n_samples = 512 if args.samples is None else args.samples
    seed = 0 if args.seed is None else args.seed
    samples = diagnostics.sample_cap(named.cap, n_samples=n_samples, seed=seed)
    # each map runs once, on z stacked on the samples; the checks score those values
    points = np.vstack([named.cap.z, samples])
    # a non-finite value fails the checks' own test, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if named.instance is None:
            fx = named.field(points)
        else:
            tx = fixed_point_operator("kuhn_tucker", instance=named.instance)(points)
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

    out = _out_dir(args)
    report_path = out / f"{named.tag}_checks.json"
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
        raise ConfigError(f"points must be JSON arrays: {exc}")
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
            help=f"built-in tag ({', '.join(builtin_tags())}) or instance JSON path",
        )
        p.add_argument("--config", help="run configuration JSON path")
        p.add_argument("--out", default=None, help="output directory (default mflow-out)")

    p_solve = sub.add_parser("solve", help="run the discrete scheme")
    add_common(p_solve)
    p_solve.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_solve.add_argument("--tol-residual", dest="tol_residual", type=float, default=None)
    p_solve.add_argument("--tol-step", dest="tol_step", type=float, default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_int = sub.add_parser("integrate", help="Euler trajectories for a list of step sizes")
    add_common(p_int)
    p_int.add_argument(
        "--lambda", dest="lam", default=None, help="comma-separated step sizes in (0, 1]"
    )
    p_int.add_argument("--t-final", dest="t_final", type=float, default=1.0)
    p_int.add_argument("--x0", default=None, help="starting point as a JSON array")
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
    # the one error boundary: a ConfigError, or a value the library rejects
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
