"""Sampled verification of the flow's standing assumptions and convergence reporting.

The admissible cap is a continuum, so a desk-scale artifact can only sample
it; every check below states its sample count and reports the worst signed
violation together with a witness.  Reports are deterministic for a fixed
seed.

The checks evaluate a field, map or builder once on the whole ``(k, dim)``
stack of samples, one point per row, so what they are given must map rows
(see :func:`build_field`); the output is checked once per call for shape and
finiteness.
"""

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import NonFiniteError
from .geometry import (
    GEOM_TOL,
    INSIDE_DHAT,
    cap_membership,
    halfspace_of,
    project_onto_halfspaces,
)
from .space import as_vector

__all__ = [
    "AssumptionReport",
    "sample_cap",
    "check_unique_zero",
    "check_cap_invariance",
    "check_outward_drift",
    "check_strict_drift",
    "cut_pair_builder",
    "check_projection_conditions",
    "convergence_report",
]

# Rejection sampling gives up after this many Sobol batches.
SAMPLE_MAX_BATCHES = 64
# Step fractions h at which check_cap_invariance tests the segment x + h F(x).
INVARIANCE_STEPS = (0.25, 0.5, 0.75, 1.0)
# check_strict_drift skips trajectory points this close to the solution.
STRICT_DRIFT_EXCLUSION = 1e-8
# Tolerance and rounding allowance of convergence_report's tail-containment test.
TAIL_EPSILON = 1e-4
TAIL_SLACK = 1e-9


@dataclass(eq=False)
class AssumptionReport:
    """Outcome of one sampled check.

    ``worst_violation`` is the maximum signed violation over the samples
    (values at or below the tolerance mean a pass); ``witness`` is the
    sample attaining it.  ``violations`` lists every violating sample for
    post-mortems, as dicts with at least ``point`` and ``violation``.
    """

    name: str
    passed: bool
    sample_count: int
    worst_violation: float
    witness: np.ndarray = None
    violations: list = field(default_factory=list)
    notes: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "sample_count": int(self.sample_count),
            "worst_violation": float(self.worst_violation),
            "witness": None if self.witness is None else list(map(float, self.witness)),
            "violations": [
                {
                    key: (list(map(float, val)) if isinstance(val, np.ndarray) else val)
                    for key, val in rec.items()
                }
                for rec in self.violations
            ],
            "notes": self.notes,
        }


def sample_cap(cap, n_samples=512, seed=0):
    """Low-discrepancy points inside the cap.

    A scrambled Sobol stream fills the bounding box of the cap's ball;
    points failing the cap membership test are rejected until ``n_samples``
    survive.  Deterministic for fixed ``seed``.
    """
    integral = isinstance(n_samples, numbers.Integral) and not isinstance(n_samples, bool)
    if not (integral and n_samples > 0):
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    # scipy.stats takes about a second to import and only this function needs it
    from scipy.stats import qmc

    dim = cap.dim
    center = cap.center
    radius = cap.radius
    sobol = qmc.Sobol(d=dim, scramble=True, seed=seed)
    batch_size = max(n_samples, 64)
    kept = []
    for _ in range(SAMPLE_MAX_BATCHES):
        with warnings.catch_warnings():
            # batch sizes here are not powers of two; the balance warning
            # does not matter for rejection sampling
            warnings.simplefilter("ignore", UserWarning)
            batch = sobol.random(batch_size)
        pts = center + radius * (2.0 * batch - 1.0)
        for x in pts:
            if cap_membership(cap, x) == INSIDE_DHAT:
                kept.append(x)
                if len(kept) == n_samples:
                    return np.array(kept)
    raise RuntimeError(
        f"cap sampling stalled: {len(kept)}/{n_samples} accepted; "
        "is the floor radius nearly the whole ball?"
    )


def _field_values(F, x):
    """``F`` on a ``(k, dim)`` stack of points, checked once for shape and finiteness."""
    # an empty stack needs no call, and a field need not accept one
    if x.shape[0] == 0:
        return np.empty_like(x)
    # a non-finite value raises NonFiniteError below, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(F(x), dtype=float)
    if fx.shape != x.shape:
        raise ValueError(f"the field maps shape {x.shape} to shape {fx.shape}")
    if not np.all(np.isfinite(fx)):
        raise NonFiniteError("field values must be finite")
    return fx


def _norms(x):
    """Euclidean norm of every row; each equals ``np.linalg.norm`` of that row."""
    return np.sqrt(np.vecdot(x, x))


def _report(name, tol, sample_count, violation, points, extra, notes=""):
    """Assemble a report from one signed violation per entry and the entry's point.

    ``extra(i)`` gives the further fields of entry ``i``'s violation record;
    ``extra`` is None when there are none.
    The witness is the first entry attaining the maximum; violating entries
    are listed in entry order.
    """
    worst, witness = -np.inf, None
    if len(violation):
        i = int(np.argmax(violation))
        if violation[i] > worst:
            worst, witness = float(violation[i]), np.asarray(points[i])
    violations = []
    for i in np.flatnonzero(violation > tol):
        rec = {"point": np.asarray(points[i]), "violation": float(violation[i])}
        if extra is not None:
            rec.update(extra(i))
        violations.append(rec)
    return AssumptionReport(
        name=name,
        passed=not violations,
        sample_count=sample_count,
        worst_violation=worst,
        witness=witness,
        violations=violations,
        notes=notes,
    )


def check_unique_zero(F, cap, z, samples, tol=GEOM_TOL):
    """Check that ``z`` is the field's only stationary point on the cap.

    Passes when ``||F(z)|| <= tol`` and every sample at distance more than
    ``10 tol`` from ``z`` has ``||F|| > tol``.  The violation at a sample is
    ``tol - ||F(x)||`` (positive means a spurious zero).
    """
    z = as_vector(z)
    samples = np.asarray(samples, dtype=float)
    kept = samples[_norms(samples - z) >= 10.0 * tol]
    points = np.vstack([z, kept])
    field_norms = _norms(_field_values(F, points))
    violation = np.concatenate([field_norms[:1] - tol, tol - field_norms[1:]])

    def extra(i):
        if i == 0:
            return {"kind": "field_at_reference"}
        return {"kind": "spurious_zero", "field_norm": float(field_norms[i])}

    # entries already carry the tolerance in their sign, so threshold at zero
    return _report(
        "unique_zero",
        0.0,
        len(samples),
        violation,
        points,
        extra,
        notes="stationary exactly at the reference point",
    )


def check_cap_invariance(F, cap, samples, tol=GEOM_TOL):
    """Check that the segments ``x + h F(x)`` stay inside the cap.

    For each sample and each ``h`` in :data:`INVARIANCE_STEPS` the endpoint
    is tested against the cap's ball (violation ``<z - y, w - y>``) and
    floor (violation ``r - ||y - w||^2``); the larger of the two is reported.
    """
    samples = np.asarray(samples, dtype=float)
    steps = np.array(INVARIANCE_STEPS)
    values = _field_values(F, samples)
    # one endpoint per sample and step, sample-major
    ends = samples[:, None] + steps[:, None] * values[:, None]
    ends = ends.reshape(-1, samples.shape[1])
    ball = np.vecdot(cap.z - ends, cap.w - ends)
    floor = cap.r - np.sum((ends - cap.w) ** 2, axis=-1)
    # the ball violation unless the floor's is larger, as max(ball, floor)
    violation = np.where(floor > ball, floor, ball)

    def extra(i):
        return {
            "h": INVARIANCE_STEPS[i % len(steps)],
            "endpoint": ends[i],
            "ball_violation": float(ball[i]),
            "floor_violation": float(floor[i]),
        }

    return _report(
        "cap_invariance",
        tol,
        len(samples),
        violation,
        np.repeat(samples, len(steps), axis=0),
        extra,
        notes=f"segment endpoints tested at h in {INVARIANCE_STEPS}",
    )


def check_outward_drift(F, cap, samples, tol=GEOM_TOL):
    """Check ``<F(x), w - x> <= 0`` on the cap.

    This is the sign condition making the distance to the anchor ``w``
    nondecreasing along the flow.
    """
    samples = np.asarray(samples, dtype=float)
    violation = np.vecdot(_field_values(F, samples), cap.w - samples)
    return _report("outward_drift", tol, len(samples), violation, samples, None)


def check_strict_drift(F, points, w, z):
    """Strict variant along a trajectory: ``<F(x), w - x> < 0`` away from ``z``.

    ``points`` are trajectory records; those within
    :data:`STRICT_DRIFT_EXCLUSION` of ``z`` are skipped (the inequality
    necessarily degenerates there).
    """
    w = as_vector(w)
    z = as_vector(z)
    points = np.asarray(points, dtype=float)
    kept = points[_norms(points - z) > STRICT_DRIFT_EXCLUSION]
    violation = np.vecdot(_field_values(F, kept), w - kept)
    report = _report("strict_drift", 0.0, len(kept), violation, kept, None)
    # strictness: a zero value on a non-excluded point is already a failure
    report.passed = report.passed and report.worst_violation < 0.0
    return report


def cut_pair_builder(T, w):
    """Builder for the moving set ``H(w, x) & H(x, Tx)`` as explicit halfspaces.

    The builder maps one point to two cuts, or a ``(k, dim)`` stack of points
    to two stacks of ``k`` cuts; ``T`` must map such a stack row by row.
    """
    w = as_vector(w)

    def build(x):
        return [halfspace_of(w, x), halfspace_of(x, T(x))]

    return build


def check_projection_conditions(builder, cap, samples, tol=GEOM_TOL):
    """Verify the moving-projection conditions for ``C(x)`` given as cuts.

    ``builder(x)`` must return the at-most-two halfspaces of ``C(x)``; it is
    called once with the reference point and once with the ``(k, dim)``
    stack of samples, for which each cut is a stack of ``k`` rows or one cut
    shared by every sample.  Four reports come back:

    * ``projection_stationarity``: the reference point belongs to every
      ``C(x)``, the projection of ``w`` fixes no sampled ``x`` away from the
      reference, and it does fix the reference itself;
    * ``projection_range``: the projection of ``w`` stays inside the
      enclosing ball;
    * ``projection_alignment``: ``<P(x) - x, w - x> <= 0``;
    * ``projection_convexity``: structural (halfspace intersections are
      closed convex), reported as verified by construction.
    """
    w, z = cap.w, cap.z
    samples = np.asarray(samples, dtype=float)
    k = len(samples)
    scale = 1.0 + float(np.linalg.norm(w - z))

    proj_ref = project_onto_halfspaces(builder(z), w)
    cuts = builder(samples)
    proj = np.broadcast_to(project_onto_halfspaces(cuts, w), samples.shape)
    moved = _norms(proj - samples)

    # per sample: one entry per cut, then one if the sample is far from z
    stat = np.column_stack(
        [np.broadcast_to(hs.violation(z), (k,)) for hs in cuts] + [tol - moved]
    )
    listed = np.ones(stat.shape, dtype=bool)
    listed[:, -1] = _norms(samples - z) > 10.0 * tol * scale
    row = np.broadcast_to(np.arange(k)[:, None], stat.shape)[listed]
    column = np.broadcast_to(np.arange(len(cuts) + 1), stat.shape)[listed]
    ref_violation = float(np.linalg.norm(proj_ref - z)) - tol * scale

    def stat_extra(i):
        if i == 0:
            return {"kind": "reference_not_fixed"}
        if column[i - 1] < len(cuts):
            return {"kind": "reference_outside_cut"}
        return {"kind": "spurious_fixed_point", "moved": float(moved[row[i - 1]])}

    reports = [
        _report(
            "projection_stationarity",
            tol,
            k,
            np.concatenate([[ref_violation], stat[listed]]),
            np.vstack([z, samples[row]]),
            stat_extra,
        ),
        _report(
            "projection_range",
            tol,
            k,
            np.vecdot(z - proj, w - proj),
            samples,
            lambda i: {"projection": proj[i]},
        ),
        _report(
            "projection_alignment",
            tol,
            k,
            np.vecdot(proj - samples, w - samples),
            samples,
            None,
        ),
        AssumptionReport(
            name="projection_convexity",
            passed=True,
            sample_count=0,
            worst_violation=-np.inf,
            notes="intersections of at most two halfspaces are closed and convex "
            "by construction",
        ),
    ]
    return reports


def convergence_report(traj, z, w):
    """Summarize a run from anchor ``w`` against a known solution ``z``.

    Reports the final error, the first iterate crossing each error decade,
    and whether the tail-containment property holds: once
    ``||x_n - w||^2 >= ||w - z||^2 - TAIL_EPSILON``, every later iterate
    satisfies ``||x_m - z||^2 <= TAIL_EPSILON + TAIL_SLACK``.
    """
    z = as_vector(z)
    pts = traj.points
    errs = np.linalg.norm(pts - z, axis=1)
    final_err = float(errs[-1])

    decades = {}
    level = 1.0
    for k, e in enumerate(errs):
        while level > 1e-16 and e <= level:
            decades[f"{level:.0e}"] = int(k)
            level /= 10.0

    gap = float(np.sum((as_vector(w) - z) ** 2))
    reached = traj.norm_to_w**2 >= gap - TAIL_EPSILON
    tail_ok = True
    crossing = None
    if np.any(reached):
        crossing = int(np.argmax(reached))
        tail_ok = bool(np.all(errs[crossing:] ** 2 <= TAIL_EPSILON + TAIL_SLACK))
    return {
        "final_error": final_err,
        "iterations": traj.iterations,
        "termination": traj.termination,
        "decade_crossings": decades,
        "tail_epsilon": TAIL_EPSILON,
        "tail_crossing_index": crossing,
        "tail_contained": tail_ok,
    }
