"""Sampled verification of the flow's standing assumptions and convergence reporting.

The admissible cap is a continuum, so a desk-scale artifact can only sample
it; every check below states its sample count and reports the worst signed
violation together with a witness.  Reports are deterministic for a fixed
seed.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

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
# Rounding allowance of convergence_report's tail-containment test.
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


def _report(name, tol, sample_count, entries, notes=""):
    """Assemble a report from (violation, point, extra) entries."""
    worst = -np.inf
    witness = None
    violations = []
    for violation, point, extra in entries:
        if violation > worst:
            worst = violation
            witness = point
        if violation > tol:
            rec = {"point": np.asarray(point), "violation": float(violation)}
            rec.update(extra)
            violations.append(rec)
    return AssumptionReport(
        name=name,
        passed=not violations,
        sample_count=sample_count,
        worst_violation=float(worst),
        witness=None if witness is None else np.asarray(witness),
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
    entries = []
    fz = float(np.linalg.norm(as_vector(F(z))))
    entries.append((fz - tol, z, {"kind": "field_at_reference"}))
    for x in samples:
        if float(np.linalg.norm(x - z)) < 10.0 * tol:
            continue
        fx = float(np.linalg.norm(as_vector(F(x))))
        entries.append((tol - fx, x, {"kind": "spurious_zero", "field_norm": fx}))
    # entries already carry the tolerance in their sign, so threshold at zero
    return _report(
        "unique_zero",
        0.0,
        len(samples),
        entries,
        notes="stationary exactly at the reference point",
    )


def check_cap_invariance(F, cap, samples, tol=GEOM_TOL):
    """Check that the segments ``x + h F(x)`` stay inside the cap.

    For each sample and each ``h`` in :data:`INVARIANCE_STEPS` the endpoint
    is tested against the cap's ball (violation ``<z - y, w - y>``) and
    floor (violation ``r - ||y - w||^2``); the larger of the two is reported.
    """
    entries = []
    for x in samples:
        fx = as_vector(F(x))
        for h in INVARIANCE_STEPS:
            y = x + h * fx
            ball_viol = float((cap.z - y) @ (cap.w - y))
            floor_viol = cap.r - float(np.sum((y - cap.w) ** 2))
            viol = max(ball_viol, floor_viol)
            entries.append(
                (
                    viol,
                    x,
                    {
                        "h": float(h),
                        "endpoint": y,
                        "ball_violation": ball_viol,
                        "floor_violation": floor_viol,
                    },
                )
            )
    return _report(
        "cap_invariance",
        tol,
        len(samples),
        entries,
        notes=f"segment endpoints tested at h in {INVARIANCE_STEPS}",
    )


def check_outward_drift(F, cap, samples, tol=GEOM_TOL):
    """Check ``<F(x), w - x> <= 0`` on the cap.

    This is the sign condition making the distance to the anchor ``w``
    nondecreasing along the flow.
    """
    entries = []
    for x in samples:
        fx = as_vector(F(x))
        entries.append((float(fx @ (cap.w - x)), x, {}))
    return _report("outward_drift", tol, len(samples), entries)


def check_strict_drift(F, points, w, z):
    """Strict variant along a trajectory: ``<F(x), w - x> < 0`` away from ``z``.

    ``points`` are trajectory records; those within
    :data:`STRICT_DRIFT_EXCLUSION` of ``z`` are skipped (the inequality
    necessarily degenerates there).
    """
    w = as_vector(w)
    z = as_vector(z)
    entries = []
    kept = 0
    for x in np.asarray(points, dtype=float):
        if float(np.linalg.norm(x - z)) <= STRICT_DRIFT_EXCLUSION:
            continue
        kept += 1
        fx = as_vector(F(x))
        entries.append((float(fx @ (w - x)), x, {}))
    report = _report("strict_drift", 0.0, kept, entries)
    # strictness: a zero value on a non-excluded point is already a failure
    report.passed = report.passed and report.worst_violation < 0.0
    return report


def cut_pair_builder(T, w):
    """Builder for the moving set ``H(w, x) & H(x, Tx)`` as explicit halfspaces."""
    w = as_vector(w)

    def build(x):
        return [halfspace_of(w, x), halfspace_of(x, T(x))]

    return build


def check_projection_conditions(builder, cap, samples, tol=GEOM_TOL):
    """Verify the moving-projection conditions for ``C(x)`` given as cuts.

    ``builder(x)`` must return the at-most-two halfspaces of ``C(x)``.
    Four reports come back:

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
    stat_entries = []
    range_entries = []
    align_entries = []
    scale = 1.0 + float(np.linalg.norm(w - z))

    proj_ref = project_onto_halfspaces(builder(z), w)
    stat_entries.append(
        (
            float(np.linalg.norm(proj_ref - z)) - tol * scale,
            z,
            {"kind": "reference_not_fixed"},
        )
    )
    for x in samples:
        cuts = builder(x)
        for hs in cuts:
            stat_entries.append(
                (hs.violation(z), x, {"kind": "reference_outside_cut"})
            )
        proj = project_onto_halfspaces(cuts, w)
        moved = float(np.linalg.norm(proj - x))
        if float(np.linalg.norm(x - z)) > 10.0 * tol * scale:
            stat_entries.append(
                (tol - moved, x, {"kind": "spurious_fixed_point", "moved": moved})
            )
        range_entries.append((float((z - proj) @ (w - proj)), x, {"projection": proj}))
        align_entries.append((float((proj - x) @ (w - x)), x, {}))

    reports = [
        _report("projection_stationarity", tol, len(samples), stat_entries),
        _report("projection_range", tol, len(samples), range_entries),
        _report("projection_alignment", tol, len(samples), align_entries),
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


def convergence_report(traj, z, w=None, eps=1e-4):
    """Summarize a run against a known solution ``z``.

    Reports the final error, the first iterate crossing each error decade,
    and whether the tail-containment property holds: once
    ``||x_n - w||^2 >= ||w - z||^2 - eps``, every later iterate satisfies
    ``||x_m - z||^2 <= eps + TAIL_SLACK``.
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

    dist_w_sq = traj.norm_to_w**2
    if w is not None:
        gap = float(np.sum((as_vector(w) - z) ** 2))
    else:
        # reconstruct ||w - z||^2 from the recorded slack identity
        gap_sq = traj.fejer_slack + dist_w_sq + errs**2
        gap = float(np.nanmedian(gap_sq))
    tail_ok = True
    crossing = None
    if np.isfinite(gap):
        reached = dist_w_sq >= gap - eps
        if np.any(reached):
            crossing = int(np.argmax(reached))
            tail_ok = bool(np.all(errs[crossing:] ** 2 <= eps + TAIL_SLACK))
    return {
        "final_error": final_err,
        "iterations": traj.iterations,
        "termination": traj.termination,
        "decade_crossings": decades,
        "tail_epsilon": eps,
        "tail_crossing_index": crossing,
        "tail_contained": tail_ok,
    }
