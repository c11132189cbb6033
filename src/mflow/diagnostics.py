"""Sampled verification of the flow's standing assumptions and convergence reporting.

The admissible cap is a continuum, so a desk-scale artifact can only sample
it; every check below states its sample count and reports the worst signed
violation together with a witness.  Reports are deterministic for a fixed
seed.

Each check takes its map's values at the reference point ``z`` stacked on
the samples, ``[z; samples]``, one point per row, so that one run evaluates
each map once (see :func:`build_field`); the values are checked for shape
and finiteness.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import NonFiniteError, _integer
from .geometry import GEOM_TOL, cap_membership
from .space import as_vector

__all__ = [
    "AssumptionReport",
    "sample_cap",
    "check_unique_zero",
    "check_cap_invariance",
    "check_outward_drift",
    "check_projection_conditions",
    "convergence_report",
]

# Rejection sampling gives up after this many R_d batches.
SAMPLE_MAX_BATCHES = 64
# Step fractions h at which check_cap_invariance tests the segment x + h F(x).
INVARIANCE_STEPS = (0.25, 0.5, 0.75, 1.0)
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

    A uniformly shifted R_d sequence (:func:`_rd_batches`; shift drawn from ``seed``,
    Cranley & Patterson 1976) fills the bounding box of the cap's ball.  Each batch is
    tested as a stack by :func:`cap_membership`, and each row in the cap is kept if the
    one-point test confirms it, until ``n_samples`` survive.
    """
    if not (_integer(n_samples) and n_samples > 0):
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    shift = np.random.default_rng(seed).random(cap.dim)
    center, radius = cap.center, cap.radius
    kept = []
    for batch in _rd_batches(shift, max(n_samples, 64)):
        candidates = center + radius * (2.0 * batch - 1.0)
        ball, floor = cap_membership(cap, candidates)
        for x in candidates[ball & floor]:
            if all(cap_membership(cap, x)):
                kept.append(x)
                if len(kept) == n_samples:
                    return np.array(kept)
    raise RuntimeError(
        f"cap sampling stalled: {len(kept)}/{n_samples} accepted; "
        "is the floor radius nearly the whole ball?"
    )


def _rd_batches(shift, size):
    """The shifted R_d sequence ``frac(shift + n alpha)`` (Roberts 2018), in batches.

    Batch ``b < SAMPLE_MAX_BATCHES`` holds ``n = b size + 1, ..., (b+1) size``, and
    ``alpha_j = phi^-j`` for the root ``phi > 1`` of ``phi^(d+1) = phi + 1``, ``d = len(shift)``.
    """
    phi = 2.0
    for _ in range(64):  # a contraction by less than 1/3 per step, onto the root
        phi = (1.0 + phi) ** (1.0 / (len(shift) + 1))
    alpha = phi ** -np.arange(1.0, len(shift) + 1)
    for b in range(SAMPLE_MAX_BATCHES):
        yield (shift + np.arange(b * size + 1, (b + 1) * size + 1)[:, None] * alpha) % 1.0


def _checked_values(values, samples):
    """A map's values at ``[z; samples]`` as floats, checked for shape and finiteness."""
    # over no samples a check would pass on nothing, with worst_violation -inf
    if len(samples) == 0:
        raise ValueError("a check needs at least one sample")
    values = np.asarray(values, dtype=float)
    shape = (len(samples) + 1, samples.shape[1])
    if values.shape != shape:
        raise ValueError(f"values at [z; samples] must have shape {shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("field values must be finite")
    return values


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


def check_unique_zero(values, cap, samples):
    """Check that the cap's reference point ``z`` is the field's only stationary point on it.

    ``values`` are the field's values at ``[z; samples]``.  With ``tol`` the
    fixed :data:`GEOM_TOL`, passes when ``||F(z)|| <= tol`` and every sample
    at distance more than ``10 tol`` from ``z`` has ``||F|| > tol``.  The
    violation at a sample is ``tol - ||F(x)||`` (positive means a spurious zero).
    """
    z = cap.z
    samples = np.asarray(samples, dtype=float)
    values = _checked_values(values, samples)
    keep = np.concatenate([[True], _norms(samples - z) >= 10.0 * GEOM_TOL])
    points = np.vstack([z, samples])[keep]
    field_norms = _norms(values[keep])
    violation = np.concatenate([field_norms[:1] - GEOM_TOL, GEOM_TOL - field_norms[1:]])

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


def check_cap_invariance(values, cap, samples):
    """Check that the segments ``x + h F(x)`` stay inside the cap.

    ``values`` are the field's values at ``[z; samples]``.  For each sample
    and each ``h`` in :data:`INVARIANCE_STEPS` the endpoint is tested against
    the cap's ball (violation ``<z - y, w - y>``) and floor (violation
    ``r - ||y - w||^2``); the larger of the two is reported.
    """
    samples = np.asarray(samples, dtype=float)
    steps = np.array(INVARIANCE_STEPS)
    values = _checked_values(values, samples)[1:]
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
        GEOM_TOL,
        len(samples),
        violation,
        np.repeat(samples, len(steps), axis=0),
        extra,
        notes=f"segment endpoints tested at h in {INVARIANCE_STEPS}",
    )


def check_outward_drift(values, cap, samples):
    """Check ``<F(x), w - x> <= 0`` on the cap.

    ``values`` are the field's values at ``[z; samples]``.  This is the sign
    condition making the distance to the anchor ``w`` nondecreasing along
    the flow.
    """
    samples = np.asarray(samples, dtype=float)
    violation = np.vecdot(_checked_values(values, samples)[1:], cap.w - samples)
    return _report("outward_drift", GEOM_TOL, len(samples), violation, samples, None)


def check_projection_conditions(tx, q, cap, samples):
    """Verify the moving-projection conditions for ``C(x) = H(w, x) & H(x, Tx)``.

    ``tx`` are the values of ``T`` at ``[z; samples]``, with ``z`` the cap's
    reference point, and ``q`` the projections of ``w`` onto ``C(x)`` there:
    the flow's own ``Q(w, x, Tx)``, so that ``q - x`` is the flow field's value
    bit for bit (its sign condition is :func:`check_outward_drift`'s).  Two
    reports come back, at the fixed tolerance ``tol =`` :data:`GEOM_TOL`:

    * ``projection_stationarity``: the reference point belongs to every
      ``C(x)``, the projection of ``w`` fixes no sampled ``x`` away from the
      reference, and it does fix the reference itself;
    * ``projection_range``: the projection of ``w`` stays inside the
      enclosing ball.
    """
    w, z = cap.w, cap.z
    tol = GEOM_TOL
    samples = np.asarray(samples, dtype=float)
    k = len(samples)
    scale = 1.0 + float(np.linalg.norm(w - z))

    tx = _checked_values(tx, samples)
    proj = _checked_values(q, samples)
    ref_violation = float(np.linalg.norm(proj[0] - z)) - tol * scale
    proj, tx = proj[1:], tx[1:]
    moved = _norms(proj - samples)

    # per sample: z's violation of each cut, then one entry if the sample is far from z
    stat = np.column_stack(
        [np.vecdot(z - samples, w - samples), np.vecdot(z - tx, samples - tx), tol - moved]
    )
    listed = np.ones(stat.shape, dtype=bool)
    listed[:, -1] = _norms(samples - z) > 10.0 * tol * scale
    row, column = np.nonzero(listed)

    def stat_extra(i):
        if i == 0:
            return {"kind": "reference_not_fixed"}
        if column[i - 1] < 2:
            return {"kind": "reference_outside_cut"}
        return {"kind": "spurious_fixed_point", "moved": float(moved[row[i - 1]])}

    return [
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
    ]


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
