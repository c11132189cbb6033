"""Euler trajectories, the discrete best-approximation scheme, and the solve loop.

The continuous system is the autonomous flow ``x' = F(x)`` with
``F(x) = Q(w, x, Tx) - x``, where ``Q`` projects the anchor ``w`` onto the
two-cut intersection.  Its explicit Euler discretization with unit step is
exactly the discrete best-approximation iteration

    x_{n+1} = Q(w, x_n, T x_n),

so the integrator and the discrete scheme advance in one stepping loop and
agree bit for bit at step size one.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import Cap, cap_membership, haugazeau_projection, haugazeau_rows
from .space import as_vector
from .splitting import _product_worker, kt_apply_flat, kt_apply_rows

__all__ = [
    "VectorField",
    "Trajectory",
    "NonFiniteError",
    "euler_eval",
    "build_field",
    "solve",
    "integrate_field",
]

# rows per block of the record columns hold at most this many floats, so their
# temporaries stay near 256 KiB however long or wide the run
_RECORD_BLOCK = 2**15


class NonFiniteError(RuntimeError, ValueError):
    """A non-finite iterate or field value; the checks raise it as a ValueError."""


@dataclass(frozen=True, eq=False)
class VectorField:
    """Autonomous field ``x -> F(x)`` on flat vectors.

    ``cap`` is the declared admissible region (optional).  For relaxation
    fields of the form ``F = G - Id``, ``target`` exposes ``G`` so that a
    unit Euler step can land exactly on ``G(x)`` instead of computing
    ``x + (G(x) - x)``.
    """

    fn: callable
    cap: Cap = None
    target: callable = None

    def __call__(self, x):
        return self.fn(x)


@dataclass(eq=False)
class Trajectory:
    """Ordered iterate records with per-step diagnostics.

    ``index`` holds the iteration counter for the discrete scheme and the
    time for Euler runs.  ``fejer_slack`` is NaN when no reference solution
    is attached.
    """

    index: np.ndarray
    points: np.ndarray
    norm_to_w: np.ndarray
    fejer_slack: np.ndarray
    residual: np.ndarray
    step_norm: np.ndarray
    termination: str

    @property
    def final(self):
        return self.points[-1]

    @property
    def iterations(self):
        return self.points.shape[0] - 1

    def write_csv(self, path):
        """Write records as CSV: ``np.savetxt``'s ``%.17g`` bytes, one ``%`` per block of rows."""
        dim = self.points.shape[1]
        header = (
            ["n_or_t"]
            + [f"x_{i}" for i in range(dim)]
            + ["norm_to_w", "fejer_slack", "residual", "step_norm"]
        )
        diagnostics = [self.norm_to_w, self.fejer_slack, self.residual, self.step_norm]
        columns = [self.index, self.points, *diagnostics]
        line = ",".join(["%.17g"] * len(header)) + "\r\n"
        rows = max(1, _RECORD_BLOCK // len(header))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, len(self.index), rows):
                block = np.column_stack([c[lo : lo + rows] for c in columns])
                fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _integer(n):
    """Whether ``n`` is an integer, a bool excluded."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _check_step(lam):
    """Reject a step size outside (0, 1], NaN included."""
    if lam is None or not 0.0 < lam <= 1.0:
        raise ValueError(f"step size must lie in (0, 1], got {lam}")


def _check_horizon(lam, t_final):
    """Reject what :func:`_check_step` rejects, or a ``t_final / lam`` not finite and positive."""
    _check_step(lam)
    # the chained comparison also rejects NaN; a finite t_final / lam bounds the step count
    if not 0 < t_final / lam < math.inf:
        raise ValueError(f"t_final / lam must be finite and positive, got {t_final} / {lam}")


def _iterate(advance, x, max_steps, tol_residual=-math.inf, tol_step=-math.inf):
    """The one stepping loop ``x_0 = x``, ``x_{n+1}, r_n = advance(x_n)``.

    Records ``x_n`` and ``r_n`` once ``x_{n+1}`` is finite; stops when ``r_n <=
    tol_residual``, ``||x_n - x_{n-1}|| <= tol_step`` (both off by default) or
    ``n = max_steps``.  Returns the iterates, residuals and termination reason.
    """
    points, residuals = [], []
    step = math.nan
    # an overflowing step surfaces as NonFiniteError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            nxt, resid = advance(x)
            n = len(points)
            d = nxt - x
            # np.linalg.norm without its dispatch; x is finite, so a finite norm
            # proves nxt finite, and only an infinite or NaN one is decided entrywise
            next_step = math.sqrt(d.dot(d))
            if not next_step < math.inf and not np.isfinite(nxt).all():
                raise NonFiniteError(f"the step from iterate {n} is not finite")
            points.append(x)
            residuals.append(resid)
            if resid <= tol_residual:
                return points, residuals, "residual"
            if step <= tol_step:
                return points, residuals, "step"
            if n >= max_steps:
                return points, residuals, "max_iter"
            step = next_step
            x = nxt


def _euler(F, x0, lam, n_steps):
    """Nodes of :func:`integrate_field`'s Euler run, and ``||F(c_k)||`` at every node."""
    use_target = lam == 1.0 and getattr(F, "target", None) is not None

    def advance(x):
        if use_target:
            # F = G - Id, so the unit step lands on G(c_k) and is F(c_k), bit for bit
            nxt = np.asarray(F.target(x), dtype=float)
            d = nxt - x
            return nxt, math.sqrt(d.dot(d))
        fx = np.asarray(F(x), dtype=float)
        return x + lam * fx, math.sqrt(fx.dot(fx))

    points, field_norms, _ = _iterate(advance, as_vector(x0), n_steps)
    nodes = np.array(points)
    cap = getattr(F, "cap", None)
    if cap is not None:
        ball, floor = cap_membership(cap, nodes)
        # the floor exclusion only binds for runs started inside the admissible
        # cap; the discrete scheme legitimately starts at the anchor below it
        inside = ball & floor if ball[0] and floor[0] else ball
        left = np.flatnonzero(~inside[1:])
        if len(left):
            warnings.warn(f"euler node {left[0] + 1} left the admissible cap", RuntimeWarning)
    return nodes, field_norms


def _segment(nodes, lam, t):
    """Segment ``k`` and fraction ``t / lam - k`` of time ``t`` on the Euler nodes.

    ``t / lam`` may lie up to 1e-12 outside ``[0, n_steps]``, and within 1e-12
    of an index it is that knot, with fraction 0.
    """
    _check_step(lam)
    n_steps = len(nodes) - 1
    s = t / lam
    # negated, so that a NaN time fails it
    if not -1e-12 <= s <= n_steps + 1e-12:
        raise ValueError(f"time {t} outside [0.0, {n_steps * lam}]")
    k = round(s)
    if abs(s - k) < 1e-12:
        return k, 0.0
    k = math.floor(s)
    return k, s - k


def euler_eval(nodes, lam, t):
    """Piecewise-affine trajectory value at time ``t``.

    On the segment ``[k lam, (k+1) lam]`` the trajectory is
    ``c_k + (t - k lam) F(c_k)``; node times are reproduced exactly, also
    where ``t / lam`` rounds to within 1e-12 of the node's index.
    """
    nodes = np.asarray(nodes, dtype=float)
    k, frac = _segment(nodes, lam, t)
    if frac == 0.0:
        return nodes[k].copy()
    return nodes[k] + frac * (nodes[k + 1] - nodes[k])


def build_field(inst, cap=None):
    """The instance's flow field ``F(x) = Q(w, x, Tx) - x`` over flat vectors.

    The field and its ``target`` also map a ``(k, dim)`` stack of points, one
    per row, each row bit for bit as the single point; a single point takes
    the discrete scheme's own step, so unit-step Euler matches :func:`solve`.
    """
    w_flat = inst.w.flat

    def target(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            tx, _ = kt_apply_rows(inst, x)
            return haugazeau_rows(w_flat, x, tx)
        tx, _ = kt_apply_flat(inst, x)
        return haugazeau_projection(w_flat, x, tx)

    return VectorField(
        fn=lambda x: target(x) - x,
        cap=cap,
        target=target,
    )


def _trajectory(points, residual, termination, w, z, lam):
    """Records of a run from its iterates, with the diagnostic columns added.

    ``points`` are the iterates in order, indexed by count or, for Euler runs
    of step ``lam``, by time.  ``norm_to_w`` is NaN without an anchor ``w``, and
    ``fejer_slack`` is NaN unless both ``w`` and ``z`` are given.
    """
    points = np.asarray(points, dtype=float)
    for name, v in (("w", w), ("z", z)):
        if v is not None and v.shape != points.shape[1:]:
            raise ValueError(f"{name} has shape {v.shape}, not that of the iterates")
    count = points.shape[0]
    norm_to_w = np.full(count, np.nan)
    slack = np.full(count, np.nan)
    step_norm = np.zeros(count)
    # each column entry depends on its own row (and the one before), so
    # blocks of rows give the same bits with temporaries of one block only
    rows = max(1, _RECORD_BLOCK // points.shape[1])
    # finite iterates far apart record an overflowing norm as inf, as _iterate does
    with np.errstate(over="ignore", invalid="ignore"):
        wz_sq = None if w is None or z is None else np.sum((w - z) ** 2)
        for lo in range(0, count, rows):
            block = slice(lo, lo + rows)
            if w is not None:
                dist_w_sq = np.sum((points[block] - w) ** 2, axis=1)
                norm_to_w[block] = np.sqrt(dist_w_sq)
                if z is not None:
                    slack[block] = wz_sq - dist_w_sq - np.sum((points[block] - z) ** 2, axis=1)
            steps = np.diff(points[max(lo - 1, 0) : lo + rows], axis=0)
            step_norm[max(lo, 1) : lo + rows] = np.linalg.norm(steps, axis=1)
    return Trajectory(
        index=np.arange(count) * (1.0 if lam is None else lam),
        points=points,
        norm_to_w=norm_to_w,
        fejer_slack=slack,
        residual=np.array(residual, dtype=float),
        step_norm=step_norm,
        termination=termination,
    )


def solve(inst, max_iter=100_000, tol_residual=1e-9, tol_step=1e-12, z=None):
    """Run the best-approximation iteration ``x_{n+1} = Q(w, x_n, T x_n)`` on an instance.

    Its Euler relaxation is ``integrate_field(build_field(inst, cap), x0, lam, t_final)``.

    Parameters
    ----------
    inst : ProblemInstance
    max_iter : int
        Iteration budget, a positive integer (not a bool).
    tol_residual : float
        Stop once the fixed-point residual ``||Tx - x||`` falls below this;
        finite and positive (not a bool), as is ``tol_step``.
    tol_step : float
        Stop once the iterate displacement falls below this.
    z : array_like, optional
        Known solution; enables the Fejer-slack column of the records.

    Returns
    -------
    Trajectory
        Termination reason is ``"residual"``, ``"step"`` or ``"max_iter"``.

    Raises
    ------
    EmptyIntersectionError
        Projection breakdown (the iteration left the admissible region).
    NonFiniteError
        The step from a recorded iterate is not finite.
    """
    if not (_integer(max_iter) and max_iter > 0):
        raise ValueError(f"stop criteria: max_iter must be a positive integer, got {max_iter!r}")
    # the chained comparisons also reject NaN; a bool is no tolerance, as it is no max_iter
    if bool in (type(tol_residual), type(tol_step)) or not (
        0 < tol_residual < math.inf and 0 < tol_step < math.inf
    ):
        raise ValueError(
            f"stop criteria: tolerances must be finite and positive, "
            f"got tol_residual={tol_residual!r}, tol_step={tol_step!r}"
        )

    w_flat = inst.w.flat
    z_flat = None if z is None else as_vector(z)

    with _product_worker(inst.L) as pool:

        def advance(x):
            tx, resid = kt_apply_flat(inst, x, pool=pool)
            return haugazeau_projection(w_flat, x, tx), resid

        points, residuals, termination = _iterate(
            advance, inst.x0.flat, max_iter, tol_residual, tol_step
        )
    # stacked before the records are built, so the list of iterates is freed first
    points = np.asarray(points)
    return _trajectory(points, residuals, termination, w_flat, z_flat, None)


def integrate_field(F, x0, lam, t_final, cap=None):
    """Euler-integrate a raw field on ``[0, t_final]`` and record diagnostics.

    The nodes are ``c_0 = x0``, ``c_{k+1} = c_k + lam F(c_k)`` for
    ``ceil(t_final / lam)`` steps, with ``lam`` in (0, 1].  The residual
    column holds ``||F(x)||`` (stationarity measure).  The cap supplies both
    anchors of the record columns: its ``w`` for the distance column and its
    ``z`` for the Fejer column.  ``cap`` overrides the field's declared cap;
    when neither gives one, those columns are NaN.

    When the field declares a cap, nodes are classified against it and a
    warning is emitted the first time one leaves; under the
    segment-invariance assumption on the field this cannot happen, so the
    warning flags either a field violating that assumption or numerical
    trouble.
    """
    _check_horizon(lam, t_final)
    cap = cap if cap is not None else getattr(F, "cap", None)
    n_steps = int(np.ceil(t_final / lam - 1e-12))
    w_flat, z_flat = (None, None) if cap is None else (cap.w, cap.z)
    nodes, residuals = _euler(F, x0, lam, n_steps)
    return _trajectory(nodes, residuals, "t_final", w_flat, z_flat, lam)
