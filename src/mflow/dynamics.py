"""Euler trajectories, the discrete best-approximation scheme, and the solve loop.

The continuous system is the autonomous flow ``x' = F(x)`` with
``F(x) = Q(w, x, Tx) - x``, where ``Q`` projects the anchor ``w`` onto the
two-cut intersection.  Its explicit Euler discretization with unit step is
exactly the discrete best-approximation iteration

    x_{n+1} = Q(w, x_n, T x_n),

so the integrator and the discrete scheme share one step routine and agree
bit for bit at step size one.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Cap,
    INSIDE_DHAT,
    OUTSIDE,
    cap_membership,
    haugazeau_projection,
    haugazeau_rows,
)
from .space import PDPoint, as_vector
from .splitting import kt_apply_flat, kt_apply_rows

__all__ = [
    "VectorField",
    "Trajectory",
    "NonFiniteError",
    "euler_nodes",
    "euler_eval",
    "euler_defect",
    "build_field",
    "best_approx_iterate",
    "solve",
    "integrate_field",
]


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
    mode: str
    lam: float = None
    label: str = ""

    @property
    def final(self):
        return self.points[-1]

    @property
    def iterations(self):
        return self.points.shape[0] - 1

    def summary(self):
        return {
            "label": self.label,
            "mode": self.mode,
            "lambda": self.lam,
            "termination": self.termination,
            "iterations": self.iterations,
            "final_point": self.final.tolist(),
            "final_residual": float(self.residual[-1]),
            "final_norm_to_w": float(self.norm_to_w[-1]),
        }

    def write_csv(self, path):
        """Write records as CSV with round-trip-safe float formatting."""
        dim = self.points.shape[1]
        header = (
            ["n_or_t"]
            + [f"x_{i}" for i in range(dim)]
            + ["norm_to_w", "fejer_slack", "residual", "step_norm"]
        )
        diagnostics = [self.norm_to_w, self.fejer_slack, self.residual, self.step_norm]
        cols = np.column_stack([self.index, self.points, *diagnostics])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            np.savetxt(fh, cols, fmt="%.17g", delimiter=",", newline="\r\n")


def euler_nodes(F, x0, lam, n_steps):
    """Euler recursion nodes ``c_0 = x0``, ``c_{k+1} = c_k + lam F(c_k)``.

    ``lam`` must lie in (0, 1].  When the field declares a cap, nodes are
    classified against it and a warning is emitted the first time one
    leaves; under the segment-invariance assumption on the field this
    cannot happen, so the warning flags either a field violating that
    assumption or numerical trouble.

    Returns an array of shape ``(n_steps + 1, dim)``.
    """
    return _euler(F, x0, lam, n_steps)[0]


def _euler(F, x0, lam, n_steps):
    """Nodes of :func:`euler_nodes`, and ``||F(c_k)||`` at every node but the last."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"step size must lie in (0, 1], got {lam}")
    x0 = as_vector(x0)
    nodes = np.empty((n_steps + 1, x0.shape[0]))
    nodes[0] = x0
    field_norms = np.empty(n_steps)
    cap = getattr(F, "cap", None)
    # the floor exclusion only binds for runs started inside the admissible
    # cap; the discrete scheme legitimately starts at the anchor below it
    floor_binds = cap is not None and cap_membership(cap, x0) == INSIDE_DHAT
    warned = False
    use_target = lam == 1.0 and getattr(F, "target", None) is not None
    # an overflowing step surfaces as NonFiniteError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if use_target:
                nodes[k + 1] = F.target(nodes[k])
                # F = G - Id, so the unit step is F(c_k) itself, bit for bit
                fx = nodes[k + 1] - nodes[k]
            else:
                fx = np.asarray(F(nodes[k]), dtype=float)
                nodes[k + 1] = nodes[k] + lam * fx
            field_norms[k] = np.linalg.norm(fx)
            if not np.all(np.isfinite(nodes[k + 1])):
                raise NonFiniteError(f"euler node {k + 1} is not finite")
            if cap is not None and not warned:
                membership = cap_membership(cap, nodes[k + 1])
                if membership == OUTSIDE or (floor_binds and membership != INSIDE_DHAT):
                    warnings.warn(
                        f"euler node {k + 1} left the admissible cap", RuntimeWarning
                    )
                    warned = True
    return nodes, field_norms


def euler_eval(nodes, lam, t):
    """Piecewise-affine trajectory value at time ``t``.

    On the segment ``[k lam, (k+1) lam]`` the trajectory is
    ``c_k + (t - k lam) F(c_k)``; node times are reproduced exactly.
    """
    nodes = np.asarray(nodes, dtype=float)
    n_steps = nodes.shape[0] - 1
    s = t / lam
    if s < 0.0 or s > n_steps + 1e-12:
        raise ValueError(f"time {t} outside [0.0, {n_steps * lam}]")
    k = min(int(np.floor(s)), n_steps - 1)
    frac = s - k
    return nodes[k] + frac * (nodes[k + 1] - nodes[k])


def euler_defect(F, nodes, lam, t):
    """Defect ``F(c_k) - F(c(t))`` of the affine interpolant at time ``t``.

    This is the difference between the trajectory's slope and the field
    along it; by convention it is zero at the knots, and its sup over the
    interval shrinks to zero with ``lam`` for uniformly continuous fields.
    """
    nodes = np.asarray(nodes, dtype=float)
    n_steps = nodes.shape[0] - 1
    s = t / lam
    if s < -1e-12 or s > n_steps + 1e-12:
        raise ValueError(f"time {t} outside [0.0, {n_steps * lam}]")
    if abs(s - round(s)) < 1e-12:
        return np.zeros(nodes.shape[1])
    k = min(int(np.floor(s)), n_steps - 1)
    slope = (nodes[k + 1] - nodes[k]) / lam
    return slope - as_vector(F(euler_eval(nodes, lam, t)))


def _kt_projection_step(inst, x_flat, w_flat):
    """One discrete-scheme step from a flat vector: returns (Q, residual at x)."""
    tx_flat, resid = kt_apply_flat(inst, x_flat)
    q = haugazeau_projection(w_flat, x_flat, tx_flat)
    return q, resid


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
        q, _ = _kt_projection_step(inst, x, w_flat)
        return q

    return VectorField(
        fn=lambda x: target(x) - x,
        cap=cap,
        target=target,
    )


def best_approx_iterate(inst, x):
    """One step of the discrete scheme: ``Q(w, x, Tx)``.

    ``x`` may be a PDPoint or a flat vector; the result matches the input
    kind.  Off-cap starts are legal input here but make the scheme's
    containment guarantees void.
    """
    if isinstance(x, PDPoint):
        q, _ = _kt_projection_step(inst, x.flat, inst.w.flat)
        return PDPoint.from_flat(q, inst.dim_p)
    q, _ = _kt_projection_step(inst, as_vector(x), inst.w.flat)
    return q


def _trajectory(index, points, residual, w, z, termination, mode, lam, label):
    """Records of a run from its iterates, with the diagnostic columns added.

    ``points`` are the iterates in order.  ``norm_to_w`` is NaN without an
    anchor ``w``, and ``fejer_slack`` is NaN unless both ``w`` and ``z`` are
    given.
    """
    points = np.array(points, dtype=float)
    if w is None:
        dist_w_sq = np.full(points.shape[0], np.nan)
    else:
        dist_w_sq = np.sum((points - w) ** 2, axis=1)
    if w is None or z is None:
        slack = np.full(points.shape[0], np.nan)
    else:
        slack = np.sum((w - z) ** 2) - dist_w_sq - np.sum((points - z) ** 2, axis=1)
    step_norm = np.zeros(points.shape[0])
    step_norm[1:] = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return Trajectory(
        index=np.asarray(index, dtype=float),
        points=points,
        norm_to_w=np.sqrt(dist_w_sq),
        fejer_slack=slack,
        residual=np.array(residual, dtype=float),
        step_norm=step_norm,
        termination=termination,
        mode=mode,
        lam=lam,
        label=label,
    )


def solve(
    inst,
    mode="discrete",
    lam=None,
    max_iter=100_000,
    tol_residual=1e-9,
    tol_step=1e-12,
    z=None,
    label="",
):
    """Run the best-approximation iteration (or its Euler relaxation) on an instance.

    Parameters
    ----------
    inst : ProblemInstance
    mode : {"discrete", "euler"}
        ``"discrete"`` iterates ``x_{n+1} = Q(w, x_n, T x_n)``; ``"euler"``
        relaxes each step to ``x + lam (Q - x)`` with ``lam`` in (0, 1].
        At ``lam = 1`` the Euler step evaluates the projection directly, so
        the two modes produce identical trajectories.
    lam : float, optional
        Euler step size, required for ``mode="euler"``.
    max_iter : int
        Iteration budget.
    tol_residual : float
        Stop once the fixed-point residual ``||Tx - x||`` falls below this.
    tol_step : float
        Stop once the iterate displacement falls below this.
    z : array_like, optional
        Known solution; enables the Fejer-slack column of the records.
    label : str
        Carried into the trajectory metadata.

    Returns
    -------
    Trajectory
        Termination reason is ``"residual"``, ``"step"`` or ``"max_iter"``.

    Raises
    ------
    EmptyIntersectionError
        Projection breakdown (the iteration left the admissible region).
    NonFiniteError
        A projection or an iterate stopped being finite.
    """
    if mode not in ("discrete", "euler"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "euler":
        if lam is None or not 0.0 < lam <= 1.0:
            raise ValueError(f"euler mode needs a step size in (0, 1], got {lam}")
    # written so that a NaN criterion fails too
    if not (max_iter > 0 and tol_residual > 0 and tol_step > 0):
        raise ValueError("stop criteria must be strictly positive")

    w_flat = inst.w.flat
    x = inst.x0.flat
    points, residuals = [], []
    # an overflowing step surfaces as NonFiniteError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            q, resid = _kt_projection_step(inst, x, w_flat)
            n = len(points)
            if not np.all(np.isfinite(q)):
                raise NonFiniteError(f"the projection at iterate {n} is not finite")
            step_small = n > 0 and float(np.linalg.norm(x - points[-1])) <= tol_step
            points.append(x)
            residuals.append(resid)
            if resid <= tol_residual:
                termination = "residual"
                break
            if step_small:
                termination = "step"
                break
            if n >= max_iter:
                termination = "max_iter"
                break
            # lam = 1 collapses the relaxed step to the projection itself; taking
            # it directly keeps euler(1) and discrete bit-identical.
            if mode == "discrete" or lam == 1.0:
                x = q
            else:
                x = x + lam * (q - x)
                if not np.all(np.isfinite(x)):
                    raise NonFiniteError(f"iterate {n + 1} is not finite")
    index = np.arange(len(points)) * (1.0 if mode == "discrete" else lam)
    z_flat = None if z is None else as_vector(z)
    return _trajectory(
        index, points, residuals, w_flat, z_flat, termination, mode, lam, label
    )


def integrate_field(F, x0, lam, t_final, cap=None, z=None, label=""):
    """Euler-integrate a raw field on ``[0, t_final]`` and record diagnostics.

    The residual column holds ``||F(x)||`` (stationarity measure).  ``cap``
    overrides the field's declared cap for the Fejer/distance columns; when
    neither provides anchors those columns are NaN.
    """
    # the chained comparison also rejects NaN
    if not 0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and positive, got {t_final}")
    cap = cap if cap is not None else getattr(F, "cap", None)
    n_steps = int(np.ceil(t_final / lam - 1e-12))
    nodes, field_norms = _euler(F, x0, lam, n_steps)
    residuals = np.append(field_norms, np.linalg.norm(F(nodes[-1])))
    w_flat = cap.w if cap is not None else None
    z_flat = as_vector(z) if z is not None else (cap.z if cap is not None else None)
    index = np.arange(n_steps + 1) * lam
    return _trajectory(
        index, nodes, residuals, w_flat, z_flat, "t_final", "euler", lam, label
    )
