"""Primal-dual coupling operator for the composed inclusion, plus fixed-point builders.

The target problem couples two maximally monotone operators through a linear
map: find a primal point ``p`` with ``0 in A p + L* B L p``, together with a
dual point ``v`` solving the attached dual inclusion.  Solution pairs
``(p, v)`` form the Kuhn-Tucker set

    Z = {(p, v) : -L* v in A p  and  L p in B^{-1} v},

which coincides with the fixed points of the operator built here: one
resolvent call on each block produces a separating halfspace for Z, and the
operator projects the current point onto it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import LinearMap, MonotoneOperator
from .space import PDPoint, as_vector

__all__ = [
    "ProblemInstance",
    "kt_operator",
    "kt_apply_flat",
    "kt_apply_rows",
    "kt_residual",
    "fixed_point_operator",
    "S_STAR_TOL",
]

# Below this cut-normal size the current point is declared a fixed point;
# the projection formula would otherwise divide by a vanishing norm.
S_STAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Data of one coupled inclusion: blocks A and B, coupling L, step sizes, anchors.

    ``gamma`` and ``mu`` are the per-block resolvent steps, both restricted
    to (0, 1).  ``w`` is the anchor whose best approximation in the
    Kuhn-Tucker set the scheme computes, ``x0`` the starting point.
    """

    A: MonotoneOperator
    B: MonotoneOperator
    L: LinearMap
    gamma: float
    mu: float
    w: PDPoint
    x0: PDPoint

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        m, n = self.L.shape
        for label, point in (("w", self.w), ("x0", self.x0)):
            if point.dim_p != n or point.dim_v != m:
                raise ValueError(
                    f"{label} has blocks ({point.dim_p}, {point.dim_v}), "
                    f"expected ({n}, {m}) from L"
                )
        for label, op, dim in (("A", self.A, n), ("B", self.B, m)):
            if op.dim is not None and op.dim != dim:
                raise ValueError(f"operator {label} has dim {op.dim}, expected {dim}")

    @property
    def dim_p(self):
        return self.L.shape[1]

    @property
    def dim_v(self):
        return self.L.shape[0]

    @property
    def dim(self):
        return self.dim_p + self.dim_v


def _kt_blocks(inst, p, v):
    """Block resolvents and the separating cut at (p, v).

    ``p`` and ``v`` are one point's blocks, or stacks of them with one point
    per row; eta is then one level per row.  Returns
    ``(a, b, a_star, b_star, s_flat, eta)`` where

        a = J_{gamma A}(p - gamma L* v),    b = J_{mu B}(L p + mu v),

    ``a_star``/``b_star`` are the Yosida companions, and the cut is
    ``s = (a_star + L* b_star, b - L a)`` with level ``eta = <a, a_star> +
    <b, b_star>``.
    """
    L, gamma, mu = inst.L, inst.gamma, inst.mu
    ua = p - gamma * L.adjoint(v)
    a = inst.A.resolvent(gamma, ua)
    a_star = (ua - a) / gamma

    ub = L.apply(p) + mu * v
    b = inst.B.resolvent(mu, ub)
    b_star = (ub - b) / mu

    s_flat = np.concatenate([a_star + L.adjoint(b_star), b - L.apply(a)], axis=-1)
    if p.ndim == 1:
        # @, not .dot as on flat vectors: a block may have one element (see LinearMap.apply)
        eta = float(a @ a_star + b @ b_star)
    else:
        eta = np.vecdot(a, a_star) + np.vecdot(b, b_star)
    return a, b, a_star, b_star, s_flat, eta


def _cut_projection(x_flat, s_flat, eta):
    """Project ``x`` onto ``{h : <h, s> <= eta}``; identity when ``||s|| <= S_STAR_TOL``."""
    s_norm_sq = float(s_flat.dot(s_flat))
    s_norm = math.sqrt(s_norm_sq)
    if s_norm <= S_STAR_TOL:
        return x_flat, 0.0
    viol = float(x_flat.dot(s_flat)) - eta
    if viol <= 0.0:
        return x_flat, 0.0
    return x_flat - (viol / s_norm_sq) * s_flat, viol / s_norm


def kt_operator(inst, x):
    """Evaluate the Kuhn-Tucker coupling operator ``T`` at ``x``.

    ``Tx`` projects ``x`` onto the cut ``{h : <h, s_star> <= eta}`` produced
    by one resolvent call per block (see :func:`_kt_blocks`).  When the cut
    normal vanishes (below :data:`S_STAR_TOL`) the point is a fixed point
    and ``Tx`` is ``x`` itself; this is exactly the Kuhn-Tucker case, where
    eta also vanishes.

    ``x`` is one flat vector of dimension ``dim_p + dim_v``, or a
    ``(k, dim)`` stack of them, mapped row by row.  A non-finite cut moves
    its point to NaN instead of raising.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return kt_apply_rows(inst, x)[0]
    return kt_apply_flat(inst, x)[0]


def kt_apply_flat(inst, x_flat):
    """Coupling-operator evaluation on a flat vector, with its residual.

    Used by the iteration loops.  Returns ``(tx_flat, residual)`` with
    residual ``||Tx - x||``; an unmoved point comes back as ``x`` itself.
    """
    n = inst.dim_p
    _, _, _, _, s_flat, eta = _kt_blocks(inst, x_flat[:n], x_flat[n:])
    return _cut_projection(x_flat, s_flat, eta)


def kt_apply_rows(inst, x_rows):
    """:func:`kt_apply_flat` on a ``(k, dim)`` stack of points, one per row.

    Returns ``(tx_rows, residuals)``; every row equals the single-point
    result bit for bit, and rows with no cut keep ``x`` exactly.
    """
    n = inst.dim_p
    _, _, _, _, s_rows, eta = _kt_blocks(inst, x_rows[:, :n], x_rows[:, n:])
    s_norm_sq = np.vecdot(s_rows, s_rows)
    viol = np.vecdot(x_rows, s_rows) - eta
    # negated, so that a NaN cut moves the row to NaN as in _cut_projection
    moved = ~((np.sqrt(s_norm_sq) <= S_STAR_TOL) | (viol <= 0.0))
    # the projection is also evaluated on the rows it does not move
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tx = x_rows - (viol / s_norm_sq)[:, None] * s_rows
        resid = viol / np.sqrt(s_norm_sq)
    return np.where(moved[:, None], tx, x_rows), np.where(moved, resid, 0.0)


def kt_residual(inst, x):
    """Fixed-point residual ``||Tx - x||``; zero exactly on the Kuhn-Tucker set."""
    _, resid = kt_apply_flat(inst, as_vector(x))
    return resid


def _projection_onto_set(set_op):
    if not isinstance(set_op, MonotoneOperator):
        raise ValueError("'projection' expects a normal-cone operator for the set")
    return lambda x: set_op.resolvent(1.0, x)


def fixed_point_operator(kind, **params):
    """Build one of the firmly quasinonexpansive operators used by the flow.

    Kinds
    -----
    ``"projection"``
        Metric projection onto a closed convex set, supplied as a
        normal-cone operator (``set_op``); fixed points are the set itself.
    ``"resolvent"``
        ``J_{gamma A}`` of a maximally monotone ``op`` (``gamma`` defaults
        to 1); fixed points are the zeros of ``op``.
    ``"forward_backward"``
        ``x -> (x + J_{gamma A}(x - gamma B x)) / 2`` for maximally monotone
        ``op`` and a ``beta``-cocoercive single-valued ``forward`` map;
        requires ``0 <= gamma <= 2 beta``.  Fixed points solve
        ``0 in A x + B x``.
    ``"kuhn_tucker"``
        The coupling operator of a :class:`ProblemInstance` on flat vectors
        of dimension ``dim_p + dim_v``, or on a ``(k, dim)`` stack of them,
        one per row; fixed points are the Kuhn-Tucker pairs.

    Returns
    -------
    callable mapping a flat vector to a flat vector.  Every kind but
    ``"forward_backward"`` also maps a stack of rows, row by row.
    """
    if kind == "projection":
        return _projection_onto_set(params["set_op"])

    if kind == "resolvent":
        op = params["op"]
        gamma = params.get("gamma", 1.0)
        if not gamma > 0:
            raise ValueError(f"resolvent step must be positive, got {gamma}")
        return lambda x: op.resolvent(gamma, x)

    if kind == "forward_backward":
        op = params["op"]
        forward = params["forward"]
        beta = params["beta"]
        gamma = params["gamma"]
        if not beta > 0:
            raise ValueError(f"cocoercivity constant must be positive, got {beta}")
        if not 0.0 <= gamma <= 2.0 * beta:
            raise ValueError(f"gamma must lie in [0, {2.0 * beta}], got {gamma}")

        def averaged_fb(x):
            x = np.asarray(x, dtype=float)
            inner_pt = x - gamma * as_vector(forward(x))
            back = inner_pt if gamma == 0.0 else op.resolvent(gamma, inner_pt)
            return 0.5 * (x + back)

        return averaged_fb

    if kind == "kuhn_tucker":
        inst = params["instance"]
        # not functools.partial: a rebound module-level kt_operator takes effect
        return lambda x: kt_operator(inst, x)

    raise ValueError(f"unknown fixed-point operator kind {kind!r}")
