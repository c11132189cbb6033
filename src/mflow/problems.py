"""Built-in test instances with independently computed solutions, plus raw-field fixtures.

Solutions ("oracles") are always produced by a code path separate from the
solver: dense linear solves for the quadratic family, sign-pattern
enumeration for the l1-regularized family.  Every instance with a known
solution, built in or read from an instance document, is built by
:func:`checked_instance`, which validates that solution by its fixed-point
residual.

The two planar fixtures predate the projection-based construction; they are
raw fields with their own cap geometry and closed-form reference
trajectories, used to exercise the assumption checker and the integrator.
Their fields, and lens-drift's extension, map a ``(k, 2)`` stack of points
row by row, as the checks require; box-flow's branching extension takes
one point per call.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import VectorField, build_field
from .geometry import Cap
from .operators import L1, LinearMap, Quadratic, Zero
from .space import PDPoint, as_vector
from .splitting import ProblemInstance, kt_residual

__all__ = [
    "NamedInstance",
    "quadratic_instance",
    "lasso_instance",
    "builtin_tags",
    "get_instance",
]

ORACLE_RESIDUAL_TOL = 1e-9
DEFAULT_FLOOR_FRACTION = 0.25
# Resolvent steps of both blocks of every built-in family.
STEP = 0.5


@dataclass(eq=False)
class NamedInstance:
    """A tagged problem: either a coupled-inclusion instance or a raw field.

    ``z`` is the known solution (flat), ``cap`` the admissible region built
    from the anchor pair.  Raw-field fixtures may carry an
    ``extended_field`` (continuation beyond the cap), closed-form
    ``references``: pairs ``(label, t -> point)``, and the ``start`` point
    those references leave from.
    """

    tag: str
    instance: ProblemInstance = None
    field: VectorField = None
    extended_field: VectorField = None
    cap: Cap = None
    z: np.ndarray = None
    references: tuple = ()
    start: np.ndarray = None

    def flow_field(self):
        """The field driving the dynamics (builds it for splitting instances)."""
        if self.instance is not None:
            return build_field(self.instance, cap=self.cap)
        return self.field


def checked_instance(tag, inst, z_flat, floor_fraction):
    """The tagged instance with solution ``z_flat`` and its admissible cap.

    ``z_flat`` must have the instance's dimension and pass the fixed-point
    residual.  The cap's floor is ``floor_fraction * ||w - z||^2``; there is
    no cap when ``w == z``, since the anchor is then the solution and there
    is no region to bound.
    """
    if z_flat.shape != (inst.dim,):
        raise ValueError(
            f"instance {tag!r}: solution 'z' has shape {z_flat.shape}, "
            f"expected ({inst.dim},)"
        )
    # an overflowing residual is NaN and fails below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        resid = kt_residual(inst, z_flat)
    if not resid <= ORACLE_RESIDUAL_TOL:  # a NaN residual fails too
        raise ValueError(
            f"instance {tag!r}: oracle fails the fixed-point residual "
            f"(residual {resid:.3e}, tolerance {ORACLE_RESIDUAL_TOL})"
        )
    gap_sq = float(np.sum((inst.w.flat - z_flat) ** 2))
    cap = None
    if gap_sq != 0.0:
        try:
            cap = Cap(inst.w.flat, z_flat, float(floor_fraction) * gap_sq)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad floor_fraction {floor_fraction!r}: {exc}") from exc
    return NamedInstance(tag=tag, instance=inst, cap=cap, z=z_flat)


def _shifted_gram(X):
    """``I + X X^T``, adding the identity to the diagonal in place."""
    G = X @ X.T
    G.flat[:: G.shape[0] + 1] += 1.0
    return G


def quadratic_instance(p0, q0, L, tag="quadratic"):
    """Coupled quadratic blocks: ``A p = p - p0`` and ``B q = q - q0``.

    The Kuhn-Tucker system ``p + L^T v = p0``, ``L p - v = q0`` is solved
    densely through the smaller of its two normal equations:
    ``(I + L L^T) v = L p0 - q0`` with ``p = p0 - L^T v`` when L is wide
    (m < n), else ``(I + L^T L) p = p0 + L^T q0`` with ``v = L p - q0``.
    Their spectra differ only by extra eigenvalues 1, so the smaller matrix
    is no worse conditioned, and it is cheaper to form and to solve.
    This linear solve is the oracle, independent of the iteration.  Both
    resolvent steps are :data:`STEP`; the anchor and the start are the origin.
    """
    p0 = as_vector(p0)
    q0 = as_vector(q0)
    L = L if isinstance(L, LinearMap) else LinearMap(L)
    n = p0.shape[0]
    m = q0.shape[0]
    if L.shape != (m, n):
        raise ValueError(f"L has shape {L.shape}, expected ({m}, {n})")

    M = L.matrix
    if m < n:
        v_star = np.linalg.solve(_shifted_gram(M), M @ p0 - q0)
        p_star = p0 - M.T @ v_star
    else:
        p_star = np.linalg.solve(_shifted_gram(M.T), p0 + M.T @ q0)
        v_star = M @ p_star - q0
    z_flat = np.concatenate([p_star, v_star])

    w = PDPoint(np.zeros(n), np.zeros(m))
    inst = ProblemInstance(
        A=Quadratic(p0), B=Quadratic(q0), L=L, gamma=STEP, mu=STEP, w=w, x0=w
    )
    return checked_instance(tag, inst, z_flat, DEFAULT_FLOOR_FRACTION)


def _lasso_oracle(b, M, reg, tol=1e-11):
    """Solve ``min 0.5 ||p - b||^2 + reg ||L p||_1`` by sign-pattern enumeration.

    For each sign pattern of ``L p`` the stationarity system is linear;
    patterns are screened for consistency (sign match on the active rows,
    multiplier bound on the inactive ones).  Needs ``L`` with independent
    rows so the dual is unique; row count is capped to keep the
    enumeration exact and cheap.
    """
    m = M.shape[0]
    if m > 3:
        raise ValueError(f"sign enumeration supports at most 3 dual dims, got {m}")
    if np.linalg.matrix_rank(M) < m:
        raise ValueError("coupling map must have independent rows (unique dual)")

    for pattern in itertools.product((-1, 0, 1), repeat=m):
        s = np.array(pattern, dtype=float)
        active = s != 0
        u = np.empty(m)
        u[active] = reg * s[active]
        rhs_base = b - M[active].T @ u[active] if active.any() else b.copy()
        inactive = ~active
        if inactive.any():
            E = M[inactive]
            gram = E @ E.T
            u_e = np.linalg.solve(gram, E @ rhs_base)
            u[inactive] = u_e
            p = rhs_base - E.T @ u_e
        else:
            p = rhs_base
        y = M @ p
        if inactive.any():
            if np.any(np.abs(u[inactive]) > reg + tol):
                continue
            if np.any(np.abs(y[inactive]) > tol * (1.0 + np.abs(y).max())):
                continue
        if active.any() and np.any(y[active] * s[active] < -tol):
            continue
        return p, u
    raise RuntimeError("sign enumeration found no consistent pattern")


def lasso_instance(b, L, reg, tag="lasso"):
    """Quadratic block coupled to an l1 block: ``A p = p - b``, ``B = reg * subdiff l1``.

    ``reg = 0`` degenerates to the unregularized minimum (the l1 block
    becomes the zero operator and the solution is ``(b, 0)``).  Steps, anchor
    and start are as in :func:`quadratic_instance`.
    """
    b = as_vector(b)
    L = L if isinstance(L, LinearMap) else LinearMap(L)
    if reg < 0:
        raise ValueError(f"regularization weight must be nonnegative, got {reg}")
    p_star, v_star = _lasso_oracle(b, L.matrix, reg)
    z_flat = np.concatenate([p_star, v_star])

    w = PDPoint(np.zeros(b.shape[0]), np.zeros(L.shape[0]))
    B = Zero() if reg == 0 else L1(reg)
    inst = ProblemInstance(A=Quadratic(b), B=B, L=L, gamma=STEP, mu=STEP, w=w, x0=w)
    return checked_instance(tag, inst, z_flat, DEFAULT_FLOOR_FRACTION)


def lens_drift():
    """Planar horizontal drift on a lens-shaped cap; segment invariance fails.

    The cap is the unit disk minus the open unit disk around the anchor
    ``w = (-1, 0)`` (floor ``r = 1``), the stationary point is ``(1, 0)``,
    and the field pushes horizontally toward it.  Near the south pole
    ``(0, -1)`` the segment ``x + h F(x)`` leaves the disk, so no flow
    trajectory exists there; the natural extension of the field to the
    whole plane has the closed-form trajectory
    ``t -> (1 - e^{-t}, -1)`` from ``(0, -1)``.
    """
    w = np.array([-1.0, 0.0])
    z = np.array([1.0, 0.0])
    cap = Cap(w, z, 1.0)

    def drift(x):
        x = np.asarray(x, dtype=float)
        return np.stack([1.0 - x[..., 0], np.zeros_like(x[..., 1])], axis=-1)

    fld = VectorField(fn=drift, cap=cap)
    extended = VectorField(fn=drift)
    reference = ("horizontal", lambda t: np.array([1.0 - np.exp(-t), -1.0]))
    return NamedInstance(
        tag="lens-drift",
        field=fld,
        extended_field=extended,
        cap=cap,
        z=z,
        references=(reference,),
        start=np.array([0.0, -1.0]),
    )


# Branch curve of the box-flow fixture: {(1 - e^{-s}, e^{-s} + s - 1), s > 0}.
_BRANCH_TOL = 1e-12


def _on_branch_curve(x1, x2):
    if not 0.0 < x1 < 1.0:
        return False
    s = -np.log1p(-x1)
    return abs(x2 - (np.expm1(-s) + s)) <= _BRANCH_TOL


def _in_notched_box(x1, x2, tol=1e-12):
    if not (-tol <= x1 <= 1.0 + tol and -1.0 - tol <= x2 <= tol):
        return False
    return x1 * x1 + (x2 + 1.0) ** 2 >= 1.0 - tol


def box_flow():
    """Planar contraction toward ``(1, 0)`` on a notched box; extensions branch.

    On its own region (the unit box ``[0,1] x [-1,0]`` minus the open unit
    disk around the anchor ``w = (0, -1)``) the field is
    ``F(x) = (1 - x1, -x2)`` and all standing assumptions hold.  Any
    continuous extension beyond the region is non-unique: the packaged one
    follows ``(1 - x1, x1)`` along the branch curve
    ``(1 - e^{-s}, e^{-s} + s - 1)``, so both

        t -> (1 - e^{-t}, e^{-t} + t - 1)   and   t -> (1 - e^{-t}, 0)

    solve the extended system from ``(0, 0)`` on [0, 1].

    The stored cap is the enclosing ball of the anchor pair; the exact box
    region is a subset of it and is used only inside the extended field's
    branch logic.
    """
    w = np.array([0.0, -1.0])
    z = np.array([1.0, 0.0])
    cap = Cap(w, z, 1.0)

    def contraction(x):
        x = np.asarray(x, dtype=float)
        return np.stack([1.0 - x[..., 0], -x[..., 1]], axis=-1)

    # branchy and only ever integrated, never checked: one point per call
    def extended_fn(x):
        x1, x2 = float(x[0]), float(x[1])
        if _in_notched_box(x1, x2):
            return np.array([1.0 - x1, -x2])
        if _on_branch_curve(x1, x2):
            return np.array([1.0 - x1, x1])
        # continuous blend between the two closed pieces, weighted by
        # (rough) inverse distance; exact on both pieces, smooth off them
        d_box = max(abs(min(x1, 0.0)), x1 - 1.0, x2, -1.0 - x2, 0.0)
        d_box = max(d_box, max(0.0, 1.0 - np.hypot(x1, x2 + 1.0)))
        if 0.0 < x1 < 1.0:
            s = -np.log1p(-x1)
            d_curve = abs(x2 - (np.expm1(-s) + s))
        else:
            d_curve = abs(x2) + max(0.0, -x1) + max(0.0, x1 - 1.0)
        total = d_box + d_curve
        if total == 0.0:
            return np.array([1.0 - x1, -x2])
        wgt = d_box / total
        return np.array([1.0 - x1, wgt * x1 + (1.0 - wgt) * (-x2)])

    fld = VectorField(fn=contraction, cap=cap)
    extended = VectorField(fn=extended_fn)
    references = (
        ("branch", lambda t: np.array([1.0 - np.exp(-t), np.exp(-t) + t - 1.0])),
        ("flat", lambda t: np.array([1.0 - np.exp(-t), 0.0 * t])),
    )
    return NamedInstance(
        tag="box-flow",
        field=fld,
        extended_field=extended,
        cap=cap,
        z=z,
        references=references,
        start=np.array([0.0, 0.0]),
    )


def _quadratic_1d():
    return quadratic_instance(p0=[0.0], q0=[1.0], L=[[1.0]], tag="quadratic1d")


def _quadratic_3x2():
    return quadratic_instance(
        p0=[0.09, 0.54, 0.05],
        q0=[0.13, 0.7],
        L=[[0.8, 0.61, -0.39], [0.14, -1.65, -0.84]],
        tag="quadratic3x2",
    )


def _lasso_1d():
    return lasso_instance(b=[2.0], L=[[1.0]], reg=1.0, tag="lasso1d")


def _lasso_3x2():
    return lasso_instance(
        b=[1.0, -0.5, 0.8],
        L=[[1.0, 0.3, 0.0], [0.0, 0.4, 1.0]],
        reg=0.6,
        tag="lasso3x2",
    )


_BUILTIN = {
    "quadratic1d": _quadratic_1d,
    "quadratic3x2": _quadratic_3x2,
    "lasso1d": _lasso_1d,
    "lasso3x2": _lasso_3x2,
    "lens-drift": lens_drift,
    "box-flow": box_flow,
}


def builtin_tags():
    return sorted(_BUILTIN)


def get_instance(tag):
    """Instantiate a built-in by tag; raises KeyError with the known tags."""
    try:
        factory = _BUILTIN[tag]
    except KeyError:
        raise KeyError(
            f"unknown instance tag {tag!r}; built-ins: {', '.join(builtin_tags())}"
        ) from None
    return factory()
