"""Halfspace cuts, the two-cut projection, and the admissible cap geometry.

The method's outer approximation is built from halfspaces of the form
``H(z1, z2) = {h : <h - z2, z1 - z2> <= 0}``.  The central primitive projects
an anchor ``w`` onto the intersection ``H(w, b) & H(b, c)`` in closed form
via a four-case analysis on the Gram data of ``w - b`` and ``b - c``.
"""

from dataclasses import dataclass

import numpy as np

from .space import as_vector

__all__ = [
    "GEOM_TOL",
    "EmptyIntersectionError",
    "HalfSpace",
    "halfspace_of",
    "project_halfspace",
    "project_onto_halfspaces",
    "haugazeau_projection",
    "haugazeau_rows",
    "Cap",
    "INSIDE_DHAT",
    "INSIDE_D_ONLY",
    "OUTSIDE",
    "cap_membership",
    "fejer_slack",
]

# Global geometric tolerance for feasibility / emptiness classification.
GEOM_TOL = 1e-10

INSIDE_DHAT = "inside_Dhat"
INSIDE_D_ONLY = "inside_D_only"
OUTSIDE = "outside"


class EmptyIntersectionError(RuntimeError):
    """The two cuts have empty intersection: the iteration left the admissible region."""


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """The set ``{h : <h, normal> <= offset}``, or a stack of such sets.

    A stack holds ``normal`` of shape ``(k, dim)`` and ``offset`` of shape
    ``(k,)``, one cut per row.  A zero normal is legal and denotes the whole
    space when ``offset >= 0`` and the empty set otherwise.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.array(self.normal, dtype=float)
        offset = np.array(self.offset, dtype=float)
        if n.ndim not in (1, 2) or n.shape[-1] == 0 or offset.shape != n.shape[:-1]:
            raise ValueError(
                f"a halfspace needs a normal of shape (dim,) or (k, dim) and an offset "
                f"of shape () or (k,), got {n.shape} and {offset.shape}"
            )
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(offset))):
            raise ValueError("halfspace normal and offset must be finite")
        n.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "normal", n)
        # a single cut keeps a scalar offset
        object.__setattr__(self, "offset", offset[()])

    @property
    def is_whole_space(self):
        return np.all(self.normal == 0.0, axis=-1) & (self.offset >= 0.0)

    @property
    def is_empty(self):
        return np.all(self.normal == 0.0, axis=-1) & (self.offset < 0.0)

    def violation(self, x):
        """Signed constraint value ``<x, normal> - offset`` (<= 0 means feasible).

        One value per row when ``x`` or the cut is a stack.
        """
        value = np.vecdot(x, self.normal) - self.offset
        return float(value) if value.ndim == 0 else value

    def contains(self, x, tol=GEOM_TOL):
        return self.violation(x) <= tol


def halfspace_of(z1, z2):
    """Halfspace ``{h : <h - z2, z1 - z2> <= 0}`` in normal/offset form.

    For ``z1 == z2`` this is the whole space, returned as the zero normal
    with zero offset.  Either point may be a ``(k, dim)`` stack; the result
    is then a stack of ``k`` cuts.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape[-1:] != z2.shape[-1:]:
        raise ValueError(f"dimension mismatch: {z1.shape[-1]} vs {z2.shape[-1]}")
    a = z1 - z2
    return HalfSpace(a, np.vecdot(z2, a))


def project_halfspace(hs, w):
    """Euclidean projection of ``w`` onto a nonempty halfspace.

    For a stack of cuts, or a stack of points ``w``, one projection per row.
    """
    if np.any(hs.is_empty):
        raise EmptyIntersectionError("cannot project onto an empty halfspace")
    return _project_cut(hs.normal, hs.offset, np.asarray(w, dtype=float))


def _project_cut(normal, offset, w):
    """Project ``w`` onto ``{h : <h, normal> <= offset}`` row by row; no emptiness test."""
    viol = np.vecdot(w, normal) - offset
    # the step is also evaluated where w is feasible, where the normal may vanish
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = (viol / np.vecdot(normal, normal))[..., None] * normal
    return np.where(viol[..., None] > 0.0, w - step, w)


def haugazeau_projection(w, b, c, return_case=False):
    """Project ``w`` onto ``H(w, b) & H(b, c)`` in closed form.

    With ``pi = <w-b, b-c>``, ``mu = ||w-b||^2``, ``nu = ||b-c||^2`` and
    ``rho = mu*nu - pi^2`` the four cases are

    * (i)   rho = 0 and pi >= 0:  the projection is ``c``;
    * (ii)  rho > 0 and pi*nu >= rho:  ``w + (1 + pi/nu) (c - b)``;
    * (iii) rho > 0 and pi*nu < rho:  ``b + (nu/rho) (pi (w-b) + mu (c-b))``;
    * (iv)  rho = 0 and pi < 0:  the intersection is empty.

    Degenerate pairs (``b == w`` or ``c == b``) make one cut the whole space
    and fall into case (i).  Case (iv) raises
    :class:`EmptyIntersectionError`: starting from an admissible point it
    cannot occur in exact arithmetic, so hitting it signals numerical
    breakdown and is never silently clamped.

    Parameters
    ----------
    w, b, c : array_like
        Equal-dimension points; ``w`` is the anchor being projected.
    return_case : bool, optional
        Also return the active case label ``"i" | "ii" | "iii"``.

    Returns
    -------
    ndarray, or (ndarray, str) when ``return_case`` is set.
    """
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (w.shape == b.shape == c.shape):
        raise ValueError("haugazeau projection requires equal dimensions")

    wb = w - b
    bc = b - c
    pi = float(wb @ bc)
    mu = float(wb @ wb)
    nu = float(bc @ bc)
    rho = mu * nu - pi * pi

    # rho >= 0 by Cauchy-Schwarz; rounding may leave a tiny signed residue.
    # Degenerate cuts (mu or nu zero) land here with pi = 0 exactly.
    if rho <= GEOM_TOL * mu * nu:
        if pi >= 0.0:
            out, case = c.copy(), "i"
        else:
            raise EmptyIntersectionError(
                "parallel opposing cuts: empty intersection (case iv)"
            )
    elif pi * nu >= rho:
        out, case = w + (1.0 + pi / nu) * (c - b), "ii"
    else:
        out, case = b + (nu / rho) * (pi * wb + mu * (c - b)), "iii"
    return (out, case) if return_case else out


def haugazeau_rows(w, b_rows, c_rows):
    """:func:`haugazeau_projection` of one anchor ``w`` for every row of ``b``, ``c``.

    The case is chosen per row, and every row equals the single-point
    result bit for bit.  A case (iv) row raises
    :class:`EmptyIntersectionError`.
    """
    wb = w - b_rows
    bc = b_rows - c_rows
    pi = np.vecdot(wb, bc)
    mu = np.vecdot(wb, wb)
    nu = np.vecdot(bc, bc)
    rho = mu * nu - pi * pi
    case_i = rho <= GEOM_TOL * mu * nu
    if np.any(case_i & (pi < 0.0)):
        raise EmptyIntersectionError("parallel opposing cuts: empty intersection (case iv)")
    case_ii = pi * nu >= rho
    cb = c_rows - b_rows
    # every case's formula is evaluated on every row, where it may divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out_ii = w + (1.0 + pi / nu)[:, None] * cb
        out_iii = b_rows + (nu / rho)[:, None] * (pi[:, None] * wb + mu[:, None] * cb)
    out = np.where(case_ii[:, None], out_ii, out_iii)
    return np.where(case_i[:, None], c_rows, out)


def project_onto_halfspaces(halfspaces, w):
    """Project ``w`` onto the intersection of at most two halfspaces.

    Used by the diagnostics for moving-set projections given as explicit
    cuts.  A whole-space cut is ignored; for two other cuts, candidates are
    enumerated over the active sets (none, one, both) and the closest
    feasible one wins.  When the cuts are stacks of ``k`` rows, ``w`` is
    projected onto each row's intersection and the result has ``k`` rows.
    """
    w = np.asarray(w, dtype=float)
    if len(halfspaces) > 2:
        raise ValueError("only intersections of at most two halfspaces are supported")
    if any(np.any(h.is_empty) for h in halfspaces):
        raise EmptyIntersectionError("an empty halfspace was supplied")
    if len(halfspaces) < 2:
        return project_halfspace(halfspaces[0], w) if halfspaces else w.copy()

    h1, h2 = halfspaces
    shape = np.broadcast_shapes(w.shape, h1.normal.shape, h2.normal.shape)
    dim, rows = shape[-1], shape[:-1]
    # one row axis, of length 1 when neither cut is a stack
    n1, n2 = (np.broadcast_to(h.normal, shape).reshape(-1, dim) for h in halfspaces)
    o1, o2 = (np.broadcast_to(h.offset, rows).reshape(-1) for h in halfspaces)
    whole = [np.broadcast_to(h.is_whole_space, rows).reshape(-1) for h in halfspaces]
    p1 = _project_cut(n1, o1, w)
    p2 = _project_cut(n2, o2, w)

    A = np.stack([n1, n2], axis=-2)
    gram = A @ A.mT
    limit = GEOM_TOL * (1.0 + float(np.linalg.norm(w)))
    # a normal whose square underflows degrades the Gram data and makes
    # candidates infinite; the NaN this leads to propagates
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        solvable = np.abs(np.linalg.det(gram)) > 1e-14 * np.maximum(
            gram[:, 0, 0] * gram[:, 1, 1], 1e-300
        )
        gram = np.where(solvable[:, None, None], gram, np.eye(2))
        rhs = A @ w - np.stack([o1, o2], axis=-1)
        lam = np.linalg.solve(gram, rhs[..., None])
        joint = w - (A.mT @ lam)[..., 0]
        candidates = np.stack([np.broadcast_to(w, p1.shape), p1, p2, joint], axis=1)
        feasible = (np.vecdot(candidates, n1[:, None]) - o1[:, None] <= limit) & (
            np.vecdot(candidates, n2[:, None]) - o2[:, None] <= limit
        )
    feasible[:, 3] &= solvable
    both = ~whole[0] & ~whole[1]
    if np.any(both & ~np.any(feasible, axis=1)):
        raise EmptyIntersectionError("no feasible candidate: empty intersection")
    diff = candidates - w
    dist = np.where(feasible, np.sqrt(np.vecdot(diff, diff)), np.inf)
    # the first closest candidate, as min() over the list [w, p1, p2, joint]
    best = candidates[np.arange(len(candidates)), np.argmin(dist, axis=1)]
    # a row with one active cut is projected onto it; with none, p2 is w
    single = np.where(whole[0][:, None], p2, p1)
    return np.where(both[:, None], best, single).reshape(shape)


@dataclass(frozen=True, eq=False)
class Cap:
    """Admissible region: the ball spanned by the anchor pair, minus a floor ball.

    ``D`` is the closed ball with diameter segment ``[w, z]`` (the largest
    closed convex set on which ``<z - x, w - x> <= 0`` holds), and the cap is
    ``D`` with the open ball of squared radius ``r`` around ``w`` removed.
    Requires ``0 < r < ||w - z||^2``.
    """

    w: np.ndarray
    z: np.ndarray
    r: float

    def __post_init__(self):
        w = as_vector(self.w)
        z = as_vector(self.z)
        if w.shape != z.shape:
            raise ValueError("cap anchor points must have equal dimension")
        gap = float(np.sum((w - z) ** 2))
        if not 0.0 < self.r < gap:
            raise ValueError(
                f"floor must satisfy 0 < r < ||w - z||^2 = {gap:.6g}, got r = {self.r}"
            )
        w.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "r", float(self.r))

    @property
    def dim(self):
        return self.w.shape[0]

    @property
    def center(self):
        return 0.5 * (self.w + self.z)

    @property
    def radius(self):
        return 0.5 * float(np.linalg.norm(self.w - self.z))


def cap_membership(cap, x):
    """Classify ``x`` against the cap.

    Returns :data:`INSIDE_DHAT` when both the ball test
    ``<z - x, w - x> <= GEOM_TOL`` and the floor test
    ``||x - w||^2 >= r - GEOM_TOL`` hold, :data:`INSIDE_D_ONLY` when only
    the ball test holds, and :data:`OUTSIDE` otherwise.
    """
    if float((cap.z - x) @ (cap.w - x)) > GEOM_TOL:
        return OUTSIDE
    if float(np.sum((x - cap.w) ** 2)) < cap.r - GEOM_TOL:
        return INSIDE_D_ONLY
    return INSIDE_DHAT


def fejer_slack(cap, x):
    """Slack ``||w-z||^2 - ||w-x||^2 - ||x-z||^2``, nonnegative on the ball.

    Equals ``-2 <z - x, w - x>``, so nonnegativity is exactly membership in
    the ball spanned by the anchor pair; every admissible iterate of the
    solver must keep it above a tiny negative rounding allowance.
    """
    x = as_vector(x)
    w, z = cap.w, cap.z
    return float(np.sum((w - z) ** 2) - np.sum((w - x) ** 2) - np.sum((x - z) ** 2))
