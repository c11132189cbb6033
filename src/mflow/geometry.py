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
    """The set ``{h : <h, normal> <= offset}``.

    A zero normal is legal and denotes the whole space when ``offset >= 0``
    and the empty set otherwise.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_vector(self.normal)
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def is_whole_space(self):
        return bool(np.all(self.normal == 0.0) and self.offset >= 0.0)

    @property
    def is_empty(self):
        return bool(np.all(self.normal == 0.0) and self.offset < 0.0)

    def violation(self, x):
        """Signed constraint value ``<x, normal> - offset`` (<= 0 means feasible)."""
        return float(x @ self.normal - self.offset)

    def contains(self, x, tol=GEOM_TOL):
        return self.violation(x) <= tol


def halfspace_of(z1, z2):
    """Halfspace ``{h : <h - z2, z1 - z2> <= 0}`` in normal/offset form.

    For ``z1 == z2`` this is the whole space, returned as the zero normal
    with zero offset.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != z2.shape:
        raise ValueError(f"dimension mismatch: {z1.shape[0]} vs {z2.shape[0]}")
    a = z1 - z2
    return HalfSpace(a, float(z2 @ a))


def project_halfspace(hs, w):
    """Euclidean projection of ``w`` onto a nonempty halfspace."""
    if hs.is_empty:
        raise EmptyIntersectionError("cannot project onto an empty halfspace")
    w = np.array(w, dtype=float)
    viol = w @ hs.normal - hs.offset
    if viol <= 0.0:
        return w
    return w - (viol / float(hs.normal @ hs.normal)) * hs.normal


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


def project_onto_halfspaces(halfspaces, w):
    """Project ``w`` onto the intersection of at most two halfspaces.

    Used by the diagnostics for moving-set projections given as explicit
    cuts.  Candidates are enumerated over the active sets (none, one, both)
    and the closest feasible one wins.
    """
    w = np.asarray(w, dtype=float)
    hs = [h for h in halfspaces if not h.is_whole_space]
    if any(h.is_empty for h in hs):
        raise EmptyIntersectionError("an empty halfspace was supplied")
    if len(hs) > 2:
        raise ValueError("only intersections of at most two halfspaces are supported")
    if not hs:
        return w.copy()
    if len(hs) == 1:
        return project_halfspace(hs[0], w)

    h1, h2 = hs
    candidates = [w.copy(), project_halfspace(h1, w), project_halfspace(h2, w)]
    A = np.vstack([h1.normal, h2.normal])
    beta = np.array([h1.offset, h2.offset])
    gram = A @ A.T
    if abs(np.linalg.det(gram)) > 1e-14 * max(gram[0, 0] * gram[1, 1], 1e-300):
        lam = np.linalg.solve(gram, A @ w - beta)
        candidates.append(w - A.T @ lam)

    scale = 1.0 + float(np.linalg.norm(w))
    feasible = [
        x
        for x in candidates
        if h1.violation(x) <= GEOM_TOL * scale and h2.violation(x) <= GEOM_TOL * scale
    ]
    if not feasible:
        raise EmptyIntersectionError("no feasible candidate: empty intersection")
    return min(feasible, key=lambda x: float(np.linalg.norm(x - w)))


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
