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
    "project_onto_halfspaces",
    "haugazeau_projection",
    "haugazeau_rows",
    "Cap",
    "cap_membership",
]

# Global geometric tolerance for feasibility / emptiness classification.
GEOM_TOL = 1e-10


class EmptyIntersectionError(RuntimeError):
    """The two cuts have empty intersection: the iteration left the admissible region."""


def _project_cut(normal, offset, w):
    """Project ``w`` onto ``{h : <h, normal> <= offset}`` row by row; no emptiness test."""
    # scale each cut by the power of two that brings its largest entry into
    # [0.5, 1): exact, and ||normal||^2 then neither underflows nor overflows
    _, exp = np.frexp(np.max(np.abs(normal), axis=-1))
    normal = np.ldexp(normal, -exp[..., None])
    # a huge offset over a tiny normal becomes infinite, which still decides the side
    with np.errstate(over="ignore"):
        offset = np.ldexp(offset, -exp)
    viol = np.vecdot(w, normal) - offset
    # the step is also evaluated where w is feasible, where the normal may vanish
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = (viol / np.vecdot(normal, normal))[..., None] * normal
    return np.where(viol[..., None] > 0.0, w - step, w)


def _centred(wb, bc):
    """``wb`` and ``bc`` times one power of two per row that brings ``||wb|| ||bc||`` near 1.

    The scaling is exact.  The case tests of the two-cut projection do not
    see it, and its formulas, which multiply the scaled Gram data into the
    unscaled differences, keep their value.
    """
    # frexp exponents of the largest entries; a zero or non-finite row gives 0
    _, e_wb = np.frexp(np.max(np.abs(wb), axis=-1))
    _, e_bc = np.frexp(np.max(np.abs(bc), axis=-1))
    shift = (-((e_wb + e_bc) // 2))[..., None]
    return np.ldexp(wb, shift), np.ldexp(bc, shift)


def haugazeau_projection(w, b, c, return_case=False):
    """Project ``w`` onto ``H(w, b) & H(b, c)`` in closed form.

    With ``pi = <w-b, b-c>``, ``mu = ||w-b||^2``, ``nu = ||b-c||^2`` and
    ``rho = mu*nu - pi^2`` the four cases are

    * (i)   rho = 0 and pi >= 0:  the projection is ``c``;
    * (ii)  rho > 0 and pi*nu >= rho:  ``w + (1 + pi/nu) (c - b)``;
    * (iii) rho > 0 and pi*nu < rho:  ``b + (nu/rho) (pi (w-b) + mu (c-b))``;
    * (iv)  rho = 0 and pi < 0:  the intersection is empty.

    Degenerate pairs (``b == w`` or ``c == b``) make one cut the whole space
    and fall into case (i).  ``mu`` or ``nu`` outside (1e-120, 1e120) is
    recomputed with ``pi`` from the differences scaled by a power of two
    (exact), so that no Gram product under- or overflows; an overflowing
    entry still raises numpy's overflow warning first.  Case (iv) raises
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
    pi = float(wb.dot(bc))
    mu = float(wb.dot(wb))
    nu = float(bc.dot(bc))
    if not (1e-120 < mu < 1e120 and 1e-120 < nu < 1e120):
        wb_s, bc_s = _centred(wb, bc)
        pi, mu, nu = float(wb_s.dot(bc_s)), float(wb_s.dot(wb_s)), float(bc_s.dot(bc_s))
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
        # -bc is c - b exactly
        out, case = w - (1.0 + pi / nu) * bc, "ii"
    else:
        out, case = b + (nu / rho) * (pi * wb - mu * bc), "iii"
    return (out, case) if return_case else out


def haugazeau_rows(w, b_rows, c_rows):
    """:func:`haugazeau_projection` of ``w`` for every row of ``b``, ``c``.

    ``w`` is one anchor shared by every row, or one anchor per row.  The
    case is chosen per row, and every row equals the single-point result
    bit for bit.  A case (iv) row raises :class:`EmptyIntersectionError`.
    """
    wb = w - b_rows
    bc = b_rows - c_rows
    pi = np.vecdot(wb, bc)
    mu = np.vecdot(wb, wb)
    nu = np.vecdot(bc, bc)
    # the range of haugazeau_projection; negated, so that a NaN row is rescaled too
    far = ~((1e-120 < mu) & (mu < 1e120) & (1e-120 < nu) & (nu < 1e120))
    if np.any(far):
        wb_s, bc_s = _centred(wb[far], bc[far])
        pi[far], mu[far], nu[far] = (
            np.vecdot(wb_s, bc_s), np.vecdot(wb_s, wb_s), np.vecdot(bc_s, bc_s)
        )
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


def _checked_cut(normal, offset):
    """The cut ``(normal, offset)`` as float arrays, of matching shapes and finite."""
    normal = np.asarray(normal, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if normal.ndim not in (1, 2) or normal.shape[-1] == 0 or offset.shape != normal.shape[:-1]:
        raise ValueError(
            f"a halfspace needs a normal of shape (dim,) or (k, dim) and an offset "
            f"of shape () or (k,), got {normal.shape} and {offset.shape}"
        )
    if not (np.all(np.isfinite(normal)) and np.all(np.isfinite(offset))):
        raise ValueError("halfspace normal and offset must be finite")
    return normal, offset


def project_onto_halfspaces(halfspaces, w):
    """Project ``w`` onto the intersection of at most two halfspaces.

    Each halfspace is a pair ``(normal, offset)``, the set ``{h : <h, normal> <= offset}``,
    or a stack of ``k`` such cuts: ``normal`` of shape ``(dim,)`` or ``(k, dim)``
    and ``offset`` a scalar or of shape ``(k,)``.  A zero normal with a negative
    offset is empty and raises :class:`EmptyIntersectionError`.  ``H(z1, z2)`` is
    the pair ``(z1 - z2, <z2, z1 - z2>)``.

    Two cuts reduce to the two-cut projection (Haugazeau): ``b`` projects
    ``w`` onto the cut it violates most; when ``b`` violates the other cut,
    ``c`` projects ``b`` onto it, and ``H(w, b) & H(b, c)`` are then the two
    given cuts, so the projection is :func:`haugazeau_rows` of ``(w, b, c)``.
    Near-parallel opposing cuts raise :class:`EmptyIntersectionError` as its
    case (iv) does.  When the cuts are stacks of ``k`` rows, ``w`` is
    projected onto each row's intersection and the result has ``k`` rows.
    """
    w = np.asarray(w, dtype=float)
    cuts = [_checked_cut(normal, offset) for normal, offset in halfspaces]
    if len(cuts) > 2:
        raise ValueError("only intersections of at most two halfspaces are supported")
    if any(np.any(np.all(n == 0.0, axis=-1) & (o < 0.0)) for n, o in cuts):
        raise EmptyIntersectionError("an empty halfspace was supplied")
    if not cuts:
        return w.copy()
    if len(cuts) == 1:
        return _project_cut(*cuts[0], w)

    shape = np.broadcast_shapes(w.shape, *(n.shape for n, _ in cuts))
    dim, rows = shape[-1], shape[:-1]
    # one row axis, of length 1 when neither the cuts nor w are stacks
    w = np.broadcast_to(w, shape).reshape(-1, dim)
    n1, n2 = (np.broadcast_to(n, shape).reshape(-1, dim) for n, _ in cuts)
    o1, o2 = (np.broadcast_to(o, rows).reshape(-1) for _, o in cuts)
    p1, p2 = _project_cut(n1, o1, w), _project_cut(n2, o2, w)
    # start with the cut w violates most: a longer step w - b keeps the
    # direction of that cut's normal through rounding
    first = np.vecdot(p1 - w, p1 - w) >= np.vecdot(p2 - w, p2 - w)
    b = np.where(first[:, None], p1, p2)
    c = _project_cut(np.where(first[:, None], n2, n1), np.where(first, o2, o1), b)
    need = np.any(c != b, axis=-1)
    if np.any(need):
        b[need] = haugazeau_rows(w[need], b[need], c[need])
    return b.reshape(shape)


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
        with np.errstate(over="ignore"):  # an overflow is reported below
            gap = float(np.sum((w - z) ** 2))
        if gap == np.inf:
            raise ValueError("||w - z||^2 of the cap's anchor pair overflows")
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
        # halves first, so that a cap near the top of the float range has a finite center
        return 0.5 * self.w + 0.5 * self.z

    @property
    def radius(self):
        return 0.5 * float(np.linalg.norm(self.w - self.z))


def cap_membership(cap, x):
    """Test ``x``, one point or a ``(k, dim)`` stack of them, against the cap.

    Returns ``(ball, floor)``: the ball test ``<z - x, w - x> <= GEOM_TOL``
    and the floor test ``||w - x||^2 >= r - GEOM_TOL``, two bools for one
    point and two masks, one entry per row, for a stack.  ``x`` is in the cap
    where both hold.  Each row's dot products are row vecdots, which equal the
    ``.dot`` of that row alone bit for bit, so every row gets the one-point
    result.  Both tests are comparisons that a NaN fails.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            to_w = cap.w - x
            ball = np.vecdot(cap.z - x, to_w) <= GEOM_TOL
            return ball, np.vecdot(to_w, to_w) >= cap.r - GEOM_TOL
    to_w = cap.w - x
    return float((cap.z - x).dot(to_w)) <= GEOM_TOL, float(to_w.dot(to_w)) >= cap.r - GEOM_TOL
