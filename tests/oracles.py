"""Independent reference computations used to check the library.

These deliberately avoid the library's own code paths: the projection onto
a polyhedron enumerates KKT candidates over active sets; the cut data is
rebuilt from first principles; the graph of each catalog operator is
written out from its definition, not from its resolvent.  The fixed-point
maps below are written from an operator's resolvent alone, and the Euler
defect from the nodes alone.
"""

import itertools
import math

import numpy as np

# relative feasibility slack of the candidates that stay in the set up to rounding
ROUNDING = 1e-12


def cut_normals(w, b, c):
    """Normals/offsets of the two cuts anchored at (w, b, c).

    The first cut keeps ``<h - b, w - b> <= 0``; the second keeps
    ``<h - c, b - c> <= 0``.
    """
    w = np.asarray(w, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    a1 = w - b
    a2 = b - c
    return [a1, a2], [float(b @ a1), float(c @ a2)]


def cut(z1, z2):
    """``H(z1, z2) = {h : <h - z2, z1 - z2> <= 0}`` as the pair ``(z1 - z2, <z2, z1 - z2>)``.

    Either point may be a ``(k, dim)`` stack; the pair is then a stack of ``k`` cuts.
    """
    z2 = np.asarray(z2, float)
    a = np.asarray(z1, float) - z2
    return a, np.vecdot(z2, a)


def fejer_slack(w, z, x):
    """Spanned-ball slack ``||w - z||^2 - ||w - x||^2 - ||x - z||^2``, nonnegative on the ball."""
    w, z, x = (np.asarray(v, float) for v in (w, z, x))
    return float(np.sum((w - z) ** 2) - np.sum((w - x) ** 2) - np.sum((x - z) ** 2))


def project_polyhedron(w, normals, offsets, tol=1e-9):
    """Projection of ``w`` onto ``{h : <h, a_i> <= beta_i}`` by active-set enumeration.

    Each constraint is first scaled by its largest normal entry and then
    normalised to a unit normal, so that the independence and feasibility
    tests are scale-free; only a zero normal is dropped.  Candidates: for
    every set of constraints with independent normals, the KKT point with
    exactly that set active (a Gram solve; the empty set gives ``w``
    itself).  A candidate ``h`` is feasible at slack ``s`` when it violates no
    constraint by more than the distance ``s * (1 + ||w|| + ||h|| + |beta_i|)``:
    the Gram solve's rounding grows with the candidate's own norm, so a corner
    far from ``w`` is held to the same relative slack as one near it.  The
    projection is the closest candidate feasible at rounding level
    (``s = min(tol, ROUNDING)``), or, when there is none, the closest feasible
    at ``s = tol``: a candidate that leaves the set by more than rounding
    (a near-parallel constraint's projection can be closer than the true one
    and out by 4e-10) does not beat one that stays in it.  Returns None when
    nothing is feasible at ``tol``.  The enumeration is exponential in the
    number of constraints, so it suits small cases only.
    """
    w = np.asarray(w, float)
    live = []
    for a, beta in zip(normals, offsets):
        a = np.asarray(a, float)
        peak = float(np.max(np.abs(a)))
        if peak == 0.0:
            continue
        # by the peak first, so that the norm neither underflows nor overflows
        a, beta = a / peak, float(beta) / peak
        norm = float(np.linalg.norm(a))
        live.append((a / norm, beta / norm))
    candidates = [w.copy()]
    for k in range(1, min(len(live), len(w)) + 1):
        for active in itertools.combinations(live, k):
            A = np.array([a for a, _ in active])
            beta = np.array([b for _, b in active])
            gram = A @ A.T
            # a dependent set's KKT point, where there is one, is also an independent set's
            if abs(np.linalg.det(gram)) > 1e-13:
                candidates.append(w - A.T @ np.linalg.solve(gram, A @ w - beta))

    # per row, so that one far constraint's offset does not loosen the test of the others
    w_norm = 1.0 + float(np.linalg.norm(w))
    for slack in (min(tol, ROUNDING), tol):
        feasible = []
        for h in candidates:
            # ||h|| without squaring, which overflows at the far corners of tiny normals
            scale = w_norm + float(np.hypot.reduce(h))
            if all(float(h @ a) <= beta + slack * (scale + abs(beta)) for a, beta in live):
                feasible.append(h)
        if feasible:
            return min(feasible, key=lambda h: float(np.linalg.norm(h - w)))
    return None


def two_cut_projection_oracle(w, b, c, tol=1e-9):
    """Reference value for the projection of ``w`` onto the two cuts at (b, c)."""
    normals, offsets = cut_normals(w, b, c)
    return project_polyhedron(w, normals, offsets, tol=tol)


def _quadratic_graph(op, x, y, tol):
    # A x = x - b
    return bool(np.max(np.abs(y - (x - op.b))) <= tol)


def _l1_graph(op, x, y, tol):
    # the subdifferential of weight * |.| per coordinate: weight * sign(x)
    # off zero, and [-weight, weight] at zero
    off_zero = np.abs(x) > tol
    return bool(
        np.all(np.abs(y[off_zero] - op.weight * np.sign(x[off_zero])) <= tol)
        and np.all(np.abs(y[~off_zero]) <= op.weight + tol)
    )


def _box_graph(op, x, y, tol):
    # x in the box; per coordinate, y_i > 0 only at the upper bound and y_i < 0
    # only at the lower one
    inside = np.all(x >= op.lower - tol) and np.all(x <= op.upper + tol)
    outward = np.all((y <= tol) | (x >= op.upper - tol))
    inward = np.all((y >= -tol) | (x <= op.lower + tol))
    return bool(inside and outward and inward)


def _ball_graph(op, x, y, tol):
    # x in the ball; y = 0, or x on the sphere and y a nonnegative multiple of x - center
    d = x - op.center
    dist, ny = np.linalg.norm(d), np.linalg.norm(y)
    if dist > op.radius + tol:
        return False
    if ny <= tol:
        return True
    on_sphere = dist >= op.radius - tol
    return bool(on_sphere and np.linalg.norm(y - (ny / dist) * d) <= tol * (1.0 + ny))


def _zero_graph(op, x, y, tol):
    return bool(np.max(np.abs(y)) <= tol)


def _linear_graph(op, x, y, tol):
    # A x = M x
    return bool(np.max(np.abs(y - op.matrix @ x)) <= tol * (1.0 + np.abs(x).max()))


_GRAPHS = {
    "Quadratic": _quadratic_graph,
    "L1": _l1_graph,
    "BoxNormalCone": _box_graph,
    "BallNormalCone": _ball_graph,
    "Zero": _zero_graph,
    "LinearMonotone": _linear_graph,
}


def in_graph(op, x, y, tol=1e-8):
    """Whether ``y`` lies in ``A(x)`` up to ``tol``, for a catalog operator ``op``.

    Each graph reads only the operator's parameters (``b``, ``weight``,
    ``lower``/``upper``, ``center``/``radius``, ``matrix``).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return _GRAPHS[type(op).__name__](op, x, y, tol)


def resolvent_map(op, gamma=1.0):
    """``x -> J_{gamma A}(x)``; for a normal cone, the projection onto its set."""
    return lambda x: op.resolvent(gamma, x)


def forward_backward(op, forward, gamma):
    """The averaged forward-backward map ``x -> (x + J_{gamma A}(x - gamma B x)) / 2``.

    ``forward`` is ``B``, single-valued; the map's fixed points solve
    ``0 in A x + B x``.
    """

    def averaged(x):
        x = np.asarray(x, float)
        return 0.5 * (x + op.resolvent(gamma, x - gamma * np.asarray(forward(x), float)))

    return averaged


def euler_defect(F, nodes, lam, t):
    """Slope minus field of the Euler interpolant at time ``t``.

    That is ``(c_{k+1} - c_k) / lam - F(c(t))`` with ``k = floor(t / lam)``
    (the last segment at the final time), ``c(t)`` the chord's point at ``t``.
    """
    nodes = np.asarray(nodes, float)
    s = t / lam
    k = min(math.floor(s), len(nodes) - 2)
    chord = nodes[k + 1] - nodes[k]
    return chord / lam - np.asarray(F(nodes[k] + (s - k) * chord), float)
