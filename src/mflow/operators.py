"""Maximally monotone operators exposed through resolvents, and linear maps with adjoints.

Operators are never materialized as set-valued graphs.  The contract is the
resolvent ``J(gamma, x)``, the unique ``y`` with ``(x - y)/gamma`` in ``A(y)``,
i.e. the standard ``(Id + gamma A)^{-1}``.  The Yosida approximation
``(x - J(gamma, x)) / gamma`` is derived from it and pairs with the resolvent
output as a graph point of ``A``.

Resolvents and linear maps take one point (a 1-D array) or a stack of
points (a ``(k, dim)`` array, one point per row) and map each row as they
map a single point, bit for bit.
"""

import numpy as np

from .space import as_vector

__all__ = [
    "MonotoneOperator",
    "Quadratic",
    "L1",
    "BoxNormalCone",
    "BallNormalCone",
    "Zero",
    "LinearMonotone",
    "LinearMap",
    "operator_from_config",
]


def _as_matrix(matrix):
    """A read-only 2-D float64 array of ``matrix``, rejecting NaN/Inf entries.

    An aligned, C- or F-contiguous float64 array is viewed, not copied; other
    input is copied as ``np.array(matrix, dtype=float)`` lays it out, so a
    product dispatches to the same BLAS routine either way.
    """
    flags = matrix.flags if isinstance(matrix, np.ndarray) else None
    if flags is not None and matrix.dtype == np.float64 and flags.aligned and flags.forc:
        M = matrix.view(np.ndarray)
    else:
        M = np.array(matrix, dtype=float)
    M.setflags(write=False)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _check_gamma(gamma):
    if not gamma > 0:
        raise ValueError(f"resolvent step must be positive, got {gamma}")


class MonotoneOperator:
    """Base contract for a maximally monotone operator.

    Subclasses implement ``resolvent(gamma, x)``.  ``dim`` is the operator's
    ambient dimension, or None for dimension-agnostic operators (separable
    per coordinate).  ``member(x, y)`` tests ``y in A(x)`` where an exact
    graph test exists and raises NotImplementedError otherwise.
    """

    dim = None

    def resolvent(self, gamma, x):
        raise NotImplementedError

    def yosida(self, gamma, x):
        """Single-valued approximation ``(x - resolvent(gamma, x)) / gamma``."""
        _check_gamma(gamma)
        x = as_vector(x)
        return (x - self.resolvent(gamma, x)) / gamma

    def member(self, x, y, tol=1e-8):
        raise NotImplementedError(f"{type(self).__name__} has no graph test")


class Quadratic(MonotoneOperator):
    """Gradient of half the squared distance to ``b``: ``A(x) = x - b``."""

    def __init__(self, b):
        self.b = as_vector(b)
        self.b.setflags(write=False)
        self.dim = self.b.shape[0]

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return (x + gamma * self.b) / (1.0 + gamma)

    def member(self, x, y, tol=1e-8):
        return bool(np.max(np.abs(as_vector(y) - (as_vector(x) - self.b))) <= tol)


class L1(MonotoneOperator):
    """Subdifferential of ``weight * ||.||_1``; resolvent is soft thresholding."""

    def __init__(self, weight=1.0):
        if weight <= 0:
            raise ValueError(f"l1 weight must be positive, got {weight}")
        self.weight = float(weight)

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        t = gamma * self.weight
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    def member(self, x, y, tol=1e-8):
        x = as_vector(x)
        y = as_vector(y)
        pos = (x > tol) & (np.abs(y - self.weight) <= tol)
        neg = (x < -tol) & (np.abs(y + self.weight) <= tol)
        zero = (np.abs(x) <= tol) & (np.abs(y) <= self.weight + tol)
        return bool(np.all(pos | neg | zero))


class BoxNormalCone(MonotoneOperator):
    """Normal cone of the box ``[lower, upper]``; resolvent clamps."""

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper)
        if self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must have equal dimension")
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bound exceeds upper bound")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)
        self.dim = self.lower.shape[0]

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        # comparisons, not np.clip: its min/max may return either signed zero
        # at a zero bound, differently for a row than for a single point
        x = np.asarray(x, dtype=float)
        below_upper = np.where(x > self.upper, self.upper, x)
        return np.where(x < self.lower, self.lower, below_upper)

    def member(self, x, y, tol=1e-8):
        x = as_vector(x)
        y = as_vector(y)
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        at_lower = x <= self.lower + tol
        at_upper = x >= self.upper - tol
        ok = np.full(x.shape, True)
        ok &= np.where(at_upper, True, y <= tol)
        ok &= np.where(at_lower, True, y >= -tol)
        return bool(np.all(ok))


class BallNormalCone(MonotoneOperator):
    """Normal cone of the closed ball ``B(center, radius)``; resolvent projects radially."""

    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        self.center = as_vector(center)
        self.center.setflags(write=False)
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        x = np.asarray(x, dtype=float)
        d = x - self.center
        dist = np.sqrt(np.vecdot(d, d))[..., None]
        # the radial formula is also evaluated on rows inside the ball
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(dist <= self.radius, x, self.center + (self.radius / dist) * d)

    def member(self, x, y, tol=1e-8):
        x = as_vector(x)
        y = as_vector(y)
        d = x - self.center
        dist = np.linalg.norm(d)
        if dist > self.radius + tol:
            return False
        ny = np.linalg.norm(y)
        if ny <= tol:
            return True
        # nonzero normals exist only on the boundary, pointing outward
        if dist < self.radius - tol:
            return False
        return bool(np.linalg.norm(y - (ny / dist) * d) <= tol * (1.0 + ny))


class Zero(MonotoneOperator):
    """The zero operator; its resolvent is the identity."""

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        return np.array(x, dtype=float)

    def member(self, x, y, tol=1e-8):
        return bool(np.max(np.abs(as_vector(y))) <= tol)


class LinearMonotone(MonotoneOperator):
    """Linear operator ``x -> M x`` with positive semidefinite symmetric part.

    The resolvent solves the dense system ``(I + gamma M) y = x``.  Like
    :class:`LinearMap`, it keeps a read-only view of a float64 contiguous
    ``matrix`` rather than a copy.
    """

    def __init__(self, matrix):
        M = _as_matrix(matrix)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        sym = 0.5 * (M + M.T)
        lam_min = float(np.linalg.eigvalsh(sym).min())
        if lam_min < -1e-10 * max(1.0, float(np.abs(M).max())):
            raise ValueError(f"matrix is not monotone (symmetric part eigmin {lam_min:.3e})")
        self.matrix = M
        self.dim = M.shape[0]

    def resolvent(self, gamma, x):
        _check_gamma(gamma)
        K = np.eye(self.dim) + gamma * self.matrix
        return np.linalg.solve(K, np.asarray(x, dtype=float)[..., None])[..., 0]

    def member(self, x, y, tol=1e-8):
        x = as_vector(x)
        y = as_vector(y)
        return bool(np.max(np.abs(y - self.matrix @ x)) <= tol * (1.0 + np.abs(x).max()))


class LinearMap:
    """Dense linear map with its adjoint (the transpose).

    A float64 C- or F-contiguous ``matrix`` is not copied: the map keeps a
    read-only view of it, so the caller must not write to that array
    afterwards (the array's own flags are left as they were).  Any other
    input is copied to float64.
    """

    def __init__(self, matrix):
        self.matrix = _as_matrix(matrix)
        self._transpose = self.matrix.T

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, x):
        x = np.asarray(x)
        if x.ndim == 1:
            # .dot is @ without the gufunc dispatch, but keeps a one-element -0.0 product
            return self.matrix.dot(x) if x.size > 1 else self.matrix @ x
        return np.matmul(self.matrix, x[..., None])[..., 0]

    def adjoint(self, y):
        y = np.asarray(y)
        if y.ndim == 1:
            return self._transpose.dot(y) if y.size > 1 else self._transpose @ y
        return np.matmul(self._transpose, y[..., None])[..., 0]


# operator constructors keyed by config tag
_TAGS = {
    "quadratic": Quadratic,
    "l1": L1,
    "box": BoxNormalCone,
    "ball": BallNormalCone,
    "zero": Zero,
    "linear_psd": LinearMonotone,
}


def operator_from_config(doc):
    """Build an operator from ``{"tag": ..., <params>}`` as used in JSON configs."""
    if not isinstance(doc, dict) or "tag" not in doc:
        raise ValueError(f"operator config must be an object with a 'tag', got {doc!r}")
    params = {k: v for k, v in doc.items() if k != "tag"}
    tag = doc["tag"]
    if tag not in _TAGS:
        raise ValueError(f"unknown operator tag {tag!r}; known: {sorted(_TAGS)}")
    try:
        return _TAGS[tag](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for operator {tag!r}: {exc}") from exc
