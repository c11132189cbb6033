"""Validation of input vectors and the primal-dual product space.

Everything downstream works with plain 1-D float64 arrays.  They are
validated by :func:`as_vector` once, where they enter: when a value type is
built, when the CLI or the config layer parses them, or when a public
single-vector entry receives them.  Step functions do arithmetic only and
propagate NaN; the loops check finiteness.  The product space (primal block
of dimension n, dual block of dimension m) is carried by :class:`PDPoint`,
which flattens to a single vector of dimension n + m.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["as_vector", "PDPoint"]


def as_vector(x):
    """Coerce ``x`` to a 1-D float64 array, rejecting NaN/Inf entries."""
    v = np.array(x, dtype=float, copy=True)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("vectors must have dimension >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@dataclass(frozen=True, eq=False)
class PDPoint:
    """A point x = (p, v) of the product space: primal block p, dual block v.

    The product inner product is the sum of the blockwise inner products,
    so flattening to a single vector of dimension ``len(p) + len(v)`` is
    isometric.  Instances are immutable; the stored arrays are read-only.
    """

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        p = as_vector(self.p)
        v = as_vector(self.v)
        p.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v)

    @property
    def dim_p(self):
        return self.p.shape[0]

    @property
    def dim_v(self):
        return self.v.shape[0]

    @property
    def flat(self):
        """The point as one vector of dimension ``dim_p + dim_v``."""
        return np.concatenate([self.p, self.v])

    @classmethod
    def from_flat(cls, flat, dim_p):
        """Split a flat vector into primal/dual blocks (inverse of ``flat``)."""
        flat = np.asarray(flat, dtype=float)
        if not 0 < dim_p < flat.size:
            raise ValueError(f"dim_p={dim_p} incompatible with flat dim {flat.size}")
        return cls(flat[:dim_p], flat[dim_p:])

    @classmethod
    def from_json_dict(cls, doc):
        return cls(doc["p"], doc["v"])

    def __repr__(self):
        return f"PDPoint(p={self.p.tolist()}, v={self.v.tolist()})"
