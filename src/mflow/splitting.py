"""Primal-dual coupling operator for the composed inclusion.

The target problem couples two maximally monotone operators through a linear
map: find a primal point ``p`` with ``0 in A p + L* B L p``, together with a
dual point ``v`` solving the attached dual inclusion.  Solution pairs
``(p, v)`` form the Kuhn-Tucker set

    Z = {(p, v) : -L* v in A p  and  L p in B^{-1} v},

which coincides with the fixed points of the operator built here: one
resolvent call on each block produces a separating halfspace for Z, and the
operator projects the current point onto it.
"""

import contextlib
import contextvars
import math
import os
import threading
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
    "S_STAR_TOL",
]

# Below this cut-normal size the current point is declared a fixed point;
# the projection formula would otherwise divide by a vanishing norm.
S_STAR_TOL = 1e-12

# Below about one core's L2 cache, a Kuhn-Tucker evaluation runs faster on one
# thread than with its dual chain handed to a second: the hand-off costs more
# than it saves.  Full solve steps on a 2-vCPU Xeon with 2 MiB of L2 per vCPU
# lost in every run up to 1.37 MiB of L, were mixed from 1.56 MiB, won in most
# runs from 1.87 MiB and in every run from 2.2 MiB on; 2 MiB sits above the
# crossover.
_OVERLAP_MIN_BYTES = 2 * 2**20


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


def _blas_threads():
    """Threads per BLAS product, read as OpenBLAS reads them; None when BLAS uses every core."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def _usable_cpus():
    """CPUs this process may run on; all of the host's where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _product_worker(L):
    """A one-thread server for :func:`_dual_chain`, or None where overlapping would not pay.

    It pays only for an ``L`` of at least ``_OVERLAP_MIN_BYTES``, with a
    second CPU for this process and BLAS on one thread per product; a
    multithreaded BLAS already spreads each product over the cores.  The
    server is a ``(jobs, results)`` pair of queues; each job is one dual
    chain, run in a copy of the submitter's context (so numpy's ``errstate``
    holds there too), and its result or exception comes back on
    ``results``.  On exit the thread is stopped and joined.
    """
    if not (
        L.matrix.nbytes >= _OVERLAP_MIN_BYTES
        and _usable_cpus() >= 2
        and _blas_threads() == 1
    ):
        yield None
        return
    # imported here: a plain import of mflow loads no queue module
    from queue import SimpleQueue

    jobs, results = SimpleQueue(), SimpleQueue()

    def serve():
        while (job := jobs.get()) is not None:
            context, args = job
            try:
                results.put((context.run(_dual_chain, *args), None))
            except BaseException as exc:  # raised again by the caller; none may leave it waiting
                results.put((None, exc))

    thread = threading.Thread(target=serve, name="mflow-L", daemon=True)
    thread.start()
    try:
        yield jobs, results
    finally:
        jobs.put(None)
        thread.join()


def _primal_chain(inst, p, v):
    """``L* v -> a = J_{gamma A}(p - gamma L* v) -> a* -> L a``; returns ``(a, a_star, L a)``."""
    L, gamma = inst.L, inst.gamma
    ua = p - gamma * L.adjoint(v)
    a = inst.A.resolvent(gamma, ua)
    a_star = (ua - a) / gamma
    return a, a_star, L.apply(a)


def _dual_chain(inst, p, v):
    """``L p -> b = J_{mu B}(L p + mu v) -> b* -> L* b*``; returns ``(b, b_star, L* b*)``."""
    L, mu = inst.L, inst.mu
    ub = L.apply(p) + mu * v
    b = inst.B.resolvent(mu, ub)
    b_star = (ub - b) / mu
    return b, b_star, L.adjoint(b_star)


def _kt_blocks(inst, p, v, worker=None):
    """Block resolvents and the separating cut at (p, v).

    ``p`` and ``v`` are one point's blocks, or stacks of them with one point
    per row; eta is then one level per row.  Returns the cut
    ``(s_flat, eta)``: with

        a = J_{gamma A}(p - gamma L* v),    b = J_{mu B}(L p + mu v),

    and their Yosida companions ``a_star``/``b_star``, the cut is
    ``s = (a_star + L* b_star, b - L a)`` with level ``eta = <a, a_star> +
    <b, b_star>``.  The two blocks are independent until the cut: with a
    ``worker`` of :func:`_product_worker`, :func:`_dual_chain` runs on it
    while this thread runs :func:`_primal_chain`.  Each chain makes the same
    calls on the same data on either thread, so the bits do not depend on
    the worker.
    """
    if worker is None:
        a, a_star, la = _primal_chain(inst, p, v)
        b, b_star, ltb_star = _dual_chain(inst, p, v)
    else:
        jobs, results = worker
        jobs.put((contextvars.copy_context(), (inst, p, v)))
        try:
            a, a_star, la = _primal_chain(inst, p, v)
        finally:
            # collected even when the primal chain raises, so that no result is left behind
            dual, exc = results.get()
        if exc is not None:
            raise exc
        b, b_star, ltb_star = dual
    s_flat = np.concatenate([a_star + ltb_star, b - la], axis=-1)
    if p.ndim == 1:
        # @, not .dot as on flat vectors: a block may have one element (see LinearMap.apply)
        eta = float(a @ a_star + b @ b_star)
    else:
        eta = np.vecdot(a, a_star) + np.vecdot(b, b_star)
    return s_flat, eta


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


def kt_apply_flat(inst, x_flat, *, worker=None):
    """Coupling-operator evaluation on a flat vector, with its residual.

    Used by the iteration loops.  Returns ``(tx_flat, residual)`` with
    residual ``||Tx - x||``; an unmoved point comes back as ``x`` itself.
    ``worker`` is one of :func:`_product_worker`, or None; it moves no bit.
    """
    n = inst.dim_p
    s_flat, eta = _kt_blocks(inst, x_flat[:n], x_flat[n:], worker)
    return _cut_projection(x_flat, s_flat, eta)


def kt_apply_rows(inst, x_rows):
    """:func:`kt_apply_flat` on a ``(k, dim)`` stack of points, one per row.

    Returns ``(tx_rows, residuals)``; every row equals the single-point
    result bit for bit, and rows with no cut keep ``x`` exactly.
    """
    n = inst.dim_p
    s_rows, eta = _kt_blocks(inst, x_rows[:, :n], x_rows[:, n:])
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
