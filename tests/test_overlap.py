"""The two blocks of a Kuhn-Tucker evaluation run on two threads without moving a bit.

``solve`` hands each evaluation's dual chain (``L p``, ``B``'s resolvent,
``L* b*``) to one worker thread while it runs the primal chain (``L* v``,
``A``'s resolvent, ``L a``) itself, when ``L`` is large, a second CPU is there
and BLAS runs one thread per product.  The tests force each path and compare;
run under ``OPENBLAS_NUM_THREADS=1``, the wide-solve test also sees the rule
itself take the overlapped path, and under ``taskset -c 0`` the rule's
one-CPU branch.

The forced overlaps use ``L`` of fewer than 9,216 entries, below which a default
OpenBLAS computes a matrix-vector product on one thread whatever its thread
setting, so that the products are the same calls on either path.
"""

import dataclasses
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from mflow import (
    L1,
    LinearMap,
    NonFiniteError,
    PDPoint,
    ProblemInstance,
    Quadratic,
    get_instance,
    quadratic_instance,
    solve,
)
from mflow import splitting

NO_STOP = 1e-300
WORKER = "mflow-L"


def force(monkeypatch, overlap):
    """Make ``solve`` take the overlapped path, or the serial one, whatever the host."""
    monkeypatch.setattr(splitting, "_OVERLAP_MIN_BYTES", 0 if overlap else np.inf)
    monkeypatch.setattr(splitting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(splitting, "_blas_threads", lambda: 1)


def spy_workers(monkeypatch):
    """Record, per Kuhn-Tucker evaluation, whether its dual chain ran on the worker thread."""
    on_worker = []
    dual_chain = splitting._dual_chain

    def spy(inst, p, v):
        on_worker.append(threading.current_thread().name == WORKER)
        return dual_chain(inst, p, v)

    monkeypatch.setattr(splitting, "_dual_chain", spy)
    return on_worker


def run(inst, max_iter=40, z=None):
    return solve(inst, max_iter=max_iter, tol_residual=NO_STOP, tol_step=NO_STOP, z=z)


def records(traj):
    return [traj.points, traj.residual, traj.norm_to_w, traj.fejer_slack, traj.step_norm]


def assert_paths_bitwise_equal(monkeypatch, inst, z=None):
    runs = {}
    for overlap in (False, True):
        with monkeypatch.context() as m:
            force(m, overlap)
            on_worker = spy_workers(m)
            runs[overlap] = run(inst, z=z)
            assert set(on_worker) == {overlap}
    for serial, overlapped in zip(records(runs[False]), records(runs[True])):
        assert overlapped.tobytes() == serial.tobytes()


def small_matrix(layout, rng, m=40, n=90):
    L = rng.standard_normal((m, n)) / np.sqrt(n)
    if layout == "F":
        return np.asfortranarray(L)
    if layout == "strided":
        every_other = np.zeros((m, 2 * n))
        every_other[:, ::2] = L
        return every_other[:, ::2]
    return L


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_overlapped_and_serial_paths_are_bitwise_equal(monkeypatch, rng, layout):
    L = small_matrix(layout, rng)
    named = quadratic_instance(rng.standard_normal(90), rng.standard_normal(40), L)
    assert_paths_bitwise_equal(monkeypatch, named.instance, z=named.z)


def test_overlapped_and_serial_paths_agree_with_an_l1_block(monkeypatch, rng):
    L = small_matrix("C", rng)
    w = PDPoint(rng.standard_normal(90), rng.standard_normal(40))
    inst = ProblemInstance(
        A=Quadratic(rng.standard_normal(90)),
        B=L1(0.3),
        L=LinearMap(L),
        gamma=0.5,
        mu=0.5,
        w=w,
        x0=w,
    )
    assert_paths_bitwise_equal(monkeypatch, inst)


def test_wide_solve_takes_the_path_of_the_rule(monkeypatch, rng):
    m, n = 500, 1000
    L = rng.standard_normal((m, n)) / np.sqrt(n)
    assert L.nbytes >= splitting._OVERLAP_MIN_BYTES
    named = quadratic_instance(rng.standard_normal(n), rng.standard_normal(m), L)
    on_worker = spy_workers(monkeypatch)
    ruled = run(named.instance, max_iter=10, z=named.z)
    engaged = splitting._usable_cpus() >= 2 and splitting._blas_threads() == 1
    assert set(on_worker) == {engaged}
    monkeypatch.setattr(splitting, "_OVERLAP_MIN_BYTES", np.inf)
    serial = run(named.instance, max_iter=10, z=named.z)
    for a, b in zip(records(ruled), records(serial)):
        assert a.tobytes() == b.tobytes()


class RecordingQuadratic(Quadratic):
    """A quadratic block that records the name of the thread of each resolvent call."""

    def __init__(self, b):
        super().__init__(b)
        self.threads = []

    def resolvent(self, gamma, x):
        self.threads.append(threading.current_thread().name)
        return super().resolvent(gamma, x)


def test_worker_runs_the_dual_resolvent_and_the_caller_the_primal(monkeypatch, rng):
    force(monkeypatch, overlap=True)
    L = small_matrix("C", rng)
    w = PDPoint(rng.standard_normal(90), rng.standard_normal(40))
    A, B = RecordingQuadratic(rng.standard_normal(90)), RecordingQuadratic(rng.standard_normal(40))
    inst = ProblemInstance(A=A, B=B, L=LinearMap(L), gamma=0.5, mu=0.5, w=w, x0=w)
    run(inst, max_iter=5)
    assert len(A.threads) == len(B.threads) == 6
    assert set(A.threads) == {threading.current_thread().name}
    assert set(B.threads) == {WORKER}


@pytest.mark.parametrize("overlap", [False, True])
def test_an_overflowing_step_raises_the_same_error_on_either_path(monkeypatch, rng, overlap):
    force(monkeypatch, overlap)
    # unscaled, so that L p overflows at x0
    L = rng.standard_normal((40, 90))
    named = quadratic_instance(rng.standard_normal(90), rng.standard_normal(40), L)
    huge = PDPoint(np.full(90, 1e307), np.full(40, 1e307))
    inst = dataclasses.replace(named.instance, x0=huge)
    # the worker runs in the caller's errstate, so its products warn no more than the caller's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="the step from iterate 0 is not finite"):
            solve(inst, max_iter=5)


class RaisingQuadratic(Quadratic):
    """A quadratic block whose resolvent raises on its ``fail_at``-th call."""

    def __init__(self, b, fail_at):
        super().__init__(b)
        self.calls = 0
        self.fail_at = fail_at
        self.threads_at_failure = None

    def resolvent(self, gamma, x):
        self.calls += 1
        if self.calls == self.fail_at:
            self.threads_at_failure = threading.active_count()
            raise RuntimeError("resolvent failed")
        return super().resolvent(gamma, x)


def test_no_thread_outlives_a_solve(monkeypatch, rng):
    force(monkeypatch, overlap=True)
    L = small_matrix("C", rng)
    named = quadratic_instance(rng.standard_normal(90), rng.standard_normal(40), L)
    before = threading.active_count()
    run(named.instance)
    assert threading.active_count() == before

    failing = dataclasses.replace(
        named.instance, B=RaisingQuadratic(named.instance.B.b, fail_at=5)
    )
    with pytest.raises(RuntimeError, match="resolvent failed"):
        run(failing)
    assert failing.B.threads_at_failure == before + 1
    assert threading.active_count() == before

    # the caller raises while the worker's dual chain is in flight
    failing = dataclasses.replace(
        named.instance, A=RaisingQuadratic(named.instance.A.b, fail_at=5)
    )
    with pytest.raises(RuntimeError, match="resolvent failed"):
        run(failing)
    assert failing.A.threads_at_failure == before + 1
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "env, threads",
    [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "-1"}, None),
    ],
)
def test_blas_threads_are_read_as_openblas_reads_them(monkeypatch, env, threads):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert splitting._blas_threads() == threads


@pytest.mark.parametrize(
    "cpus, blas, nbytes, overlaps",
    [
        (2, 1, 2**22, True),
        (1, 1, 2**22, False),
        (2, None, 2**22, False),
        (2, 2, 2**22, False),
        (2, 1, 2**20, False),
    ],
)
def test_worker_only_under_all_three_conditions(monkeypatch, cpus, blas, nbytes, overlaps):
    monkeypatch.setattr(splitting, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(splitting, "_blas_threads", lambda: blas)
    L = LinearMap(np.ones((nbytes // 8 // 512, 512)))
    before = threading.active_count()
    with splitting._product_worker(L) as worker:
        assert (worker is not None) == overlaps
    assert threading.active_count() == before


@pytest.mark.parametrize("tag", ["quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2"])
def test_builtins_start_no_thread(monkeypatch, tag):
    monkeypatch.setattr(splitting, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(splitting, "_blas_threads", lambda: 1)
    on_worker = spy_workers(monkeypatch)
    run(get_instance(tag).instance, max_iter=5)
    assert on_worker and not any(on_worker)


def test_import_starts_no_thread_and_loads_no_executor():
    code = (
        "import sys, threading; n = threading.active_count(); import mflow; "
        "print(threading.active_count() - n, 'concurrent.futures' in sys.modules, "
        "'queue' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["0", "False", "False"]
