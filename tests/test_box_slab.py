"""Best approximation where the Kuhn-Tucker set is not a point: the box-slab instances.

``A = N_[0,1]^2`` and ``B = N_[0.5,1.5]`` are normal cones, coupled by
``L = [[1, 1]]``.  So ``Z = P x D`` with ``P = [0,1]^2 & {0.5 <= p1 + p2 <= 1.5}``,
and ``D = {0}`` because ``p = (0.5, 0.5)`` is a Slater point (``p`` inside the
square, ``L p = 1`` inside the slab).  ``Z`` is a polygon, so reaching some point
of ``Z`` is not enough: the scheme must reach ``P_Z w``, which
:func:`oracles.project_polyhedron` computes by enumeration.  Plain iteration of
``T`` from the same start settles elsewhere in ``Z``, so these cases tell the
two apart.  Each run starts at its anchor.  A ``hypothesis`` property repeats
the solve on random instances of the same family.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mflow import build_field, integrate_field, kt_operator, solve
from mflow.cli import main
from mflow.config import instance_from_doc

from .oracles import project_polyhedron

# Z in (p1, p2, v) as {h : <h, a_i> <= beta_i}: the square, the slab, and v = 0
Z_NORMALS = np.array([
    (-1, 0, 0), (0, -1, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1),
], float)
Z_OFFSETS = [0, 0, 1, 1, 1.5, -0.5, 0, 0]

# anchor w, its P_Z w, and bounds measured with a margin of about 2x (the first
# and third anchors are solved exactly after 3 steps): the final error of
# `mflow solve --max-iter 2000` with its exit code, and the error of relaxed
# Euler at lambda = 0.5 at t = 2000
ANCHORS = {
    "interior": ((1.2, 1.1, 0.9), (0.8, 0.7, 0.0), 0, 1e-14, 3e-5),
    "corner": ((2.0, -1.0, 0.7), (1.0, 0.0, 0.0), 2, 1.5e-3, 2e-3),
    "edge": ((-0.5, -0.3, -0.4), (0.15, 0.35, 0.0), 0, 1e-14, 3e-6),
}
# plain x <- Tx ends 0.44, 0.23 and 0.15 from P_Z w after this many steps
PLAIN_STEPS = 2000
PLAIN_MIN_DISTANCE = 0.1


def _doc(w):
    w = list(map(float, w))
    start = {"p": w[:2], "v": w[2:]}
    return {
        "name": "box-slab",
        "A": {"tag": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "B": {"tag": "box", "lower": [0.5], "upper": [1.5]},
        "L": [[1.0, 1.0]],
        "gamma": 0.5,
        "mu": 0.5,
        "w": start,
        "x0": start,
        "z": project_polyhedron(w, Z_NORMALS, Z_OFFSETS).tolist(),
    }


@pytest.fixture(params=list(ANCHORS), ids=list(ANCHORS))
def anchor(request, tmp_path):
    """An anchor's instance file, its ``P_Z w``, its bounds and its instance."""
    w, expected, code, solve_bound, euler_bound = ANCHORS[request.param]
    doc = _doc(w)
    path = tmp_path / "box-slab.json"
    path.write_text(json.dumps(doc))
    return path, np.array(doc["z"]), code, solve_bound, euler_bound, instance_from_doc(doc)


def _invariants_hold(norm_to_w, fejer_slack):
    # criterion 3: the distance to w never decreases and x stays in the spanned ball
    return np.min(np.diff(norm_to_w), initial=0.0) >= -1e-10 and np.min(fejer_slack) >= -1e-10


@pytest.mark.parametrize("name", list(ANCHORS))
def test_oracle_reproduces_the_projections(name):
    w, expected = ANCHORS[name][:2]
    got = project_polyhedron(w, Z_NORMALS, Z_OFFSETS)
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("size", [1e-170, 2.5e-161])
def test_oracle_keeps_a_constraint_with_a_tiny_normal(size):
    # a @ a underflows to 0 at 1e-170; at 2.5e-161 an absolute slack let w pass
    got = project_polyhedron([1.0, 1.0], [np.array([size, 0.0])], [0.0])
    assert np.array_equal(got, [0.0, 1.0])


def test_mflow_solve_reaches_the_projection(anchor, tmp_path):
    path, pzw, code, solve_bound, _, _ = anchor
    out = tmp_path / "out"
    assert main(["solve", "--instance", str(path), "--max-iter", "2000", "--out", str(out)]) == code
    summary = json.loads((out / "box-slab_summary.json").read_text())
    assert np.linalg.norm(np.array(summary["final_point"]) - pzw) == summary["final_error"]
    assert summary["final_error"] <= solve_bound
    records = np.genfromtxt(out / "box-slab_trajectory.csv", delimiter=",", names=True)
    assert _invariants_hold(records["norm_to_w"], records["fejer_slack"])


def test_mflow_check_passes(anchor, tmp_path):
    path = anchor[0]
    out = tmp_path / "out"
    assert main(["check", "--instance", str(path), "--out", str(out)]) == 0
    reports = json.loads((out / "box-slab_checks.json").read_text())
    assert len(reports) == 5 and all(rep["passed"] for rep in reports)


def test_relaxed_euler_heads_for_the_projection(anchor):
    _, pzw, _, _, euler_bound, named = anchor
    inst = named.instance
    # the cap's own z anchors the Fejer column, and it is the projection itself
    assert named.cap.z.tobytes() == pzw.tobytes()
    traj = integrate_field(build_field(inst, named.cap), inst.x0.flat, 0.5, 2000.0)
    assert np.linalg.norm(traj.final - pzw) <= euler_bound
    assert _invariants_hold(traj.norm_to_w, traj.fejer_slack)


def test_plain_iteration_settles_elsewhere_in_z(anchor):
    # the best-approximation property is what the other tests see: a plain
    # Fejer iteration of T converges into Z too, but not to P_Z w
    _, pzw, _, solve_bound, euler_bound, named = anchor
    x = named.instance.x0.flat
    for _ in range(PLAIN_STEPS):
        x = kt_operator(named.instance, x)
    assert np.linalg.norm(project_polyhedron(x, Z_NORMALS, Z_OFFSETS) - x) <= 1e-12
    assert np.linalg.norm(x - pzw) >= PLAIN_MIN_DISTANCE > 10 * max(solve_bound, euler_bound)


# Random box-slab instances: A = N_C1 for a box C1 in R^n, B = N_C2 for a box C2 in
# R^m, and a random L.  C2 is drawn around L p for a point p inside C1, so p is a
# Slater point, D = {0} and P_Z w = (P_P w_p, 0) with P = C1 & L^-1 C2.  Measured
# after 1000 steps, the error is at most 0.041 ||w - P_Z w|| over 3,600 numpy draws
# of this family (each end point of a range drawn 15% of the time) and 0.018 over
# 1,500 examples of this strategy, so the bound has a margin of about 2.4x.  A run
# that starts within solve's residual tolerance of Z stops at once, hence the slack.
RANDOM_STEPS = 1000
RANDOM_BOUND = 0.1
RANDOM_SLACK = 1e-7


def _reals(shape, lo, hi):
    return arrays(float, shape, elements=st.floats(lo, hi))


@st.composite
def random_box_slabs(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lower = draw(_reals(n, -1.0, 1.0))
    upper = lower + draw(_reals(n, 0.5, 2.0))
    slater = lower + draw(_reals(n, 0.2, 0.8)) * (upper - lower)
    L = draw(_reals((m, n), -2.0, 2.0))
    lower2 = L @ slater - draw(_reals(m, 0.1, 1.0))
    upper2 = L @ slater + draw(_reals(m, 0.1, 1.0))
    w = draw(_reals(n + m, -3.0, 3.0))
    start = {"p": w[:n].tolist(), "v": w[n:].tolist()}
    doc = {
        "A": {"tag": "box", "lower": lower.tolist(), "upper": upper.tolist()},
        "B": {"tag": "box", "lower": lower2.tolist(), "upper": upper2.tolist()},
        "L": L.tolist(),
        "gamma": draw(st.floats(0.2, 0.8)),
        "mu": draw(st.floats(0.2, 0.8)),
        "w": start,
        "x0": start,
    }
    # P = {p : p <= upper, -p <= -lower, L p <= upper2, -L p <= -lower2}
    eye = np.eye(n)
    normals = np.vstack([eye, -eye, L, -L])
    offsets = np.concatenate([upper, -lower, upper2, -lower2])
    pzw = np.concatenate([project_polyhedron(w[:n], normals, offsets), np.zeros(m)])
    return doc, w, pzw


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_box_slabs())
def test_solve_heads_for_the_projection_on_random_box_slabs(case):
    doc, w, pzw = case
    traj = solve(instance_from_doc(doc).instance, max_iter=RANDOM_STEPS, z=pzw)
    assert _invariants_hold(traj.norm_to_w, traj.fejer_slack)
    error = np.linalg.norm(traj.final - pzw)
    assert error <= RANDOM_BOUND * np.linalg.norm(w - pzw) + RANDOM_SLACK
