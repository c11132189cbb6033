"""Acceptance suite: every criterion at its stated tolerance, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines on
stdout even when everything passes.
"""

import time

import numpy as np
import pytest

from mflow import (
    BoxNormalCone,
    L1,
    PDPoint,
    Zero,
    build_field,
    euler_eval,
    get_instance,
    haugazeau_projection,
    integrate_field,
    kt_operator,
    kt_residual,
    solve,
)

from .oracles import forward_backward, resolvent_map, two_cut_projection_oracle


def _verdict(num, label, ok):
    print(f"\ncriterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def _perturbed_anchor_instances(named, scale=0.02, count=3, seed=7):
    """Copies of a quadratic instance with anchor and start jointly shifted.

    The classical scheme starts at its own anchor, so a perturbed start
    keeps ``x0 = w``; both move together, which keeps the start admissible.
    """
    inst = named.instance
    out = [(named.tag, inst)]
    rng = np.random.default_rng(seed)
    for k in range(count):
        shift = scale * rng.standard_normal(inst.dim)
        w = PDPoint(shift[: inst.dim_p], shift[inst.dim_p :])
        moved = type(inst)(
            A=inst.A, B=inst.B, L=inst.L, gamma=inst.gamma, mu=inst.mu, w=w, x0=w
        )
        out.append((f"{named.tag}+shift{k}", moved))
    return out


@pytest.fixture(scope="module")
def criterion2_runs():
    """Solver trajectories for criterion 2, shared with criterion 3."""
    runs = []
    for tag in ("quadratic1d", "quadratic3x2"):
        named = get_instance(tag)
        for label, inst in _perturbed_anchor_instances(named):
            t0 = time.perf_counter()
            traj = solve(
                inst,
                max_iter=10_000,
                tol_residual=1e-13,
                tol_step=1e-15,
                z=named.z,
            )
            elapsed = time.perf_counter() - t0
            runs.append((named, label, traj, elapsed))
    return runs


@pytest.fixture(scope="module")
def criterion5_runs():
    """Unit-step Euler vs discrete trajectories, shared with criterion 3."""
    named = get_instance("quadratic3x2")
    kw = dict(max_iter=120, tol_residual=1e-16, tol_step=1e-16, z=named.z)
    discrete = solve(named.instance, **kw)
    field = build_field(named.instance, cap=named.cap)
    euler = integrate_field(field, named.instance.x0.flat, 1.0, discrete.iterations)
    return named, discrete, euler


def test_criterion_1_projection_oracle_equivalence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        w = rng.standard_normal(d) * 3.0
        b = rng.standard_normal(d) * 3.0
        c = rng.standard_normal(d) * 3.0
        got = haugazeau_projection(w, b, c)
        ref = two_cut_projection_oracle(w, b, c)
        assert ref is not None
        worst = max(worst, float(np.linalg.norm(got - ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _verdict(
        1,
        f"projection oracle equivalence, max dev {worst:.2e}, {elapsed:.2f}s",
        ok,
    )


def test_criterion_2_fixed_point_and_convergence(criterion2_runs):
    ok = True
    details = []
    for tag in ("quadratic1d", "quadratic3x2"):
        named = get_instance(tag)
        resid = kt_residual(named.instance, named.z)
        ok &= resid <= 1e-9
        details.append(f"{tag} oracle resid {resid:.1e}")
    per_instance_time = {}
    for named, label, traj, elapsed in criterion2_runs:
        errs = np.linalg.norm(traj.points - named.z, axis=1)
        reached = float(errs.min())
        ok &= reached <= 1e-6 and traj.iterations <= 10_000
        per_instance_time.setdefault(named.tag, 0.0)
        per_instance_time[named.tag] += elapsed
        details.append(f"{label} err {reached:.1e}@{int(errs.argmin())}")
    ok &= all(t < 10.0 for t in per_instance_time.values())
    assert _verdict(2, "; ".join(details), ok)


def test_criterion_3_monotonicity_and_fejer(criterion2_runs, criterion5_runs):
    trajectories = [traj for _, _, traj, _ in criterion2_runs]
    _, discrete, euler = criterion5_runs
    trajectories += [discrete, euler]
    worst_mono = 0.0
    worst_fejer = 0.0
    for traj in trajectories:
        mono = float(np.min(np.diff(traj.norm_to_w), initial=0.0))
        fejer = float(np.min(traj.fejer_slack))
        worst_mono = min(worst_mono, mono)
        worst_fejer = min(worst_fejer, fejer)
    ok = worst_mono >= -1e-10 and worst_fejer >= -1e-10
    assert _verdict(
        3,
        f"monotone anchor distance (worst step {worst_mono:.1e}), "
        f"fejer slack (worst {worst_fejer:.1e}) over {len(trajectories)} runs",
        ok,
    )


def test_criterion_4_euler_first_order():
    named = get_instance("lens-drift")
    ref = named.references[0][1]
    x0 = np.array([0.0, -1.0])
    tgrid = np.linspace(0.0, 1.0, 2001)
    t0 = time.perf_counter()
    sups = []
    for lam in (0.2, 0.1, 0.05):
        nodes = integrate_field(named.extended_field, x0, lam, 1.0).points
        sups.append(
            max(
                float(np.linalg.norm(euler_eval(nodes, lam, t) - ref(t)))
                for t in tgrid
            )
        )
    elapsed = time.perf_counter() - t0
    ratios = [sups[1] / sups[0], sups[2] / sups[1]]
    ok = (
        sups[0] > sups[1] > sups[2]
        and all(0.4 <= r <= 0.6 for r in ratios)
        and elapsed < 1.0
    )
    assert _verdict(
        4,
        f"euler order one, sup errors {['%.3e' % s for s in sups]}, "
        f"ratios {['%.3f' % r for r in ratios]}, {elapsed:.2f}s",
        ok,
    )


def test_criterion_5_unit_step_identity(criterion5_runs):
    _, discrete, euler = criterion5_runs
    ok = (
        discrete.points.shape[0] >= 101
        and discrete.points.shape == euler.points.shape
        and bool(np.array_equal(discrete.points, euler.points))
    )
    assert _verdict(
        5,
        f"unit-step euler bitwise equals discrete over "
        f"{discrete.points.shape[0] - 1} steps",
        ok,
    )


def test_criterion_6_assumption_checker_fidelity(tmp_path):
    import json

    from mflow.cli import main

    ok = True
    details = []

    code = main(
        ["check", "--instance", "lens-drift", "--seed", "0", "--out", str(tmp_path)]
    )
    reports = {
        r["name"]: r
        for r in json.loads((tmp_path / "lens-drift_checks.json").read_text())
    }
    south = np.array([0.0, -1.0])
    witness_near_south = any(
        float(np.linalg.norm(np.asarray(v["point"]) - south)) < 0.1
        for v in reports["cap_invariance"]["violations"]
    )
    lens_ok = (
        code != 0
        and not reports["cap_invariance"]["passed"]
        and reports["unique_zero"]["passed"]
        and reports["outward_drift"]["passed"]
        and witness_near_south
    )
    ok &= lens_ok
    details.append(
        f"lens-drift invariance fail with witness near (0,-1): {lens_ok}"
    )

    for tag in ("box-flow", "quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2"):
        code = main(
            ["check", "--instance", tag, "--seed", "0", "--out", str(tmp_path)]
        )
        all_pass = code == 0
        ok &= all_pass
        details.append(f"{tag} all pass: {all_pass}")
    assert _verdict(6, "; ".join(details), ok)


def test_criterion_7_branching_solutions_residual():
    named = get_instance("box-flow")
    F = named.extended_field
    h = 1e-4
    ts = np.arange(h, 1.0, h)
    worst = 0.0
    for label, ref in named.references:
        for t in ts:
            xdot = (ref(t + h) - ref(t - h)) / (2.0 * h)
            worst = max(worst, float(np.linalg.norm(xdot - F(ref(t)))))
    ok = worst <= 1e-6
    assert _verdict(
        7, f"both branch trajectories solve the extension, residual {worst:.2e}", ok
    )


def test_criterion_8_firm_quasinonexpansiveness_of_builders():
    rng = np.random.default_rng(99)
    named = get_instance("quadratic1d")
    box = BoxNormalCone([0.0, 0.0], [1.0, 1.0])
    cases = [
        (
            "projection",
            resolvent_map(box),
            lambda: np.clip(rng.standard_normal(2), 0.0, 1.0),
            2,
        ),
        (
            "resolvent",
            resolvent_map(L1()),
            lambda: np.zeros(2),
            2,
        ),
        (
            "forward_backward",
            forward_backward(Zero(), lambda x: x, 1.0),
            lambda: np.zeros(3),
            3,
        ),
        (
            "kuhn_tucker",
            lambda x: kt_operator(named.instance, x),
            lambda: named.z,
            2,
        ),
    ]
    worst = -np.inf
    for label, T, fixed_point, dim in cases:
        for _ in range(1000):
            x = rng.standard_normal(dim) * 3.0
            y = np.asarray(fixed_point(), dtype=float)
            tx = np.asarray(T(x))
            slack = (
                float(np.sum((x - y) ** 2))
                - float(np.sum((tx - y) ** 2))
                - float(np.sum((tx - x) ** 2))
            )
            worst = max(worst, -slack)
    ok = worst <= 1e-10
    assert _verdict(
        8,
        f"firm quasinonexpansiveness of the four builders, worst slack "
        f"{-worst:.1e}",
        ok,
    )
