import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mflow.space
from mflow import (
    NonFiniteError,
    PDPoint,
    VectorField,
    build_field,
    cap_membership,
    euler_eval,
    get_instance,
    haugazeau_projection,
    integrate_field,
    kt_operator,
    kt_residual,
    quadratic_instance,
    solve,
)
from mflow.config import instance_from_doc
from mflow.splitting import kt_apply_flat

from .oracles import euler_defect, fejer_slack
from .test_box_slab import ANCHORS, _doc

# the box-slab instances, whose Kuhn-Tucker set is a polygon, one per anchor
BOX_SLABS = {f"box-slab-{name}": w for name, (w, *_) in ANCHORS.items()}


def drift_field():
    return VectorField(fn=lambda x: np.array([1.0 - x[0], 0.0]))


def overflow_field(edge):
    """Unit drift along the first axis, infinite once that coordinate reaches ``edge``."""
    return VectorField(fn=lambda x: np.array([np.inf if x[0] >= edge else 1.0, 0.0]))


def jump_field(edge, value):
    """Unit steps along the first axis, landing on ``value`` from ``x[0] >= edge`` on."""

    def target(x):
        return np.full(2, value) if x[0] >= edge else x + np.array([1.0, 0.0])

    return VectorField(fn=lambda x: target(x) - x, target=target)


class TestStepFiniteness:
    def test_finite_step_with_overflowing_norm_is_recorded(self):
        # ||1e200 - x||^2 overflows, yet the next node is finite; the records
        # hold that step's norm as inf, without a numpy warning
        traj = integrate_field(jump_field(2.0, 1e200), [0.0, 0.0], 1.0, 4.0)
        assert np.array_equal(traj.points[:3], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(traj.points[3:], np.full((2, 2), 1e200))
        assert traj.step_norm[3] == np.inf

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("edge", [0, 2, 4])
    def test_non_finite_step_raises_at_its_iterate(self, edge, value):
        with pytest.raises(NonFiniteError, match=f"^the step from iterate {edge} is not finite$"):
            integrate_field(jump_field(float(edge), value), [0.0, 0.0], 1.0, 4.0)


class TestEulerNodes:
    def test_contraction_recursion(self):
        nodes = integrate_field(drift_field(), [0.0, -1.0], 0.5, 1.5).points
        expected = [[0.0, -1.0], [0.5, -1.0], [0.75, -1.0], [0.875, -1.0]]
        assert nodes == pytest.approx(np.array(expected), abs=1e-15)

    def test_stationary_field(self):
        zero = VectorField(fn=lambda x: np.zeros(2))
        nodes = integrate_field(zero, [0.3, 0.7], 0.25, 2.5).points
        assert np.all(nodes == np.array([0.3, 0.7]))

    def test_step_size_bounds(self):
        with pytest.raises(ValueError):
            integrate_field(drift_field(), [0.0, 0.0], 0.0, 1.5)
        with pytest.raises(ValueError):
            integrate_field(drift_field(), [0.0, 0.0], 1.5, 1.5)

    @pytest.mark.parametrize("edge", [1.0, 2.0], ids=["interior", "last-node"])
    def test_overflowing_field_raises(self, edge):
        # nodes 0, 0.25, ..., 2.0: the field is infinite from the node at ``edge`` on,
        # and the step from the last node is checked like every other
        with pytest.raises(NonFiniteError, match=f"from iterate {int(4 * edge)} "):
            integrate_field(overflow_field(edge), [0.0, 0.0], 0.25, 2.0)

    def test_unit_step_matches_discrete_iterates(self):
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        nodes = integrate_field(F, named.instance.x0.flat, 1.0, 25.0).points
        step = build_field(named.instance).target
        x = named.instance.x0.flat
        for k in range(25):
            x = step(x)
            assert np.array_equal(nodes[k + 1], x)

    def test_cap_exit_warns(self):
        named = get_instance("lens-drift")
        with pytest.warns(RuntimeWarning, match="left the admissible cap"):
            integrate_field(named.field, [0.0, -1.0], 0.5, 2.0)

    @pytest.mark.parametrize("tag", ["lens-drift", "box-flow", "quadratic3x2"])
    def test_warned_node_is_the_first_per_point_exit(self, tag, rng, monkeypatch):
        named = get_instance(tag)
        cap = named.cap
        F = named.field if named.instance is None else build_field(named.instance, cap=cap)
        # the warning tests all nodes at once: one cap_membership call on the stack of nodes
        calls = []

        def counted(*args):
            calls.append(args)
            return cap_membership(*args)

        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "mflow"]:
            if vars(mod).get("cap_membership") is cap_membership:
                monkeypatch.setattr(mod, "cap_membership", counted)
        stayed = set()
        for lam in np.repeat([1.0, 0.5, 0.1], 20):
            x0 = cap.center + 1.1 * cap.radius * rng.uniform(-1.0, 1.0, cap.dim)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                nodes = integrate_field(F, x0, lam, 20 * lam).points
            warned = [int(re.search(r"node (\d+) ", str(w.message))[1]) for w in caught]
            # the first node that leaves the cap, or its ball when the start is below the floor
            tests = [cap_membership(cap, x) for x in nodes]
            inside = [all(t) if all(tests[0]) else t[0] for t in tests]
            first = next((k for k in range(1, len(nodes)) if not inside[k]), None)
            assert warned == ([] if first is None else [first])
            stayed.add(first is None)
        assert [(c, x.shape) for c, x in calls] == [(cap, (21, cap.dim))] * 60
        # runs that leave and runs that stay are both drawn
        assert stayed == {True, False}


class TestEulerEval:
    def test_interior_point(self):
        nodes = integrate_field(drift_field(), [0.0, -1.0], 0.5, 1.5).points
        assert euler_eval(nodes, 0.5, 0.75) == pytest.approx([0.625, -1.0])

    def test_left_endpoint_and_knots(self):
        F = get_instance("lens-drift").extended_field
        # at lam = 0.1, (3 lam) / lam and (6 lam) / lam round off the integers
        for lam in (0.5, 0.1, 0.05):
            nodes = integrate_field(F, [0.0, -1.0], lam, 10 * lam).points
            assert np.array_equal(euler_eval(nodes, lam, 0.0), nodes[0])
            for k in range(11):
                assert np.array_equal(euler_eval(nodes, lam, k * lam), nodes[k]), (lam, k)

    def test_out_of_range(self):
        nodes = integrate_field(drift_field(), [0.0, -1.0], 0.5, 1.5).points
        with pytest.raises(ValueError):
            euler_eval(nodes, 0.5, 2.0)
        with pytest.raises(ValueError):
            euler_eval(nodes, 0.5, -0.1)

    def test_times_within_knot_tolerance_of_the_ends(self):
        # t / lam up to 1e-12 outside [0, n] is the end knot
        F = get_instance("lens-drift").extended_field
        nodes = integrate_field(F, [0.0, -1.0], 0.1, 1.0).points
        for t, k in ((-1e-14, 0), (10 * 0.1 + 1e-14, 10)):
            assert np.array_equal(euler_eval(nodes, 0.1, t), nodes[k])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time(self, t):
        nodes = integrate_field(drift_field(), [0.0, -1.0], 0.5, 1.5).points
        with pytest.raises(ValueError, match="outside"):
            euler_eval(nodes, 0.5, t)

    @pytest.mark.parametrize("lam", [0.0, 2.0, np.nan])
    def test_step_size_bounds(self, lam):
        nodes = integrate_field(drift_field(), [0.0, -1.0], 0.5, 1.5).points
        with pytest.raises(ValueError, match="step size"):
            euler_eval(nodes, lam, 0.5)


class TestEulerDefect:
    """The slope of the interpolant of ``integrate_field``'s nodes minus the field along it."""

    def test_constant_field_has_zero_defect(self):
        const = VectorField(fn=lambda x: np.array([1.0, 2.0]))
        nodes = integrate_field(const, [0.0, 0.0], 0.25, 2.0).points
        for t in (0.1, 0.3, 0.77, 1.9):
            assert euler_defect(const, nodes, 0.25, t) == pytest.approx([0.0, 0.0])

    def test_knots_return_zero(self):
        # the chord from a knot is lam F(c_k), here in exact dyadic arithmetic
        F = drift_field()
        nodes = integrate_field(F, [0.0, -1.0], 0.5, 1.5).points
        assert np.array_equal(euler_defect(F, nodes, 0.5, 1.0), [0.0, 0.0])

    def test_affine_field_formula(self):
        # slope minus field: first component c(t)_1 - c_k_1, second zero
        F = drift_field()
        lam = 0.5
        nodes = integrate_field(F, [0.0, -1.0], lam, 1.5).points
        t = 0.75
        k = 1
        ct = euler_eval(nodes, lam, t)
        expected = np.array([ct[0] - nodes[k][0], 0.0])
        assert euler_defect(F, nodes, lam, t) == pytest.approx(expected, abs=1e-15)

    def test_defect_shrinks_with_step(self):
        F = drift_field()
        sups = []
        for lam in (0.2, 0.1):
            nodes = integrate_field(F, [0.0, -1.0], lam, 1.0).points
            ts = np.linspace(1e-6, 1.0 - 1e-6, 601)
            sups.append(
                max(np.linalg.norm(euler_defect(F, nodes, lam, t)) for t in ts)
            )
        assert sups[1] / sups[0] <= 0.6


class TestBestApproxIterate:
    """One step of the discrete scheme, ``Q(w, x, Tx)``, is the field's target."""

    def test_solution_fixed(self):
        named = get_instance("quadratic1d")
        out = build_field(named.instance).target(named.z)
        assert out == pytest.approx(named.z, abs=1e-12)

    def test_first_step_from_anchor(self):
        # starting at the anchor, the first cut is the whole space and the
        # step lands on the operator output
        named = get_instance("quadratic1d")
        out = build_field(named.instance).target(named.instance.x0.flat)
        assert out == pytest.approx([4 / 15, -2 / 15], abs=1e-14)


class TestSolve:
    def test_converges_on_analytic_instance(self):
        named = get_instance("quadratic1d")
        traj = solve(named.instance, max_iter=10_000, tol_residual=1e-8, z=named.z)
        assert np.linalg.norm(traj.final - named.z) <= 1e-6

    def test_starts_at_solution_stops_immediately(self):
        named = get_instance("quadratic1d")
        inst = named.instance
        at_solution = type(inst)(
            A=inst.A,
            B=inst.B,
            L=inst.L,
            gamma=inst.gamma,
            mu=inst.mu,
            w=inst.w,
            x0=PDPoint.from_flat(named.z, 1),
        )
        traj = solve(at_solution, z=named.z)
        assert traj.termination == "residual"
        assert traj.iterations == 0

    def test_euler_unit_step_equals_discrete(self):
        named = get_instance("quadratic3x2")
        inst = named.instance
        a = solve(inst, max_iter=120, tol_residual=1e-16, tol_step=1e-16, z=named.z)
        b = integrate_field(build_field(inst, named.cap), inst.x0.flat, 1.0, a.iterations)
        for column in ("index", "points", "norm_to_w", "fejer_slack", "step_norm"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column

    def test_monotone_distance_and_fejer_slack(self):
        for tag in ("quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2"):
            named = get_instance(tag)
            traj = solve(named.instance, max_iter=2000, z=named.z)
            diffs = np.diff(traj.norm_to_w)
            assert np.min(diffs, initial=0.0) >= -1e-10
            assert np.min(traj.fejer_slack) >= -1e-10

    def test_segment_invariance_shadow(self):
        # the whole relaxation segment of every recorded iterate stays in
        # the spanned ball
        named = get_instance("quadratic1d")
        traj = solve(named.instance, max_iter=300, z=named.z)
        F = build_field(named.instance, cap=named.cap)
        for x in traj.points[:50]:
            fx = F(x)
            for h in (0.25, 0.5, 0.75, 1.0):
                ball, _ = cap_membership(named.cap, x + h * fx)
                assert ball

    def test_validation(self):
        named = get_instance("quadratic1d")
        with pytest.raises(ValueError):
            solve(named.instance, max_iter=0)

    @pytest.mark.parametrize("key", ["max_iter", "tol_residual", "tol_step"])
    def test_nan_stop_criterion_rejected(self, key):
        named = get_instance("quadratic1d")
        with pytest.raises(ValueError, match="stop criteria"):
            solve(named.instance, **{key: float("nan")})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_iter", 2.5),
            ("max_iter", True),
            ("max_iter", float("inf")),
            ("tol_residual", float("inf")),
            ("tol_step", float("inf")),
            ("tol_residual", True),
            ("tol_step", False),
        ],
    )
    def test_stop_criterion_of_wrong_kind_rejected(self, key, value):
        # a budget is an integer and tolerances are finite numbers; neither is a bool
        named = get_instance("quadratic1d")
        with pytest.raises(ValueError, match="stop criteria"):
            solve(named.instance, **{key: value})

    def test_max_iter_termination(self):
        named = get_instance("quadratic1d")
        traj = solve(named.instance, max_iter=1)
        assert traj.termination == "max_iter"
        assert traj.iterations == 1


class TestTrajectoryOutput:
    def test_csv_round_trip(self, tmp_path):
        named = get_instance("quadratic1d")
        traj = solve(named.instance, max_iter=50, z=named.z)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape[0] == traj.points.shape[0]
        assert list(data.dtype.names) == [
            "n_or_t",
            "x_0",
            "x_1",
            "norm_to_w",
            "fejer_slack",
            "residual",
            "step_norm",
        ]
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(data["x_0"], traj.points[:, 0])
        assert np.array_equal(data["residual"], traj.residual)

    @pytest.mark.parametrize("anchored", [True, False], ids=["with_z", "without_z"])
    def test_csv_bytes(self, tmp_path, anchored):
        if anchored:
            named = get_instance("quadratic1d")
            traj = solve(named.instance, max_iter=30, z=named.z)
        else:
            # no cap and no z: norm_to_w and fejer_slack are NaN
            traj = integrate_field(drift_field(), [0.0, -1.0], 0.25, 2.0)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        cols = [
            traj.index,
            *traj.points.T,
            traj.norm_to_w,
            traj.fejer_slack,
            traj.residual,
            traj.step_norm,
        ]
        lines = ["n_or_t,x_0,x_1,norm_to_w,fejer_slack,residual,step_norm"]
        for k in range(traj.points.shape[0]):
            lines.append(",".join(f"{col[k]:.17g}" for col in cols))
        assert path.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()
        assert anchored != (",nan,nan," in path.read_text())


class TestIntegrateField:
    def test_matches_closed_form_drift(self):
        named = get_instance("lens-drift")
        ref = named.references[0][1]
        traj = integrate_field(named.extended_field, [0.0, -1.0], 0.05, 1.0, cap=named.cap)
        sup_err = max(
            np.linalg.norm(traj.points[k] - ref(traj.index[k]))
            for k in range(traj.points.shape[0])
        )
        assert sup_err <= 0.05  # first-order accuracy at lam = 0.05

    @pytest.mark.parametrize("lam", [0.05, 0.5])
    def test_one_field_call_per_node(self, lam):
        named = get_instance("lens-drift")
        calls = []

        def counted(x):
            calls.append(1)
            return named.extended_field(x)

        traj = integrate_field(VectorField(fn=counted), named.start, lam, 1.0)
        assert len(calls) == traj.points.shape[0]

    def test_unit_step_residual_is_field_norm(self):
        named = get_instance("quadratic3x2")
        F = build_field(named.instance, cap=named.cap)
        traj = integrate_field(F, named.instance.x0.flat, 1.0, 30.0)
        assert traj.residual.tolist() == [np.linalg.norm(F(x)) for x in traj.points]

    def test_rejects_bad_horizon(self):
        named = get_instance("lens-drift")
        for t_final in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_final"):
                integrate_field(named.extended_field, [0.0, -1.0], 0.1, t_final)

    def test_rejects_step_count_overflow(self):
        # t_final and lam are each legal, but their ratio overflows
        calls = []

        def counted(x):
            calls.append(1)
            return drift_field()(x)

        with pytest.raises(ValueError, match="t_final / lam"):
            integrate_field(VectorField(fn=counted), [0.0, -1.0], 1e-10, 1e300)
        assert calls == []

    @pytest.mark.parametrize("lam", [0.0, np.nan])
    def test_step_size_bounds(self, lam):
        with pytest.raises(ValueError, match="step size"):
            integrate_field(drift_field(), [0.0, -1.0], lam, 1.0)

    @pytest.mark.parametrize("edge", [1.0, 2.0], ids=["interior", "last-node"])
    def test_overflowing_field_raises(self, edge):
        with pytest.raises(NonFiniteError, match=f"from iterate {int(2 * edge)} "):
            integrate_field(overflow_field(edge), [0.0, 0.0], 0.5, 2.0)

    @pytest.mark.parametrize("tag", ["quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2"])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.0])
    def test_matches_relaxed_solve(self, tag, lam):
        # the solve loop relaxed to x + lam (Q(w, x, Tx) - x), or Q itself at lam = 1
        named = get_instance(tag)
        inst = named.instance
        x = inst.x0.flat
        points = [x]
        for _ in range(400):
            q = haugazeau_projection(inst.w.flat, x, kt_operator(inst, x))
            x = q if lam == 1.0 else x + lam * (q - x)
            points.append(x)
        b = integrate_field(build_field(inst, named.cap), inst.x0.flat, lam, 400 * lam)
        assert b.iterations == 400
        assert b.points.tobytes() == np.array(points).tobytes()
        assert b.index.tobytes() == (np.arange(401) * lam).tobytes()


class TestEulerOrderOfTheFlow:
    """Euler is first order on the paper's own field ``Q(w, x, Tx) - x``, which is only Lipschitz.

    With no reference solution: each halving of ``lam`` from 2^-3 to 2^-7 halves
    the sup over 257 times on [0, 2] of ``||E_lam(t) - E_{lam/2}(t)||``.  The
    ratios measured 0.46-0.50 on every instance below; a change to ``T`` that
    broke the field's continuity would leave the band.
    """

    @pytest.mark.parametrize(
        "tag", ["quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2", *BOX_SLABS]
    )
    def test_halving_ratios(self, tag):
        named = instance_from_doc(_doc(BOX_SLABS[tag])) if tag in BOX_SLABS else get_instance(tag)
        inst = named.instance
        F = build_field(inst, named.cap)
        ts = np.linspace(0.0, 2.0, 257)
        runs = []
        for lam in [2.0**-j for j in range(3, 8)]:
            nodes = integrate_field(F, inst.x0.flat, lam, 2.0).points
            runs.append(np.array([euler_eval(nodes, lam, t) for t in ts]))
        sups = [np.linalg.norm(a - b, axis=1).max() for a, b in zip(runs, runs[1:])]
        ratios = [b / a for a, b in zip(sups, sups[1:])]
        assert all(0.4 <= r <= 0.55 for r in ratios), ratios


class TestRecordColumns:
    """Every record column against its per-row definition."""

    def test_anchor_shapes_must_match_iterates(self):
        inst = get_instance("quadratic3x2").instance
        for z in ([0.1], [0.1, 0.2]):
            with pytest.raises(ValueError, match="z has shape"):
                solve(inst, max_iter=5, z=z)
        named = get_instance("lens-drift")
        F, start = named.extended_field, named.start
        with pytest.raises(ValueError, match="w has shape"):
            integrate_field(F, start, 0.5, 1.0, cap=get_instance("quadratic3x2").cap)

    def test_wrong_shape_z_fails_before_the_first_step(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return kt_apply_flat(*args, **kwargs)

        monkeypatch.setattr("mflow.dynamics.kt_apply_flat", counted)
        inst = get_instance("quadratic3x2").instance
        with pytest.raises(ValueError, match="z has shape"):
            solve(inst, max_iter=50, z=[0.0, 1.0])
        assert calls == []

    def test_wrong_shape_cap_fails_before_the_first_step(self):
        calls = []

        def field(x):
            calls.append(1)
            return -x

        with pytest.raises(ValueError, match="w has shape"):
            integrate_field(field, np.ones(5), 0.5, 1.0, cap=get_instance("lens-drift").cap)
        assert calls == []

    @staticmethod
    def check_columns(traj, cap):
        pts = traj.points
        for k, x in enumerate(pts):
            assert traj.norm_to_w[k] == pytest.approx(
                np.linalg.norm(x - cap.w), rel=1e-12, abs=1e-12
            )
            assert traj.fejer_slack[k] == pytest.approx(
                fejer_slack(cap.w, cap.z, x), rel=1e-12, abs=1e-12
            )
            step = 0.0 if k == 0 else np.linalg.norm(x - pts[k - 1])
            assert traj.step_norm[k] == pytest.approx(step, rel=1e-12, abs=1e-12)

    def test_solve(self):
        named = get_instance("quadratic3x2")
        inst = named.instance
        traj = solve(inst, max_iter=300, z=named.z)
        assert traj.iterations == 300
        assert np.array_equal(traj.index, np.arange(301))
        step = build_field(inst).target
        for k in range(traj.iterations):
            assert step(traj.points[k]).tobytes() == traj.points[k + 1].tobytes()
        assert traj.residual.tolist() == [kt_residual(inst, x) for x in traj.points]
        self.check_columns(traj, named.cap)

    def test_integrate_field(self):
        named = get_instance("lens-drift")
        F, lam = named.extended_field, 0.05
        traj = integrate_field(F, named.start, lam, 1.0, cap=named.cap)
        assert np.array_equal(traj.index, np.arange(21) * lam)
        for k in range(traj.iterations):
            x = traj.points[k]
            assert (x + lam * F(x)).tobytes() == traj.points[k + 1].tobytes()
        assert traj.residual.tolist() == [np.linalg.norm(F(x)) for x in traj.points]
        self.check_columns(traj, named.cap)


def _count_validations(monkeypatch):
    """Count calls of ``as_vector`` through every binding in the mflow modules."""
    calls = []
    original = mflow.space.as_vector

    def counted(x):
        calls.append(1)
        return original(x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mflow" and getattr(module, "as_vector", None) is original:
            monkeypatch.setattr(module, "as_vector", counted)
    return calls


class TestValidationCost:
    """Values are validated where they enter, so the count does not grow with steps."""

    def test_solve(self, monkeypatch):
        inst = get_instance("quadratic3x2").instance
        calls = _count_validations(monkeypatch)
        counts = []
        for n in (10, 100):
            calls.clear()
            traj = solve(inst, max_iter=n, tol_residual=1e-300, tol_step=1e-300)
            assert traj.iterations == n
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_integrate_field(self, monkeypatch):
        inst = get_instance("quadratic3x2").instance
        F = build_field(inst)
        calls = _count_validations(monkeypatch)
        counts = []
        for n in (10, 100):
            calls.clear()
            traj = integrate_field(F, inst.x0.flat, 0.5, 0.5 * n)
            assert traj.iterations == n
            counts.append(len(calls))
        assert counts[0] == counts[1]


def _wide_coupling():
    """A seeded float64 ``L`` of shape (200, 1000); its runs have 27 rows per record block."""
    rng = np.random.default_rng(16)
    return rng.standard_normal((200, 1000)) / np.sqrt(1000), rng


def _wide_instance():
    L, rng = _wide_coupling()
    return quadratic_instance(rng.standard_normal(1000), rng.standard_normal(200), L)


def _wide_run(named):
    """300 steps of the discrete scheme on ``named``, with the Fejer column."""
    return solve(named.instance, max_iter=300, tol_residual=1e-300, tol_step=1e-300, z=named.z)


def _peak_bytes(fn):
    """``fn()`` and the peak of the memory it allocated, as tracemalloc sees it."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryCost:
    """The solve path holds each large array once (numpy reports to tracemalloc)."""

    def test_instance_does_not_copy_coupling(self):
        L, rng = _wide_coupling()
        p0, q0 = rng.standard_normal(1000), rng.standard_normal(200)
        named, peak = _peak_bytes(lambda: quadratic_instance(p0, q0, L))
        assert peak < 0.5 * L.nbytes
        assert np.shares_memory(named.instance.L.matrix, L)

    def test_solve_records_cost_about_one_copy_of_iterates(self):
        named = _wide_instance()
        traj, peak = _peak_bytes(lambda: _wide_run(named))
        assert traj.iterations == 300
        assert peak < 2.1 * traj.points.nbytes


class TestBlockedRecords:
    """Record columns built over row blocks equal the full-array expressions, bit for bit."""

    @staticmethod
    def full_step_norm(P):
        steps = np.zeros(P.shape[0])
        steps[1:] = np.linalg.norm(np.diff(P, axis=0), axis=1)
        return steps

    def test_solve_spanning_several_blocks(self):
        named = _wide_instance()
        w, z = named.instance.w.flat, named.z
        traj = _wide_run(named)
        P = traj.points
        d2 = np.sum((P - w) ** 2, axis=1)
        assert traj.norm_to_w.tobytes() == np.sqrt(d2).tobytes()
        slack = np.sum((w - z) ** 2) - d2 - np.sum((P - z) ** 2, axis=1)
        assert traj.fejer_slack.tobytes() == slack.tobytes()
        assert traj.step_norm.tobytes() == self.full_step_norm(P).tobytes()

    def test_integrate_field_without_cap(self):
        named = _wide_instance()
        F = build_field(named.instance)
        traj = integrate_field(F, named.instance.x0.flat, 0.5, 40.0)
        assert traj.iterations == 80
        assert np.isnan(traj.norm_to_w).all() and np.isnan(traj.fejer_slack).all()
        assert traj.step_norm.tobytes() == self.full_step_norm(traj.points).tobytes()
