import sys

import numpy as np
import pytest

from mflow import (
    Cap,
    GEOM_TOL,
    L1,
    VectorField,
    build_field,
    builtin_tags,
    cap_membership,
    check_cap_invariance,
    check_outward_drift,
    check_projection_conditions,
    check_unique_zero,
    convergence_report,
    fixed_point_operator,
    get_instance,
    sample_cap,
    solve,
)
from mflow import diagnostics, geometry, splitting
from mflow.cli import main
from mflow.diagnostics import _rd_batches
from mflow.dynamics import NonFiniteError
from mflow.geometry import haugazeau_rows

from .oracles import cut


def _at(F, z, samples):
    """A map's values at ``z`` stacked on the samples, as the checks take them."""
    return F(np.vstack([z, samples]))


def _tq(T, cap, samples):
    """``T`` and the flow's ``Q(w, x, Tx)`` at the cap's ``z`` stacked on the samples."""
    points = np.vstack([cap.z, samples])
    tx = T(points)
    return tx, haugazeau_rows(cap.w, points, tx)


def _in_cap_rows(cap, rows):
    """Mask of the rows that pass both of the cap's tests, taken on the stack."""
    ball, floor = cap_membership(cap, rows)
    return ball & floor


@pytest.fixture(scope="module")
def lens():
    return get_instance("lens-drift")


@pytest.fixture(scope="module")
def lens_samples(lens):
    return sample_cap(lens.cap, n_samples=512, seed=0)


@pytest.fixture(scope="module")
def lens_values(lens, lens_samples):
    return _at(lens.field, lens.z, lens_samples)


class TestSampleCap:
    def test_membership_and_count(self, lens, lens_samples):
        assert lens_samples.shape == (512, 2)
        for x in lens_samples:
            assert cap_membership(lens.cap, x) == (True, True)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, "8"])
    def test_rejects_non_positive_integer(self, lens, n_samples):
        with pytest.raises(ValueError, match="positive integer"):
            sample_cap(lens.cap, n_samples=n_samples)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_rd_sequence(self, dim):
        # with a zero shift the first point is alpha itself, and 1 / alpha_1 = phi
        alpha = next(_rd_batches(np.zeros(dim), 1))[0]
        phi = 1.0 / alpha[0]
        assert abs(phi ** (dim + 1) - phi - 1.0) <= 4 * np.spacing(phi + 1.0)
        assert alpha == pytest.approx(alpha[0] ** np.arange(1, dim + 1), rel=1e-14)
        for seed in (0, 7):
            shift = np.random.default_rng(seed).random(dim)
            points = next(_rd_batches(shift, 4096))
            assert points.shape == (4096, dim)
            assert np.all((points >= 0.0) & (points < 1.0))
            # 8 bins per axis; an i.i.d. draw would put 512 +- 21 points in each
            for axis in points.T:
                counts = np.bincount((axis * 8).astype(int), minlength=8)
                assert np.all(np.abs(counts - 512) <= 32), (seed, counts)

    def test_deterministic_for_seed(self, lens):
        a = sample_cap(lens.cap, n_samples=64, seed=7)
        b = sample_cap(lens.cap, n_samples=64, seed=7)
        assert np.array_equal(a, b)
        c = sample_cap(lens.cap, n_samples=64, seed=8)
        assert not np.array_equal(a, c)


def _unscreened_sample_cap(cap, n_samples, seed):
    """sample_cap without the ball screen: every candidate gets the exact test.

    Returns None where the sampling stalls.
    """
    shift = np.random.default_rng(seed).random(cap.dim)
    kept = []
    for batch in _rd_batches(shift, max(n_samples, 64)):
        for x in cap.center + cap.radius * (2.0 * batch - 1.0):
            if all(cap_membership(cap, x)):
                kept.append(x)
                if len(kept) == n_samples:
                    return np.array(kept)
    return None


def _cap_around(rng, dim, radius, center_norm, fraction):
    """A cap whose ball has the given radius and center norm, in a random direction."""
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    c = rng.standard_normal(dim)
    c *= center_norm / np.linalg.norm(c)
    w, z = c + radius * u, c - radius * u
    return Cap(w, z, fraction * float(np.sum((w - z) ** 2)))


def _screen_cases():
    """(cap, sample count) pairs on which the ball screen is compared."""
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(40):
        dim = int(rng.integers(1, 7))
        radius = 10.0 ** rng.uniform(-8, 3)
        center_norm = min(radius * 10.0 ** rng.uniform(-3, 12), 1e12)
        cap = _cap_around(rng, dim, radius, center_norm, rng.uniform(0.01, 0.5))
        cases.append((cap, 64))
    # centers far from the ball: x = center + radius * u is rounded to a grid
    # of about 1e-4 radii, and at 1e14 of radius / 64, so that points with
    # ||u|| > 1 pass the exact test; enough samples to draw some of them
    cases.append((_cap_around(rng, 3, 1.0, 1e12, 0.2), 2048))
    cases.append((_cap_around(rng, 3, 1.0, 1e14, 0.2), 2048))
    # radius^2 below GEOM_TOL: every point of the bounding box passes the ball test
    cases.append((_cap_around(rng, 2, 1e-6, 1.0, 0.3), 64))
    # floors that leave a thin shell next to z, where the floor screen drops most
    # candidates; centers 1e12 radii away put x on a grid of about 1e-4 radii
    for fraction in (0.9, 0.99):
        for radius in (1e-6, 1e3):
            for center_norm in (radius, 1e12 * radius):
                cases.append((_cap_around(rng, 2, radius, center_norm, fraction), 64))
    # a floor that leaves only a sliver next to z: sampling stalls
    cases.append((_cap_around(rng, 2, 1.0, 0.5, 1.0 - 1e-8), 64))
    return cases


class TestBallScreen:
    def test_same_samples_as_unscreened_loop(self):
        for i, (cap, n_samples) in enumerate(_screen_cases()):
            seed = i % 5
            want = _unscreened_sample_cap(cap, n_samples, seed)
            if want is None:
                with pytest.raises(RuntimeError, match="stalled"):
                    sample_cap(cap, n_samples=n_samples, seed=seed)
                continue
            got = sample_cap(cap, n_samples=n_samples, seed=seed)
            assert got.tobytes() == want.tobytes(), f"cap {i}"

    def test_stalling_case_stalls(self):
        cap, n_samples = _screen_cases()[-1]
        assert _unscreened_sample_cap(cap, n_samples, 0) is None


class TestFloorScreen:
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    # radius^2 above GEOM_TOL, so that the floor r - GEOM_TOL is positive
    @pytest.mark.parametrize("radius", [1e-3, 1e3])
    def test_keeps_every_row_the_exact_test_accepts(self, fraction, radius, rng):
        cap = _cap_around(rng, 3, radius, radius, fraction)
        # rows a few ulps either side of the floor sphere, and rows well inside it
        near = _near_radius(rng, cap.w, np.sqrt(cap.r - GEOM_TOL), 2000)
        deep = _near_radius(rng, cap.w, 0.5 * np.sqrt(cap.r), 100)
        unit = (np.vstack([near, deep]) - cap.center) / cap.radius
        rows = cap.center + cap.radius * unit
        kept = _in_cap_rows(cap, rows)
        tests = [cap_membership(cap, x) for x in rows]
        assert kept.tolist() == [all(t) for t in tests]
        # both sides of the floor are drawn, and the row test drops rows inside it
        assert kept.any() and (True, False) in tests
        assert not kept[len(near):].any()

    def test_row_test_equals_cap_membership(self, rng):
        # caps in dims 1-6, radii 1e-8 to 1e3, centers up to 1e12 radii away, and
        # rows a few ulps either side of the ball's and the floor's boundary spheres
        cases = []
        for _ in range(300):
            dim = int(rng.integers(1, 7))
            radius = 10.0 ** rng.uniform(-8, 3)
            center_norm = radius * 10.0 ** rng.uniform(-3, 12)
            cap = _cap_around(rng, dim, radius, center_norm, rng.uniform(0.01, 0.99))
            ball = _near_radius(rng, cap.center, np.sqrt(cap.radius**2 + GEOM_TOL), 100)
            floor = _near_radius(rng, cap.w, np.sqrt(max(cap.r - GEOM_TOL, 0.0)), 100)
            cases.append((cap, np.vstack([ball, floor])))
        # rows that hold an infinity or a NaN
        inf, nan = np.inf, np.nan
        cap = Cap([1.0, 0.0], [-1.0, 0.0], 0.5)
        non_finite = (cap, np.array([[nan, 0.0], [inf, 0.0], [-inf, inf], [0.0, -inf], [nan, inf]]))
        seen = set()
        for i, (cap, rows) in enumerate(cases + [non_finite]):
            with np.errstate(over="ignore", invalid="ignore"):
                arbiter = [cap_membership(cap, x) for x in rows]
            seen.update(arbiter)
            ball, floor = cap_membership(cap, rows)
            assert list(zip(ball.tolist(), floor.tolist())) == arbiter, f"case {i}"
        # rows outside the ball, inside it below the floor, and in the cap are all drawn
        assert {(ball, ball and floor) for ball, floor in seen} == {
            (False, False),
            (True, False),
            (True, True),
        }
        # both forms call every non-finite row outside
        assert not _in_cap_rows(*non_finite).any()

    def test_floor_at_a_row_whose_add_reduce_rounds_low(self, rng):
        # put the floor r - GEOM_TOL exactly at one row's exact-test sum, a dot
        # product, on the row whose add.reduce falls furthest below that sum:
        # both tests accept it, where a sum by add.reduce would not
        w, z = np.array([0.3, -1.2, 2.0]), np.array([-1.7, 0.4, -0.9])
        probe = Cap(w, z, 1.0)
        rows = probe.center + probe.radius * rng.uniform(-0.5, 0.5, (4000, 3))
        d = w - rows
        exact = np.array([row.dot(row) for row in d])
        reduced = np.add.reduce(d * d, axis=1)
        i = int(np.argmin(reduced - exact))
        r = exact[i] + GEOM_TOL
        r = next(s for s in r + np.arange(-8, 9) * np.spacing(r) if s - GEOM_TOL == exact[i])
        cap = Cap(w, z, r)
        assert reduced[i] < cap.r - GEOM_TOL
        assert _in_cap_rows(cap, rows[i : i + 1]).tolist() == [True]
        assert cap_membership(cap, rows[i]) == (True, True)

    def test_non_finite_rows_are_dropped(self):
        cap = get_instance("quadratic3x2").cap
        assert cap_membership(cap, np.full(5, np.nan)) == (False, False)
        # the center is inside; one NaN or infinite entry puts a row outside the ball
        rows = np.tile(cap.center, (4, 1))
        rows[1, 0], rows[2, 3], rows[3, 4] = np.nan, np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            tests = [cap_membership(cap, x) for x in rows]
        assert tests == [(True, True), (False, False), (False, True), (False, True)]
        ball, floor = cap_membership(cap, rows)
        assert list(zip(ball.tolist(), floor.tolist())) == tests

    @pytest.mark.parametrize("seed", [0, 104729])
    @pytest.mark.parametrize("tag", ["quadratic3x2", "lasso3x2", "box-flow"])
    def test_one_exact_test_per_accepted_sample(self, tag, seed, monkeypatch):
        calls = []

        def counted(cap, x):
            calls.append((np.ndim(x), cap_membership(cap, x)))
            return calls[-1][1]

        monkeypatch.setattr(diagnostics, "cap_membership", counted)
        samples = sample_cap(get_instance(tag).cap, n_samples=512, seed=seed)
        # the R_d batches are screened as stacks; only the one-point confirmations count
        one_point = [t for ndim, t in calls if ndim == 1]
        assert {ndim for ndim, _ in calls} == {1, 2}
        assert len(samples) == len(one_point) == 512
        assert set(one_point) == {(True, True)}


def _old_membership(cap, x):
    """cap_membership's two tests as written before they shared the difference ``w - x``.

    Its floor sum is the dot product that cap_membership takes, of ``x - w``.
    """
    ball = not float((cap.z - x) @ (cap.w - x)) > GEOM_TOL
    return ball, not float((x - cap.w) @ (x - cap.w)) < cap.r - GEOM_TOL


def _near_radius(rng, center, radius, count):
    """Points in random directions at a few ulps from ``radius`` around ``center``."""
    u = rng.standard_normal((count, center.shape[0]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ulps = rng.integers(-4, 5, size=count)
    radii = radius * (1.0 + ulps * np.finfo(float).eps)
    return center + radii[:, None] * u


@pytest.mark.parametrize("tag", builtin_tags())
def test_membership_matches_old_formula(tag, rng):
    cap = get_instance(tag).cap
    box = cap.center + 1.2 * cap.radius * rng.uniform(-1.0, 1.0, (10_000, cap.dim))
    # the two decision boundaries: the ball test and the floor test
    ball = _near_radius(rng, cap.center, np.sqrt(cap.radius**2 + GEOM_TOL), 500)
    floor = _near_radius(rng, cap.w, np.sqrt(cap.r - GEOM_TOL), 500)
    seen = set()
    for x in np.vstack([box, ball, floor]):
        tests = cap_membership(cap, x)
        assert tests == _old_membership(cap, x), x
        seen.add(tests)
    # rows outside the ball, inside it below the floor, and in the cap are all drawn
    assert {(ball, ball and floor) for ball, floor in seen} == {
        (False, False),
        (True, False),
        (True, True),
    }


def _counted(monkeypatch, calls, owner, name):
    """Record ``(name, shape of the second argument)`` for every call of ``owner.name``.

    A class's method is replaced on the class, a function on every module of
    the package that binds it.
    """
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((name, np.shape(args[1])))
        return original(*args, **kwargs)

    owners = [owner] if isinstance(owner, type) else [
        mod for key, mod in sys.modules.items() if key.split(".")[0] == "mflow"
    ]
    for mod in owners:
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)


class TestFieldCalls:
    def test_one_evaluation_per_check_run(self, tmp_path, monkeypatch):
        calls = []
        _counted(monkeypatch, calls, splitting, "kt_apply_rows")
        _counted(monkeypatch, calls, geometry, "haugazeau_rows")
        _counted(monkeypatch, calls, VectorField, "__call__")
        argv = ["check", "--samples", "64", "--out", str(tmp_path), "--instance"]
        # on a splitting instance T and Q run once each; F is Q - x
        assert main(argv + ["quadratic3x2"]) == 0
        names = [name for name, _ in calls]
        assert names.count("kt_apply_rows") == 1 and names.count("haugazeau_rows") == 1
        assert set(calls) == {("kt_apply_rows", (65, 5)), ("haugazeau_rows", (65, 5))}
        # a raw field runs once
        calls.clear()
        assert main(argv + ["box-flow"]) == 0
        assert calls == [("__call__", (65, 2))]

    @pytest.mark.parametrize(
        "values, error, match",
        [
            (np.zeros(2), ValueError, "shape"),
            (np.zeros((512, 2)), ValueError, "shape"),
            (np.full((513, 2), np.nan), NonFiniteError, "finite"),
        ],
        ids=["single-point-field", "no-reference-row", "nan"],
    )
    def test_field_output_checked(self, lens, lens_samples, values, error, match):
        for check in (check_cap_invariance, check_outward_drift):
            with pytest.raises(error, match=match):
                check(values, lens.cap, lens_samples)
        with pytest.raises(error, match=match):
            check_unique_zero(values, lens.cap, lens_samples)
        with pytest.raises(error, match=match):
            check_projection_conditions(values, values, lens.cap, lens_samples)

    def test_empty_sample_stack_rejected(self, lens):
        # over no samples each check would pass, with worst_violation -inf
        none = np.empty((0, 2))
        at_z = lens.field(np.array([lens.z]))
        for check in (check_unique_zero, check_cap_invariance, check_outward_drift):
            with pytest.raises(ValueError, match="at least one sample"):
                check(at_z, lens.cap, none)
        named = get_instance("quadratic3x2")
        none = np.empty((0, named.cap.dim))
        T = fixed_point_operator("kuhn_tucker", instance=named.instance)
        with pytest.raises(ValueError, match="at least one sample"):
            check_projection_conditions(*_tq(T, named.cap, none), named.cap, none)


class TestUniqueZero:
    def test_passes_on_drift_fixture(self, lens, lens_samples, lens_values):
        rep = check_unique_zero(lens_values, lens.cap, lens_samples)
        assert rep.passed

    def test_everything_is_a_zero_fails(self, lens, lens_samples):
        zero = VectorField(fn=lambda x: np.zeros_like(x))
        rep = check_unique_zero(_at(zero, lens.z, lens_samples), lens.cap, lens_samples)
        assert not rep.passed
        assert rep.witness is not None

    def test_passes_on_built_field(self):
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=1)
        rep = check_unique_zero(_at(F, named.z, samples), named.cap, samples)
        assert rep.passed


class TestCapInvariance:
    def test_fails_on_lens_drift_with_south_pole_witness(self, lens, lens_samples, lens_values):
        rep = check_cap_invariance(lens_values, lens.cap, lens_samples)
        assert not rep.passed
        assert rep.worst_violation > 0.1
        south = np.array([0.0, -1.0])
        near_south = [
            v for v in rep.violations if np.linalg.norm(v["point"] - south) < 0.1
        ]
        assert near_south

    def test_passes_on_branching_fixture(self):
        named = get_instance("box-flow")
        samples = sample_cap(named.cap, n_samples=256, seed=0)
        rep = check_cap_invariance(_at(named.field, named.z, samples), named.cap, samples)
        assert rep.passed

    def test_passes_on_built_field(self):
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=1)
        rep = check_cap_invariance(_at(F, named.z, samples), named.cap, samples)
        assert rep.passed

    def test_zero_field_trivially_invariant(self, lens, lens_samples):
        zero = VectorField(fn=lambda x: np.zeros_like(x))
        rep = check_cap_invariance(_at(zero, lens.z, lens_samples), lens.cap, lens_samples)
        assert rep.passed


class TestOutwardDrift:
    def test_passes_on_lens_drift(self, lens, lens_samples, lens_values):
        # <(1 - x1, 0), (-1 - x1, -x2)> = x1^2 - 1 <= 0 on the unit disk
        rep = check_outward_drift(lens_values, lens.cap, lens_samples)
        assert rep.passed

    def test_pull_toward_anchor_fails(self, lens, lens_samples):
        pull = VectorField(fn=lambda x: lens.cap.w - x)
        rep = check_outward_drift(_at(pull, lens.z, lens_samples), lens.cap, lens_samples)
        assert not rep.passed
        x = rep.witness
        assert rep.worst_violation == pytest.approx(
            float(np.sum((lens.cap.w - x) ** 2)), rel=1e-12
        )

    def test_passes_on_built_field(self):
        named = get_instance("quadratic3x2")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=2)
        rep = check_outward_drift(_at(F, named.z, samples), named.cap, samples)
        assert rep.passed

    def test_drift_sign_equals_halfspace_membership(self):
        # on built fields, a nonpositive drift inner product at x is the
        # same statement as the projection landing inside the first cut
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=6)
        for x in samples:
            fx = F(x)
            value = float(fx @ (named.cap.w - x))
            normal, offset = cut(named.cap.w, x)
            member = np.vecdot(x + fx, normal) - offset <= 1e-10
            assert member == (value <= 1e-10)


class TestProjectionConditions:
    def test_standard_cut_pair_passes(self):
        named = get_instance("quadratic1d")
        T = fixed_point_operator("kuhn_tucker", instance=named.instance)
        samples = sample_cap(named.cap, n_samples=128, seed=3)
        reports = check_projection_conditions(*_tq(T, named.cap, samples), named.cap, samples)
        assert [r.name for r in reports] == ["projection_stationarity", "projection_range"]
        assert all(r.passed for r in reports)

    def test_resolvent_operator_cut_pair_passes(self):
        # moving cuts built from a soft-thresholding resolvent; fixed point 0
        w = np.array([0.8, 0.6])
        z = np.zeros(2)
        cap = Cap(w, z, 0.25)
        T = fixed_point_operator("resolvent", op=L1())
        samples = sample_cap(cap, n_samples=128, seed=4)
        reports = check_projection_conditions(*_tq(T, cap, samples), cap, samples)
        assert all(r.passed for r in reports)

    def test_cut_excluding_solution_fails(self):
        named = get_instance("quadratic1d")
        z = named.z

        # H(x, 2x - z) = {h : <h - 2x + z, z - x> <= 0} leaves z out: 2 ||z - x||^2 > 0
        def T(x):
            return 2.0 * x - z

        samples = sample_cap(named.cap, n_samples=64, seed=5)
        tq = _tq(T, named.cap, samples)
        stationarity = check_projection_conditions(*tq, named.cap, samples)[0]
        assert not stationarity.passed
        kinds = {rec["kind"] for rec in stationarity.violations}
        assert "reference_outside_cut" in kinds

    def test_samples_at_the_reference_are_skipped(self):
        named = get_instance("quadratic3x2")
        F = build_field(named.instance, cap=named.cap)
        samples = np.vstack([named.z, sample_cap(named.cap, n_samples=32, seed=4)])
        assert check_unique_zero(_at(F, named.z, samples), named.cap, samples).passed
        T = fixed_point_operator("kuhn_tucker", instance=named.instance)
        tq = _tq(T, named.cap, samples)
        reports = check_projection_conditions(*tq, named.cap, samples)
        # z is its own fixed point; its spurious-fixed-point entry, GEOM_TOL, is skipped
        assert reports[0].passed and reports[0].worst_violation < GEOM_TOL / 100

    def test_non_finite_cut_rejected(self):
        # a NaN cut used to make every comparison false: every report passed
        named = get_instance("quadratic1d")
        samples = sample_cap(named.cap, n_samples=16, seed=5)
        nan = np.full((len(samples) + 1, named.z.shape[0]), np.nan)
        with pytest.raises(NonFiniteError, match="finite"):
            check_projection_conditions(nan, nan, named.cap, samples)

    def test_one_call_of_T_for_all_samples(self, tmp_path, monkeypatch):
        # mflow check calls T through kt_operator, which the benchmark traces,
        # once, on z stacked on the samples
        calls = []
        _counted(monkeypatch, calls, splitting, "kt_operator")
        argv = ["check", "--instance", "quadratic3x2", "--samples", "32"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert calls == [("kt_operator", (33, 5))]

    @pytest.mark.parametrize("tag", ["quadratic1d", "quadratic3x2", "lasso1d", "lasso3x2"])
    def test_check_scores_the_flow_field(self, tag, tmp_path, monkeypatch):
        # mflow check takes the field as Q(w, x, Tx) - x: the flow's field bit for bit
        seen = []
        original = diagnostics.check_outward_drift

        def capture(values, cap, samples):
            seen.append((values, samples))
            return original(values, cap, samples)

        monkeypatch.setattr(diagnostics, "check_outward_drift", capture)
        argv = ["check", "--instance", tag, "--samples", "128", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        [(values, samples)] = seen
        named = get_instance(tag)
        assert samples.tobytes() == sample_cap(named.cap, n_samples=128, seed=1).tobytes()
        expected = _at(build_field(named.instance), named.z, samples)
        assert values.shape == expected.shape == (129, named.z.shape[0])
        assert values.tobytes() == expected.tobytes()


class TestConvergenceReport:
    def test_converged_run(self):
        named = get_instance("quadratic1d")
        traj = solve(named.instance, max_iter=10_000, z=named.z)
        rep = convergence_report(traj, named.z, w=named.cap.w)
        assert rep["final_error"] <= 1e-6
        assert rep["tail_contained"]
        assert rep["decade_crossings"]["1e-03"] <= rep["decade_crossings"]["1e-05"]

    def test_stationary_start(self):
        named = get_instance("quadratic1d")
        inst = named.instance
        at_solution = type(inst)(
            A=inst.A,
            B=inst.B,
            L=inst.L,
            gamma=inst.gamma,
            mu=inst.mu,
            w=inst.w,
            x0=type(inst.x0).from_flat(named.z, 1),
        )
        traj = solve(at_solution, z=named.z)
        rep = convergence_report(traj, named.z, w=named.cap.w)
        assert rep["final_error"] <= 1e-12
        assert rep["tail_contained"]

    def test_tail_containment_scan(self):
        for tag in ("quadratic3x2", "lasso1d", "lasso3x2"):
            named = get_instance(tag)
            traj = solve(named.instance, max_iter=3000, z=named.z)
            rep = convergence_report(traj, named.z, w=named.cap.w)
            assert rep["tail_contained"], tag

    def test_reports_deterministic(self, lens, lens_samples):
        a, b = (
            check_cap_invariance(_at(lens.field, lens.z, lens_samples), lens.cap, lens_samples)
            for _ in range(2)
        )
        assert a.worst_violation == b.worst_violation
        assert np.array_equal(a.witness, b.witness)
