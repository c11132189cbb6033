import numpy as np
import pytest

from mflow import (
    Cap,
    HalfSpace,
    INSIDE_DHAT,
    L1,
    VectorField,
    build_field,
    cap_membership,
    check_cap_invariance,
    check_outward_drift,
    check_projection_conditions,
    check_strict_drift,
    check_unique_zero,
    convergence_report,
    cut_pair_builder,
    fixed_point_operator,
    get_instance,
    sample_cap,
    solve,
)


@pytest.fixture(scope="module")
def lens():
    return get_instance("lens-drift")


@pytest.fixture(scope="module")
def lens_samples(lens):
    return sample_cap(lens.cap, n_samples=512, seed=0)


class TestSampleCap:
    def test_membership_and_count(self, lens, lens_samples):
        assert lens_samples.shape == (512, 2)
        for x in lens_samples:
            assert cap_membership(lens.cap, x) == INSIDE_DHAT

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, "8"])
    def test_rejects_non_positive_integer(self, lens, n_samples):
        with pytest.raises(ValueError, match="positive integer"):
            sample_cap(lens.cap, n_samples=n_samples)

    def test_deterministic_for_seed(self, lens):
        a = sample_cap(lens.cap, n_samples=64, seed=7)
        b = sample_cap(lens.cap, n_samples=64, seed=7)
        assert np.array_equal(a, b)
        c = sample_cap(lens.cap, n_samples=64, seed=8)
        assert not np.array_equal(a, c)


class TestFieldCalls:
    def test_one_field_call_per_check(self, lens, lens_samples):
        shapes = []

        def drift(x):
            shapes.append(np.shape(x))
            return lens.field(x)

        F = VectorField(fn=drift, cap=lens.cap)
        check_unique_zero(F, lens.cap, lens.z, lens_samples)
        check_cap_invariance(F, lens.cap, lens_samples)
        check_outward_drift(F, lens.cap, lens_samples)
        check_strict_drift(F, lens_samples, lens.cap.w, lens.z)
        n = len(lens_samples)
        assert shapes == [(n + 1, 2), (n, 2), (n, 2), (n, 2)]

    @pytest.mark.parametrize(
        "fn, match",
        [
            (lambda x: np.zeros(2), "shape"),
            (lambda x: np.full_like(x, np.nan), "finite"),
        ],
        ids=["single-point-field", "nan"],
    )
    def test_field_output_checked(self, lens, lens_samples, fn, match):
        F = VectorField(fn=fn)
        for check in (check_cap_invariance, check_outward_drift):
            with pytest.raises(ValueError, match=match):
                check(F, lens.cap, lens_samples)
        with pytest.raises(ValueError, match=match):
            check_unique_zero(F, lens.cap, lens.z, lens_samples)


class TestUniqueZero:
    def test_passes_on_drift_fixture(self, lens, lens_samples):
        rep = check_unique_zero(lens.field, lens.cap, lens.z, lens_samples)
        assert rep.passed

    def test_everything_is_a_zero_fails(self, lens, lens_samples):
        zero = VectorField(fn=lambda x: np.zeros_like(x))
        rep = check_unique_zero(zero, lens.cap, lens.z, lens_samples)
        assert not rep.passed
        assert rep.witness is not None

    def test_passes_on_built_field(self):
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=1)
        rep = check_unique_zero(F, named.cap, named.z, samples)
        assert rep.passed


class TestCapInvariance:
    def test_fails_on_lens_drift_with_south_pole_witness(self, lens, lens_samples):
        rep = check_cap_invariance(lens.field, lens.cap, lens_samples)
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
        rep = check_cap_invariance(named.field, named.cap, samples)
        assert rep.passed

    def test_passes_on_built_field(self):
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=1)
        rep = check_cap_invariance(F, named.cap, samples)
        assert rep.passed

    def test_zero_field_trivially_invariant(self, lens, lens_samples):
        zero = VectorField(fn=lambda x: np.zeros_like(x))
        rep = check_cap_invariance(zero, lens.cap, lens_samples)
        assert rep.passed


class TestOutwardDrift:
    def test_passes_on_lens_drift(self, lens, lens_samples):
        # <(1 - x1, 0), (-1 - x1, -x2)> = x1^2 - 1 <= 0 on the unit disk
        rep = check_outward_drift(lens.field, lens.cap, lens_samples)
        assert rep.passed

    def test_pull_toward_anchor_fails(self, lens, lens_samples):
        pull = VectorField(fn=lambda x: lens.cap.w - x)
        rep = check_outward_drift(pull, lens.cap, lens_samples)
        assert not rep.passed
        x = rep.witness
        assert rep.worst_violation == pytest.approx(
            float(np.sum((lens.cap.w - x) ** 2)), rel=1e-12
        )

    def test_passes_on_built_field(self):
        named = get_instance("quadratic3x2")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=2)
        rep = check_outward_drift(F, named.cap, samples)
        assert rep.passed

    def test_strict_variant_along_trajectory(self):
        named = get_instance("lens-drift")
        ref = named.references[0][1]
        pts = np.array([ref(t) for t in np.linspace(0.0, 1.0, 101)])
        rep = check_strict_drift(named.extended_field, pts, named.cap.w, named.z)
        assert rep.passed
        assert rep.worst_violation < -0.5  # x1^2 - 1 stays well below zero here

    def test_drift_sign_equals_halfspace_membership(self):
        # on built fields, a nonpositive drift inner product at x is the
        # same statement as the projection landing inside the first cut
        named = get_instance("quadratic1d")
        F = build_field(named.instance, cap=named.cap)
        samples = sample_cap(named.cap, n_samples=128, seed=6)
        from mflow import halfspace_of

        for x in samples:
            fx = F(x)
            value = float(fx @ (named.cap.w - x))
            member = halfspace_of(named.cap.w, x).contains(x + fx, tol=1e-10)
            assert member == (value <= 1e-10)

    def test_strict_variant_degenerates_on_cut_boundary(self):
        # along discrete iterates both cuts are active, so the drift inner
        # product sits at the boundary value zero (up to rounding)
        named = get_instance("quadratic1d")
        traj = solve(named.instance, max_iter=300, z=named.z)
        F = build_field(named.instance, cap=named.cap)
        rep = check_strict_drift(F, traj.points, named.cap.w, named.z)
        assert abs(rep.worst_violation) <= 1e-10


class TestProjectionConditions:
    def test_standard_cut_pair_passes(self):
        named = get_instance("quadratic1d")
        T = fixed_point_operator("kuhn_tucker", instance=named.instance)
        builder = cut_pair_builder(T, named.cap.w)
        samples = sample_cap(named.cap, n_samples=128, seed=3)
        reports = check_projection_conditions(builder, named.cap, samples)
        assert [r.name for r in reports] == [
            "projection_stationarity",
            "projection_range",
            "projection_alignment",
            "projection_convexity",
        ]
        assert all(r.passed for r in reports)

    def test_resolvent_operator_cut_pair_passes(self):
        # moving cuts built from a soft-thresholding resolvent; fixed point 0
        w = np.array([0.8, 0.6])
        z = np.zeros(2)
        cap = Cap(w, z, 0.25)
        T = fixed_point_operator("resolvent", op=L1())
        builder = cut_pair_builder(T, w)
        samples = sample_cap(cap, n_samples=128, seed=4)
        reports = check_projection_conditions(builder, cap, samples)
        assert all(r.passed for r in reports)

    def test_fixed_halfspace_excluding_solution_fails(self):
        named = get_instance("quadratic1d")
        # constant cut whose boundary separates the anchor from the solution
        hs = HalfSpace([1.0, 0.0], -1.0)  # {x1 <= -1}, far from z

        def builder(x):
            return [hs]

        samples = sample_cap(named.cap, n_samples=64, seed=5)
        reports = check_projection_conditions(builder, named.cap, samples)
        stationarity = reports[0]
        assert not stationarity.passed


    def test_samples_at_the_reference_are_skipped(self):
        named = get_instance("quadratic3x2")
        F = build_field(named.instance, cap=named.cap)
        samples = np.vstack([named.z, sample_cap(named.cap, n_samples=32, seed=4)])
        assert check_unique_zero(F, named.cap, named.z, samples).passed
        T = fixed_point_operator("kuhn_tucker", instance=named.instance)
        builder = cut_pair_builder(T, named.cap.w)
        reports = check_projection_conditions(builder, named.cap, samples, tol=1e-6)
        # z is its own fixed point; its spurious-fixed-point entry, 1e-6, is skipped
        assert reports[0].passed and reports[0].worst_violation < 1e-8

    def test_non_finite_cut_rejected(self):
        # a NaN offset used to make every comparison false: all four reports passed
        named = get_instance("quadratic1d")
        samples = sample_cap(named.cap, n_samples=16, seed=5)
        with pytest.raises(ValueError, match="finite"):
            check_projection_conditions(
                lambda x: [HalfSpace([1.0, 0.0], float("nan"))], named.cap, samples
            )

    def test_one_builder_call_for_all_samples(self):
        named = get_instance("quadratic3x2")
        T = fixed_point_operator("kuhn_tucker", instance=named.instance)
        build = cut_pair_builder(T, named.cap.w)
        shapes = []

        def builder(x):
            shapes.append(np.shape(x))
            return build(x)

        samples = sample_cap(named.cap, n_samples=32, seed=3)
        reports = check_projection_conditions(builder, named.cap, samples)
        assert shapes == [named.z.shape, samples.shape]
        assert all(r.passed for r in reports)


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
        a = check_cap_invariance(lens.field, lens.cap, lens_samples)
        b = check_cap_invariance(lens.field, lens.cap, lens_samples)
        assert a.worst_violation == b.worst_violation
        assert np.array_equal(a.witness, b.witness)
