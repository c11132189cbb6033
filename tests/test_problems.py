import numpy as np
import pytest

from mflow import (
    builtin_tags,
    get_instance,
    kt_residual,
    lasso_instance,
    quadratic_instance,
)


class TestQuadraticInstance:
    def test_one_dimensional_solution(self):
        named = quadratic_instance(p0=[0.0], q0=[1.0], L=[[1.0]])
        assert named.z == pytest.approx([0.5, -0.5], abs=1e-14)

    def test_decoupled_when_map_vanishes(self):
        named = quadratic_instance(p0=[0.7, -0.2], q0=[1.5], L=[[0.0, 0.0]])
        assert named.z == pytest.approx([0.7, -0.2, -1.5], abs=1e-14)

    def test_row_map_solution(self):
        named = quadratic_instance(p0=[0.0, 0.0], q0=[2.0], L=[[1.0, 1.0]])
        assert named.z == pytest.approx([2 / 3, 2 / 3, -2 / 3], abs=1e-13)

    def test_oracle_matches_dense_kkt_solve(self, rng):
        shapes = [(int(rng.integers(1, 5)), int(rng.integers(1, 4))) for _ in range(20)]
        # a wide map (m < n) takes the dual normal equations, a tall one the primal
        for n, m in shapes + [(60, 20), (20, 60)]:
            p0 = rng.standard_normal(n)
            q0 = rng.standard_normal(m)
            L = rng.standard_normal((m, n))
            named = quadratic_instance(p0=p0, q0=q0, L=L)
            # full KKT system in (p, v): p + L^T v = p0, L p - v = q0
            K = np.block([[np.eye(n), L.T], [L, -np.eye(m)]])
            ref = np.linalg.solve(K, np.concatenate([p0, q0]))
            assert np.linalg.norm(named.z - ref) <= 1e-12 * (1 + np.linalg.norm(ref))

    def test_oracle_satisfies_residual(self):
        named = quadratic_instance(p0=[0.3, -0.1], q0=[0.2], L=[[0.5, -1.0]])
        assert kt_residual(named.instance, named.z) <= 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quadratic_instance(p0=[0.0, 0.0], q0=[1.0], L=[[1.0]])

    def test_nonfinite_oracle_rejected(self):
        # the normal equations overflow; the oracle's residual is NaN, not small
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="oracle"):
                quadratic_instance(p0=[0.1, 0.2], q0=[0.3], L=[[1e200, 1.0]])


class TestLassoInstance:
    def test_one_dimensional_soft_threshold(self):
        named = lasso_instance(b=[2.0], L=[[1.0]], reg=1.0)
        assert named.z == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_zero_weight_reduces_to_unregularized_minimum(self):
        named = lasso_instance(b=[0.4, -0.8], L=[[1.0, 0.5]], reg=0.0)
        assert named.z == pytest.approx([0.4, -0.8, 0.0], abs=1e-14)

    def test_zero_data_gives_origin(self):
        named = lasso_instance(b=[0.0, 0.0], L=[[1.0, 0.0]], reg=0.5)
        assert named.z == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)

    def test_oracle_matches_subgradient_conditions(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, min(n, 3) + 1))
            b = rng.standard_normal(n)
            L = rng.standard_normal((m, n))
            reg = float(rng.uniform(0.1, 1.0))
            named = lasso_instance(b=b, L=L, reg=reg)
            p = named.z[:n]
            v = named.z[n:]
            # stationarity p - b + L^T v = 0 and v in reg * subdiff l1 at Lp
            assert np.linalg.norm(p - b + L.T @ v) <= 1e-9
            y = L @ p
            for yi, vi in zip(y, v):
                if abs(yi) > 1e-9:
                    assert vi == pytest.approx(reg * np.sign(yi), abs=1e-9)
                else:
                    assert abs(vi) <= reg + 1e-9

    def test_rank_deficient_map_rejected(self):
        with pytest.raises(ValueError):
            lasso_instance(b=[1.0, 1.0], L=[[1.0, 0.0], [1.0, 0.0]], reg=0.5)

    def test_too_many_dual_dims_rejected(self):
        with pytest.raises(ValueError):
            lasso_instance(b=[1.0] * 5, L=np.eye(5)[:4], reg=0.5)


class TestFixtures:
    def test_lens_drift_geometry(self):
        named = get_instance("lens-drift")
        assert np.array_equal(named.cap.w, [-1.0, 0.0])
        assert np.array_equal(named.cap.z, [1.0, 0.0])
        assert named.cap.r == 1.0
        assert named.field([0.25, -0.5]) == pytest.approx([0.75, 0.0])
        # extension agrees with the restricted field where both are defined
        assert np.array_equal(
            named.field([0.25, -0.5]), named.extended_field([0.25, -0.5])
        )

    def test_lens_drift_reference_trajectory(self):
        named = get_instance("lens-drift")
        label, ref = named.references[0]
        assert ref(0.0) == pytest.approx([0.0, -1.0])
        # the reference solves the extended system: x' = F(x)
        h = 1e-6
        for t in (0.2, 0.7, 1.3):
            xdot = (ref(t + h) - ref(t - h)) / (2 * h)
            assert xdot == pytest.approx(named.extended_field(ref(t)), abs=1e-8)

    def test_box_flow_geometry_and_references(self):
        named = get_instance("box-flow")
        assert np.array_equal(named.cap.w, [0.0, -1.0])
        assert np.array_equal(named.cap.z, [1.0, 0.0])
        (lab1, ref1), (lab2, ref2) = named.references
        assert ref1(0.0) == pytest.approx([0.0, 0.0], abs=1e-15)
        assert ref2(0.0) == pytest.approx([0.0, 0.0], abs=1e-15)
        # branch curve values match the packaged extension formula
        for t in (0.1, 0.5, 0.9):
            x = ref1(t)
            assert named.extended_field(x) == pytest.approx(
                [1.0 - x[0], x[0]], abs=1e-12
            )
            y = ref2(t)
            assert named.extended_field(y) == pytest.approx(
                [1.0 - y[0], -y[1]], abs=1e-12
            )

    def test_fixture_fields_vanish_at_reference(self):
        for tag in ("lens-drift", "box-flow"):
            named = get_instance(tag)
            assert np.linalg.norm(named.field(named.z)) == 0.0


class TestRegistry:
    def test_builtin_tags(self):
        assert set(builtin_tags()) == {
            "quadratic1d",
            "quadratic3x2",
            "lasso1d",
            "lasso3x2",
            "lens-drift",
            "box-flow",
        }

    def test_all_oracles_validated(self):
        for tag in builtin_tags():
            named = get_instance(tag)
            if named.instance is not None:
                assert kt_residual(named.instance, named.z) <= 1e-9

    def test_unknown_tag(self):
        with pytest.raises(KeyError, match="built-ins"):
            get_instance("nope")
