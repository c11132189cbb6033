import numpy as np
import pytest

from mflow import (
    BoxNormalCone,
    L1,
    LinearMap,
    PDPoint,
    ProblemInstance,
    Quadratic,
    Zero,
    get_instance,
    kt_operator,
    kt_residual,
)
from mflow.operators import MonotoneOperator
from mflow.splitting import _kt_blocks, kt_apply_flat

from .oracles import forward_backward, in_graph, resolvent_map


def one_dim_instance():
    """A p = p, B q = q - 1, unit coupling; solution (0.5, -0.5)."""
    return ProblemInstance(
        A=Quadratic([0.0]),
        B=Quadratic([1.0]),
        L=LinearMap([[1.0]]),
        gamma=0.5,
        mu=0.5,
        w=PDPoint([0.0], [0.0]),
        x0=PDPoint([0.0], [0.0]),
    )


Z_BAR = np.array([0.5, -0.5])


def blocks(inst, x):
    """``(a, b, a_star, b_star, s_star, eta)`` of the cut at the flat point ``x``."""
    return _kt_blocks(inst, x[: inst.dim_p], x[inst.dim_p :])


class TestKTOperator:
    def test_worked_example_at_origin(self):
        inst = one_dim_instance()
        x = np.zeros(2)
        a, b, a_star, b_star, s_star, eta = blocks(inst, x)
        assert a == pytest.approx([0.0], abs=1e-15)
        assert b == pytest.approx([1 / 3], abs=1e-15)
        assert a_star == pytest.approx([0.0], abs=1e-15)
        assert b_star == pytest.approx([-2 / 3], abs=1e-15)
        assert s_star == pytest.approx([-2 / 3, 1 / 3], abs=1e-15)
        assert eta == pytest.approx(-2 / 9, abs=1e-15)
        assert kt_operator(inst, x) == pytest.approx([4 / 15, -2 / 15], abs=1e-15)

    def test_solution_is_fixed_point(self):
        inst = one_dim_instance()
        z = np.array([0.5, -0.5])
        _, _, _, _, s_star, eta = blocks(inst, z)
        assert s_star == pytest.approx([0.0, 0.0], abs=1e-15)
        assert eta == pytest.approx(0.0, abs=1e-15)
        assert kt_operator(inst, z) is z  # exact identity, not merely close

    def test_point_unmoved_iff_feasible_for_own_cut(self, rng):
        inst = one_dim_instance()
        pts = [np.array([0.5, -0.5])] + [rng.standard_normal(2) for _ in range(50)]
        for x in pts:
            _, _, _, _, s_star, eta = blocks(inst, x)
            feasible = np.linalg.norm(s_star) <= 1e-12 or float(x @ s_star) <= eta
            assert (kt_operator(inst, x) is x) == feasible

    def test_resolvent_identities_exact(self, rng):
        inst = one_dim_instance()
        for _ in range(100):
            x = rng.standard_normal(2)
            p, v = x[:1], x[1:]
            a, b, a_star, b_star, _, _ = blocks(inst, x)
            ua = p - inst.gamma * inst.L.adjoint(v)
            ub = inst.L.apply(p) + inst.mu * v
            assert np.max(np.abs(a + inst.gamma * a_star - ua)) <= 1e-12
            assert np.max(np.abs(b + inst.mu * b_star - ub)) <= 1e-12

    def test_firm_quasinonexpansiveness(self, rng):
        inst = one_dim_instance()
        for _ in range(1000):
            x = rng.standard_normal(2) * 2
            tx = kt_operator(inst, x)
            lhs = np.sum((tx - Z_BAR) ** 2) + np.sum((tx - x) ** 2)
            rhs = np.sum((x - Z_BAR) ** 2)
            assert lhs <= rhs + 1e-10

    def test_solution_containment_in_cut(self, rng):
        # the solution lies in the halfspace the operator projects onto
        inst = one_dim_instance()
        for _ in range(500):
            x = rng.standard_normal(2) * 3
            tx = kt_operator(inst, x)
            assert float((Z_BAR - tx) @ (x - tx)) <= 1e-10


class TestKTResidual:
    def test_zero_at_solution(self):
        inst = one_dim_instance()
        assert kt_residual(inst, Z_BAR) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_origin(self):
        inst = one_dim_instance()
        expected = np.linalg.norm([4 / 15, -2 / 15])
        assert kt_residual(inst, [0.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_residual_kkt_equivalence(self, rng):
        # residual below 1e-9 iff both block conditions hold at 1e-7
        for tag in ("quadratic1d", "lasso1d"):
            named = get_instance(tag)
            inst = named.instance
            n = inst.dim_p

            def kkt_holds(flat, tol=1e-7):
                p, v = flat[:n], flat[n:]
                return in_graph(inst.A, p, -inst.L.adjoint(v), tol=tol) and in_graph(
                    inst.B, inst.L.apply(p), v, tol=tol
                )

            assert kt_residual(inst, named.z) <= 1e-9
            assert kkt_holds(named.z)
            for _ in range(50):
                x = named.z + rng.standard_normal(inst.dim) * 0.3
                if kt_residual(inst, x) > 1e-6:
                    assert not kkt_holds(x)

    def test_invariant_under_zero_padding(self):
        # appending a decoupled zero-operator coordinate leaves the residual alone
        inst = one_dim_instance()

        class PaddedA(MonotoneOperator):
            # first coordinate behaves like the original A, second is the zero op
            dim = 2

            def resolvent(self, gamma, x):
                x = np.asarray(x, float)
                return np.array([x[0] / (1.0 + gamma), x[1]])

        padded = ProblemInstance(
            A=PaddedA(),
            B=Quadratic([1.0]),
            L=LinearMap([[1.0, 0.0]]),
            gamma=0.5,
            mu=0.5,
            w=PDPoint([0.0, 0.0], [0.0]),
            x0=PDPoint([0.0, 0.0], [0.0]),
        )
        for x in ([0.0, 0.0], [0.3, -0.2], [0.5, -0.5]):
            base = kt_residual(inst, x)
            lifted = kt_residual(padded, [x[0], 0.7, x[1]])
            assert lifted == pytest.approx(base, abs=1e-14)


class TestProblemInstanceValidation:
    def test_step_sizes_must_be_in_unit_interval(self):
        for gamma, mu in ((0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.5)):
            with pytest.raises(ValueError):
                ProblemInstance(
                    A=Quadratic([0.0]),
                    B=Quadratic([1.0]),
                    L=LinearMap([[1.0]]),
                    gamma=gamma,
                    mu=mu,
                    w=PDPoint([0.0], [0.0]),
                    x0=PDPoint([0.0], [0.0]),
                )

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                A=Quadratic([0.0, 0.0]),
                B=Quadratic([1.0]),
                L=LinearMap([[1.0]]),
                gamma=0.5,
                mu=0.5,
                w=PDPoint([0.0], [0.0]),
                x0=PDPoint([0.0], [0.0]),
            )
        with pytest.raises(ValueError):
            ProblemInstance(
                A=Quadratic([0.0]),
                B=Quadratic([1.0]),
                L=LinearMap([[1.0]]),
                gamma=0.5,
                mu=0.5,
                w=PDPoint([0.0, 0.0], [0.0]),
                x0=PDPoint([0.0], [0.0]),
            )


class TestFixedPointOperators:
    """The maps of criterion 8, written from resolvents, and ``T``."""

    def test_resolvent_kind_soft_threshold(self):
        T = resolvent_map(L1())
        assert T([2.5]) == pytest.approx([1.5])
        # the only fixed point is the operator's zero
        assert T([0.0]) == pytest.approx([0.0])

    def test_forward_backward_reduces_to_half(self, rng):
        T = forward_backward(Zero(), lambda x: x, 1.0)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert T(x) == pytest.approx(x / 2, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
    def test_resolvent_step_must_be_positive(self, gamma):
        with pytest.raises(ValueError, match="resolvent step"):
            resolvent_map(L1(), gamma)([1.0])

    def test_projection_kind(self, rng):
        T = resolvent_map(BoxNormalCone([0.0, 0.0], [1.0, 1.0]))
        assert T([2.0, -3.0]) == pytest.approx([1.0, 0.0])
        inside = rng.uniform(0.0, 1.0, size=2)
        assert T(inside) == pytest.approx(inside)

    def test_kuhn_tucker_kind_matches_operator(self, rng):
        inst = one_dim_instance()
        for _ in range(50):
            x = rng.standard_normal(2)
            assert np.array_equal(kt_operator(inst, x), kt_apply_flat(inst, x)[0])
