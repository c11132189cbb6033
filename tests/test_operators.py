import numpy as np
import pytest

from mflow import (
    BallNormalCone,
    BoxNormalCone,
    L1,
    LinearMap,
    LinearMonotone,
    Quadratic,
    Zero,
    operator_from_config,
    operator_library,
)


def catalog_samples():
    """One representative instance per catalog entry."""
    return [
        Quadratic([1.0, 1.0]),
        L1(),
        L1(weight=0.7),
        BoxNormalCone([0.0, 0.0], [1.0, 1.0]),
        BallNormalCone([0.0, 0.0], 1.0),
        Zero(),
        LinearMonotone([[2.0, 0.0], [0.0, 2.0]]),
        LinearMonotone([[1.0, 0.4], [0.1, 0.5]]),
    ]


def test_soft_threshold_resolvent():
    op = L1()
    assert op.resolvent(1.0, [2.5]) == pytest.approx([1.5])
    assert op.resolvent(1.0, [-0.5]) == pytest.approx([0.0])


def test_translation_resolvent_linear_solve():
    # y + 0.5 (y - p0) = x at x = 0 gives y = p0 / 3
    op = Quadratic([1.0, 1.0])
    assert op.resolvent(0.5, [0.0, 0.0]) == pytest.approx([1 / 3, 1 / 3], abs=1e-15)


def test_yosida_examples():
    op = L1()
    assert op.yosida(1.0, [2.5]) == pytest.approx([1.0])
    # at a zero of the operator the resolvent is the identity
    assert op.yosida(1.0, [0.0]) == pytest.approx([0.0])
    shift = Quadratic([1.0])
    assert shift.yosida(0.5, [0.0]) == pytest.approx([-2 / 3], abs=1e-15)


def test_box_and_ball_projections():
    box = BoxNormalCone([0.0, 0.0], [1.0, 1.0])
    assert box.resolvent(3.7, [2.0, -3.0]) == pytest.approx([1.0, 0.0])
    ball = BallNormalCone([0.0, 0.0], 1.0)
    assert ball.resolvent(1.0, [3.0, 4.0]) == pytest.approx([0.6, 0.8])


def test_linear_psd_resolvent():
    op = LinearMonotone([[2.0, 0.0], [0.0, 2.0]])
    assert op.resolvent(0.5, [4.0, 4.0]) == pytest.approx([2.0, 2.0], abs=1e-14)


def test_zero_resolvent_is_identity(rng):
    op = Zero()
    x = rng.standard_normal(4)
    assert np.array_equal(op.resolvent(0.3, x), x)


def test_gamma_must_be_positive():
    for op in (Quadratic([0.0]), L1(), Zero()):
        with pytest.raises(ValueError):
            op.resolvent(0.0, [1.0])
        with pytest.raises(ValueError):
            op.yosida(-1.0, [1.0])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        BoxNormalCone([1.0], [0.0])
    with pytest.raises(ValueError):
        BallNormalCone([0.0], -1.0)
    with pytest.raises(ValueError):
        L1(weight=0.0)
    with pytest.raises(ValueError):
        LinearMonotone([[-1.0]])


def _random_point(op, rng):
    d = op.dim if op.dim is not None else 3
    return rng.standard_normal(d) * 2.0


def test_firm_nonexpansiveness_of_catalog(rng):
    # ||Jx - Jy||^2 + ||(x - Jx) - (y - Jy)||^2 <= ||x - y||^2
    for op in catalog_samples():
        for _ in range(1000):
            gamma = float(rng.uniform(0.05, 2.0))
            x = _random_point(op, rng)
            y = _random_point(op, rng)
            jx = op.resolvent(gamma, x)
            jy = op.resolvent(gamma, y)
            lhs = np.sum((jx - jy) ** 2) + np.sum(((x - jx) - (y - jy)) ** 2)
            rhs = np.sum((x - y) ** 2)
            assert lhs <= rhs + 1e-10


def test_resolvent_identity_exact(rng):
    # x = J(gamma, x) + gamma * yosida(gamma, x) up to 1e-14
    for op in catalog_samples():
        for _ in range(200):
            gamma = float(rng.uniform(0.05, 2.0))
            x = _random_point(op, rng)
            j = op.resolvent(gamma, x)
            y = op.yosida(gamma, x)
            assert np.max(np.abs(j + gamma * y - x)) <= 1e-14 * (1 + np.abs(x).max())


def test_graph_consistency_via_member(rng):
    # the pair (J(x), yosida(x)) lies in the operator graph
    for op in catalog_samples():
        for _ in range(200):
            gamma = float(rng.uniform(0.1, 1.5))
            x = _random_point(op, rng)
            j = op.resolvent(gamma, x)
            y = op.yosida(gamma, x)
            assert op.member(j, y, tol=1e-8)


def test_linear_map_examples():
    ident = LinearMap([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(ident.apply([3.0, 7.0]), [3.0, 7.0])
    row = LinearMap([[1.0, 1.0]])
    assert row.apply([2.0, 3.0]) == pytest.approx([5.0])
    assert row.adjoint([4.0]) == pytest.approx([4.0, 4.0])
    with pytest.raises(ValueError):
        row.apply([1.0, 2.0, 3.0])


def test_adjoint_identity(rng):
    L = LinearMap(rng.standard_normal((3, 2)))
    for _ in range(100):
        x = rng.standard_normal(2)
        y = rng.standard_normal(3)
        assert float(L.apply(x) @ y) == pytest.approx(
            float(x @ L.adjoint(y)), rel=1e-12, abs=1e-12
        )


def test_operator_config_round_trip():
    tags = operator_library()
    assert set(tags) == {"quadratic", "l1", "box", "ball", "zero", "linear_psd"}
    op = operator_from_config({"tag": "quadratic", "b": [1.0, 2.0]})
    assert isinstance(op, Quadratic)
    op = operator_from_config({"tag": "box", "lower": [0.0], "upper": [1.0]})
    assert isinstance(op, BoxNormalCone)
    with pytest.raises(ValueError):
        operator_from_config({"tag": "nope"})
    with pytest.raises(ValueError):
        operator_from_config({"tag": "l1", "bogus": 1})
