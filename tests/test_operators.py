import re

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
)
from mflow.operators import operator_from_config


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


def test_linear_monotone_resolvent_non_symmetric():
    # positive definite symmetric part plus a skew part
    M = np.array([[1.0, 2.0, -0.5], [-1.5, 0.5, 1.0], [0.3, -1.2, 0.8]])
    op = LinearMonotone(M)
    x = np.array([0.7, -1.3, 2.1])
    # 1.0 comes twice: a repeated step size must give the same solve
    for gamma in (0.1, 1.0, 3.5, 1.0, 20.0):
        y = op.resolvent(gamma, x)
        assert np.max(np.abs(y + gamma * (M @ y) - x)) <= 1e-12


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LinearMap([[bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            LinearMonotone([[bad]])


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


def test_single_point_matches_row_path_at_blas_size(rng):
    # a 1-D input goes through ndarray.dot, a stack through np.matmul
    L = LinearMap(rng.standard_normal((500, 1000)) / np.sqrt(1000))
    xs = rng.standard_normal((3, 1000))
    ys = rng.standard_normal((3, 500))
    applied, adjoined = L.apply(xs), L.adjoint(ys)
    for k in range(3):
        assert L.apply(xs[k]).tobytes() == applied[k].tobytes()
        assert L.adjoint(ys[k]).tobytes() == adjoined[k].tobytes()


def test_adjoint_identity(rng):
    L = LinearMap(rng.standard_normal((3, 2)))
    for _ in range(100):
        x = rng.standard_normal(2)
        y = rng.standard_normal(3)
        assert float(L.apply(x) @ y) == pytest.approx(
            float(x @ L.adjoint(y)), rel=1e-12, abs=1e-12
        )


def test_operator_config_round_trip():
    docs = [
        ({"tag": "quadratic", "b": [1.0, 2.0]}, Quadratic),
        ({"tag": "l1", "weight": 0.5}, L1),
        ({"tag": "box", "lower": [0.0], "upper": [1.0]}, BoxNormalCone),
        ({"tag": "ball", "center": [0.0, 0.0], "radius": 1.0}, BallNormalCone),
        ({"tag": "zero"}, Zero),
        ({"tag": "linear_psd", "matrix": [[2.0, 1.0], [1.0, 2.0]]}, LinearMonotone),
    ]
    for doc, cls in docs:
        assert type(operator_from_config(doc)) is cls
    known = "known: ['ball', 'box', 'l1', 'linear_psd', 'quadratic', 'zero']"
    with pytest.raises(ValueError, match=re.escape(f"unknown operator tag 'nope'; {known}")):
        operator_from_config({"tag": "nope"})
    with pytest.raises(ValueError):
        operator_from_config({"tag": "l1", "bogus": 1})


# symmetric and diagonally dominant, so positive definite; integer entries
# make the int conversion exact
SQUARE = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]


def _strided(matrix):
    """A view of ``matrix`` with every other column of a wider array."""
    wide = np.zeros((len(matrix), 2 * len(matrix[0])))
    wide[:, ::2] = matrix
    return wide[:, ::2]


def _unaligned(matrix):
    """A C-contiguous float64 copy of ``matrix`` that starts one byte into its buffer."""
    A = np.array(matrix, dtype=float)
    buf = np.zeros(A.nbytes + 1, dtype=np.uint8)
    M = buf[1:].view(np.float64).reshape(A.shape)
    M[...] = A
    return M


@pytest.mark.parametrize("cls", [LinearMap, LinearMonotone])
class TestMatrixStorage:
    """A float64 contiguous matrix is kept as a read-only view; other input is copied."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_float64_is_viewed(self, cls, order):
        A = np.array(SQUARE, order=order)
        M = cls(A).matrix
        assert np.shares_memory(M, A)
        assert M.strides == A.strides
        assert not M.flags.writeable
        assert A.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0

    @pytest.mark.parametrize(
        "convert",
        [
            lambda A: A,
            lambda A: np.array(A, dtype=int),
            lambda A: np.array(A, dtype=int, order="F"),
            lambda A: np.array(A, dtype=">f8"),
            _strided,
            _unaligned,
        ],
        ids=["list", "int", "int-F", "big-endian", "strided", "unaligned"],
    )
    def test_other_input_is_copied_as_np_array_lays_it_out(self, cls, convert):
        x = convert(SQUARE)
        M = cls(x).matrix
        expected = np.array(x, dtype=float)
        assert not np.shares_memory(M, x)
        assert M.dtype == np.float64
        assert M.strides == expected.strides
        assert M.flags.aligned and not M.flags.writeable
        assert np.array_equal(M, SQUARE)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_array_is_rejected(self, cls, order, bad):
        A = np.array(SQUARE, order=order)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            cls(A)
        assert A.flags.writeable

    def test_non_matrix_is_rejected(self, cls):
        with pytest.raises(ValueError, match="expected a matrix"):
            cls(np.ones(3))
