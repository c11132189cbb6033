"""Row parity: every kernel given a (k, dim) stack returns, row by row, the
bits the same kernel returns for each row alone.

Rows are drawn badly scaled on purpose: each row is a unit-range vector
times its own power of ten, so one stack mixes magnitudes from 1e-6 to 1e6.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mflow import (
    BallNormalCone,
    BoxNormalCone,
    EmptyIntersectionError,
    L1,
    LinearMap,
    LinearMonotone,
    PDPoint,
    ProblemInstance,
    Quadratic,
    Zero,
    build_field,
    builtin_tags,
    get_instance,
    haugazeau_projection,
    kt_operator,
    project_onto_halfspaces,
)
from mflow.geometry import haugazeau_rows
from mflow.splitting import kt_apply_flat, kt_apply_rows

from .oracles import cut

SETTINGS = settings(max_examples=60, deadline=None)


def unit_floats():
    return st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


def scaled_rows(data, k, dim):
    rows = data.draw(arrays(float, (k, dim), elements=unit_floats()))
    powers = data.draw(arrays(int, (k, 1), elements=st.integers(-6, 6)))
    return rows * 10.0 ** powers


def draw_rows(data, dim, max_rows=6):
    return scaled_rows(data, data.draw(st.integers(1, max_rows)), dim)


def assert_rows_equal(rows_out, singles):
    expected = np.stack(singles)
    assert rows_out.shape == expected.shape
    assert rows_out.tobytes() == expected.tobytes()


def assert_same_outcome(row_call, single_call, points):
    """Rows raise exactly when some single point raises; otherwise bits match."""
    singles = []
    for x in points:
        try:
            singles.append(single_call(x))
        except EmptyIntersectionError:
            with pytest.raises(EmptyIntersectionError):
                row_call()
            return
    assert_rows_equal(row_call(), singles)


def draw_operator(data, kind, dim):
    vec = data.draw(arrays(float, dim, elements=st.floats(-3.0, 3.0)))
    if kind == "quadratic":
        return Quadratic(vec)
    if kind == "l1":
        return L1(data.draw(st.floats(0.01, 5.0)))
    if kind == "box":
        return BoxNormalCone(vec - 1.0, vec + data.draw(st.floats(0.0, 2.0)))
    if kind == "ball":
        return BallNormalCone(vec, data.draw(st.floats(0.01, 5.0)))
    if kind == "zero":
        return Zero()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((dim, dim))
    s = rng.standard_normal((dim, dim))
    return LinearMonotone(a @ a.T / dim + (s - s.T))


KINDS = ("quadratic", "l1", "box", "ball", "zero", "linear_psd")


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(data=st.data())
def test_resolvent_rows(kind, data):
    dim = data.draw(st.integers(1, 6))
    op = draw_operator(data, kind, dim)
    gamma = data.draw(st.floats(0.01, 10.0))
    x = draw_rows(data, dim)
    assert_rows_equal(op.resolvent(gamma, x), [op.resolvent(gamma, row) for row in x])


def test_box_resolvent_rows_keep_signed_zero():
    # np.clip gave 0.0 for the point -0.0 and -0.0 for the row [-0.0]
    box = BoxNormalCone([-1.0], [0.0])
    x = np.array([[-0.0], [0.0], [2.0]])
    assert_rows_equal(box.resolvent(1.0, x), [box.resolvent(1.0, row) for row in x])


def test_ball_resolvent_rows_inside_and_at_center():
    ball = BallNormalCone([1.0, 1.0], 2.0)
    x = np.array([[1.0, 1.0], [1.5, 0.5], [10.0, -3.0]])
    assert_rows_equal(ball.resolvent(0.5, x), [ball.resolvent(0.5, row) for row in x])


@SETTINGS
@given(data=st.data())
def test_linear_map_rows(data):
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    L = LinearMap(scaled_rows(data, m, n))
    k = data.draw(st.integers(1, 6))
    x = scaled_rows(data, k, n)
    y = scaled_rows(data, k, m)
    assert_rows_equal(L.apply(x), [L.apply(row) for row in x])
    assert_rows_equal(L.adjoint(y), [L.adjoint(row) for row in y])
    # a column slice of a wider stack is not contiguous
    wide = np.hstack([x, y])
    assert_rows_equal(L.apply(wide[:, :n]), [L.apply(row[:n]) for row in wide])
    assert_rows_equal(L.adjoint(wide[:, n:]), [L.adjoint(row[n:]) for row in wide])


def draw_instance(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    A = draw_operator(data, data.draw(st.sampled_from(KINDS)), n)
    B = draw_operator(data, data.draw(st.sampled_from(KINDS)), m)
    L = LinearMap(data.draw(arrays(float, (m, n), elements=st.floats(-2.0, 2.0))))
    gamma = data.draw(st.floats(0.05, 0.95))
    mu = data.draw(st.floats(0.05, 0.95))
    w = PDPoint(np.zeros(n), np.zeros(m))
    return ProblemInstance(A=A, B=B, L=L, gamma=gamma, mu=mu, w=w, x0=w)


@SETTINGS
@given(data=st.data())
def test_kt_rows(data):
    inst = draw_instance(data)
    x = draw_rows(data, inst.dim)
    tx, resid = kt_apply_rows(inst, x)
    singles = [kt_apply_flat(inst, row) for row in x]
    assert_rows_equal(tx, [t for t, _ in singles])
    assert resid.tobytes() == np.array([r for _, r in singles]).tobytes()
    assert_rows_equal(kt_operator(inst, x), [kt_operator(inst, row) for row in x])


def test_kt_rows_keep_fixed_points_exactly():
    named = get_instance("quadratic3x2")
    x = np.stack([named.z, named.z + 0.1])
    tx, resid = kt_apply_rows(named.instance, x)
    assert tx[0].tobytes() == named.z.tobytes()
    assert resid[0] == 0.0 and resid[1] > 0.0


def overflow_instance():
    """Quadratic blocks whose first cut overflows from every start."""
    origin = PDPoint([0.0], [0.0])
    return ProblemInstance(
        A=Quadratic([1e308]),
        B=Quadratic([-1e308]),
        L=LinearMap([[1e3]]),
        gamma=0.5,
        mu=0.5,
        w=origin,
        x0=origin,
    )


@pytest.mark.parametrize(
    "inst, x",
    [
        (overflow_instance(), np.array([[0.0, 0.0], [1.0, -1.0]])),
        (
            get_instance("quadratic3x2").instance,
            np.vstack([get_instance("quadratic3x2").z + 0.1, np.full(5, 1e200)]),
        ),
    ],
    ids=["overflow-start", "huge-row"],
)
def test_kt_rows_propagate_nan(inst, x):
    # a non-finite cut moves its row to NaN, as it moves a single point
    with np.errstate(over="ignore", invalid="ignore"):
        tx, resid = kt_apply_rows(inst, x)
        singles = [kt_apply_flat(inst, row) for row in x]
    assert np.isnan(tx[-1]).all()
    # equal values, and NaN in the same places
    np.testing.assert_array_equal(tx, [t for t, _ in singles], strict=True)
    np.testing.assert_array_equal(resid, [r for _, r in singles], strict=True)


def test_kt_point_and_row_agree_on_nonfinite_cut():
    # one point goes NaN as its row does, instead of raising
    inst = overflow_instance()
    with np.errstate(over="ignore", invalid="ignore"):
        single, rows = kt_operator(inst, np.zeros(2)), kt_operator(inst, np.zeros((1, 2)))
    np.testing.assert_array_equal(single, rows[0], strict=True)
    assert np.isnan(single).all()


def q_batch(data, dim):
    """Anchor and cut points with rows of cases i, ii and iii, plus degenerate rows."""
    w = scaled_rows(data, 1, dim)[0]
    k = data.draw(st.integers(1, 6))
    b = scaled_rows(data, k, dim)
    c = scaled_rows(data, k, dim)
    s = data.draw(st.floats(0.1, 10.0))
    # case i: c beyond b on the ray from w (collinear, pi >= 0); b == w; c == b
    b_col, c_col = b[:1], b[:1] - s * (w - b[:1])
    return w, np.vstack([b, b_col, w[None], c[:1]]), np.vstack([c, c_col, c[:1], c[:1]])


@SETTINGS
@given(data=st.data())
def test_haugazeau_rows(data):
    dim = data.draw(st.integers(1, 5))
    w, b, c = q_batch(data, dim)
    assert_same_outcome(
        lambda: haugazeau_rows(w, b, c),
        lambda bc: haugazeau_projection(w, bc[:dim], bc[dim:]),
        np.hstack([b, c]),
    )


def test_haugazeau_rows_mixed_cases_and_case_iv():
    w = np.zeros(2)
    b = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [3.0, -4.0]])
    c = np.array([[2.0, 0.0], [2.0, 0.1], [1.0, 1.0], [1.0, 1.0], [3.0, 5.0]])
    cases = {haugazeau_projection(w, bi, ci, return_case=True)[1] for bi, ci in zip(b, c)}
    assert cases == {"i", "ii", "iii"}
    assert_rows_equal(
        haugazeau_rows(w, b, c), [haugazeau_projection(w, bi, ci) for bi, ci in zip(b, c)]
    )
    # one opposing collinear row (case iv) fails the whole batch
    b_iv = np.vstack([b, [[1.0, 0.0]]])
    c_iv = np.vstack([c, [[0.5, 0.0]]])
    with pytest.raises(EmptyIntersectionError, match="case iv"):
        haugazeau_rows(w, b_iv, c_iv)


@SETTINGS
@given(data=st.data())
def test_halfspace_rows(data):
    dim = data.draw(st.integers(1, 5))
    w, b, c = q_batch(data, dim)
    # one anchor against stacked points, in either position
    for z1, z2 in ((w, b), (b, c), (b, w)):
        rows = cut(z1, z2)
        singles = [
            cut(z1 if z1.ndim == 1 else z1[i], z2 if z2.ndim == 1 else z2[i])
            for i in range(len(b))
        ]
        assert_rows_equal(
            project_onto_halfspaces([rows], w), [project_onto_halfspaces([h], w) for h in singles]
        )

    cuts = [cut(w, b), cut(b, c)]
    assert_same_outcome(
        lambda: project_onto_halfspaces(cuts, w),
        lambda bc: project_onto_halfspaces([cut(w, bc[:dim]), cut(bc[:dim], bc[dim:])], w),
        np.hstack([b, c]),
    )


def test_project_onto_halfspaces_rows_whole_space_mix():
    # rows with both, one or neither cut active, and a shared single cut
    w = np.array([0.0, 0.0])
    b = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0]])
    c = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0], [3.0, 3.0]])
    cuts = [cut(w, b), cut(b, c)]
    singles = [project_onto_halfspaces([cut(w, bi), cut(bi, ci)], w) for bi, ci in zip(b, c)]
    assert_rows_equal(project_onto_halfspaces(cuts, w), singles)

    shared = ([1.0, 1.0], -1.0)
    singles = [project_onto_halfspaces([shared, cut(w, bi)], w) for bi in b]
    assert_rows_equal(project_onto_halfspaces([shared, cuts[0]], w), singles)
    with pytest.raises(ValueError, match="at most two"):
        project_onto_halfspaces([shared, cuts[0], cuts[1]], w)


@pytest.mark.parametrize("tag", builtin_tags())
@SETTINGS
@given(data=st.data())
def test_fields_rows(tag, data):
    named = get_instance(tag)
    fields = [named.field if named.instance is None else build_field(named.instance, cap=named.cap)]
    if tag == "lens-drift":
        fields.append(named.extended_field)
    dim = named.z.shape[0]
    # points around the solution, offset at every scale
    x = named.z + draw_rows(data, dim)
    for F in fields:
        assert_same_outcome(lambda: F(x), F, x)
        if F.target is not None:
            assert_same_outcome(lambda: F.target(x), F.target, x)
