import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mflow import (
    GEOM_TOL,
    Cap,
    EmptyIntersectionError,
    cap_membership,
    haugazeau_projection,
    project_onto_halfspaces,
    sample_cap,
)
from mflow.geometry import haugazeau_rows

from .oracles import cut, project_two_constraints, two_cut_projection_oracle


def vector(data, dim, power=0):
    """Entries in [-1, 1] (none below 1e-30 but zero) times ``10**power``."""
    entries = st.floats(-1.0, 1.0, allow_subnormal=False).map(
        lambda v: v if abs(v) > 1e-30 else 0.0
    )
    return data.draw(arrays(float, dim, elements=entries)) * 10.0**power


def cut_pair(data, kind):
    """Anchor ``w`` and two cuts of the named kind, with badly scaled ``w``.

    Each cut's boundary passes through its own point near ``w``; ``"b_is_w"``
    is the pair ``H(w, w) & H(w, c)`` whose first cut is the whole space.
    """
    dim = data.draw(st.integers(2, 5))
    w = vector(data, dim, data.draw(st.integers(-6, 6)))
    a1 = vector(data, dim, data.draw(st.integers(-3, 3)))
    if kind == "b_is_w":
        c = w + vector(data, dim, data.draw(st.integers(-6, 6)))
        return w, [cut(w, w), cut(w, c)]
    if kind == "general":
        a2 = vector(data, dim, data.draw(st.integers(-3, 3)))
    elif kind == "near_parallel":
        # same orientation, tilted by a relative 10**-6.5 to 10**-1.5
        tilt = 10.0 ** -data.draw(st.floats(1.5, 6.5))
        a2 = data.draw(st.floats(0.1, 10.0)) * a1 + tilt * np.abs(a1).max() * vector(data, dim)
    else:
        a2 = np.zeros(dim)
    points = [w + vector(data, dim, data.draw(st.integers(-6, 6))) for _ in range(2)]
    offsets = [float(y @ a) for y, a in zip(points, (a1, a2))]
    if kind == "whole":
        offsets[1] = abs(offsets[1])
    cuts = [(a1, offsets[0]), (a2, offsets[1])]
    return w, cuts[:: data.draw(st.sampled_from([1, -1]))]


class TestHalfSpace:
    """Cut pairs ``(normal, offset)`` are checked once, where they enter."""

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="finite"):
            project_onto_halfspaces([([1.0, 0.0], offset)], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            project_onto_halfspaces([([[1.0, 0.0], [0.0, 1.0]], [0.0, offset])], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            project_onto_halfspaces([([offset, 0.0], 0.0)], [0.0, 0.0])
        # every cut is checked before any is found empty
        with pytest.raises(ValueError, match="finite"):
            project_onto_halfspaces([([0.0, 0.0], -1.0), ([1.0, 0.0], offset)], [0.0, 0.0])

    def test_stack_shapes(self):
        stack = ([[1.0, 0.0], [0.0, 2.0]], [0.5, 1.0])
        assert project_onto_halfspaces([stack], [1.0, 1.0]).tolist() == [[0.5, 1.0], [1.0, 0.5]]
        with pytest.raises(ValueError, match="offset"):
            project_onto_halfspaces([([[1.0, 0.0], [0.0, 2.0]], 0.5)], [1.0, 1.0])
        for normal, offset in (([[[1.0]]], [[0.0]]), ([], 0.0), (np.zeros((2, 0)), np.zeros(2))):
            with pytest.raises(ValueError, match="shape"):
                project_onto_halfspaces([(normal, offset)], [1.0])


class TestProjectHalfspace:
    """One cut, projected through :func:`project_onto_halfspaces`."""

    def test_already_feasible(self):
        hs = ([1.0, 0.0], 0.0)
        assert np.array_equal(project_onto_halfspaces([hs], [-1.0, 5.0]), [-1.0, 5.0])

    def test_axis_aligned(self):
        hs = ([1.0, 0.0], 0.0)
        assert project_onto_halfspaces([hs], [2.0, 3.0]) == pytest.approx([0.0, 3.0])

    def test_general_case_against_oracle(self):
        hs = ([3.0, 4.0], 10.0)
        got = project_onto_halfspaces([hs], [6.0, 8.0])
        assert got == pytest.approx([1.2, 1.6], abs=1e-12)

    def test_minimizer_property(self, rng):
        normal, offset = np.array([3.0, 4.0]), 10.0
        w = np.array([6.0, 8.0])
        q = project_onto_halfspaces([(normal, offset)], w)
        for _ in range(200):
            y = rng.standard_normal(2) * 5.0
            if y @ normal <= offset:
                assert np.linalg.norm(w - q) <= np.linalg.norm(w - y) + 1e-12

    def test_empty_halfspace_rejected(self):
        with pytest.raises(EmptyIntersectionError):
            project_onto_halfspaces([([0.0, 0.0], -1.0)], [1.0, 1.0])

    def test_tiny_normal(self):
        # ||normal||^2 underflows to 0 for entries below about 1e-154
        hs = (np.full(2, 2.17e-204), 0.0)
        assert project_onto_halfspaces([hs], [0.0, 1.0]) == pytest.approx([-0.5, 0.5])
        rows = (np.full((3, 2), 2.17e-204), np.zeros(3))
        got = project_onto_halfspaces([rows], [0.0, 1.0])
        assert got.shape == (3, 2)
        assert np.allclose(got, [-0.5, 0.5], rtol=0.0, atol=1e-15)
        got = project_onto_halfspaces([([1e-300, 0.0], 0.0)], [1.0, 1.0])
        assert np.all(np.isfinite(got))
        assert got == pytest.approx([0.0, 1.0])


class TestTwoCutProjection:
    def test_degenerate_first_cut(self):
        # anchor equals the first cut point: only the second cut is active
        got = haugazeau_projection([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert got == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_collinear_case_i(self):
        got, case = haugazeau_projection(
            [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], return_case=True
        )
        assert case == "i"
        assert got == pytest.approx([2.0, 0.0], abs=1e-14)
        assert got == pytest.approx(
            two_cut_projection_oracle([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]), abs=1e-12
        )

    def test_orthogonal_case_iii(self):
        got, case = haugazeau_projection(
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], return_case=True
        )
        assert case == "iii"
        assert got == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_case_ii_against_oracle(self):
        # nearly collinear cuts: only the second constraint ends up active
        w = np.array([0.0, 0.0])
        b = np.array([1.0, 0.0])
        c = np.array([2.0, 0.1])
        got, case = haugazeau_projection(w, b, c, return_case=True)
        ref = two_cut_projection_oracle(w, b, c)
        assert case == "ii"
        assert got == pytest.approx(ref, abs=1e-12)

    def test_identical_points_are_fixed(self):
        got = haugazeau_projection([0.5, -0.5], [0.5, -0.5], [0.5, -0.5])
        assert got == pytest.approx([0.5, -0.5], abs=1e-15)

    def test_second_cut_degenerate(self):
        # c == b: reduces to the single-cut projection, which lands on b
        got = haugazeau_projection([0.0, 0.0], [1.0, 2.0], [1.0, 2.0])
        assert got == pytest.approx([1.0, 2.0], abs=1e-14)

    def test_empty_intersection_raises(self):
        with pytest.raises(EmptyIntersectionError):
            haugazeau_projection([0.0, 0.0], [1.0, 0.0], [0.5, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            haugazeau_projection([0.0], [1.0, 0.0], [1.0, 1.0])

    def test_matches_oracle_on_random_triples(self, rng):
        # the acceptance sweep plus feasibility of the returned point
        for _ in range(1000):
            d = int(rng.integers(2, 11))
            w = rng.standard_normal(d) * 3.0
            b = rng.standard_normal(d) * 3.0
            c = rng.standard_normal(d) * 3.0
            got = haugazeau_projection(w, b, c)
            ref = two_cut_projection_oracle(w, b, c)
            assert ref is not None
            assert np.linalg.norm(got - ref) <= 1e-9 * (1 + np.linalg.norm(ref))
            for z1, z2 in ((w, b), (b, c)):
                normal, offset = cut(z1, z2)
                assert got @ normal - offset <= 1e-10 * (1 + abs(offset))


def dyadic_points(dim):
    """Three points with entries i / 2**10, |i| <= 2**20: their Gram data is exact."""
    entry = st.integers(-(2**20), 2**20).map(lambda i: i / 2**10)
    return st.tuples(*(arrays(float, dim, elements=entry) for _ in range(3)))


class TestTwoCutProjectionScaling:
    def test_underflowing_gram_data(self):
        # ||w - b||^2 is subnormal: unscaled, case iii divided by a vanishing rho
        w, b, c = [7.7e-159, 0.0], [0.0, 0.0], [1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, case = haugazeau_projection(w, b, c, return_case=True)
            rows = haugazeau_rows(np.array(w), np.array([b]), np.array([c]))
        assert case == "iii"
        assert np.array_equal(got, [0.0, 2.0])
        assert rows.tobytes() == got.tobytes()

    @given(st.integers(2, 5).flatmap(dyadic_points), st.integers(-500, 500))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_commutes(self, points, k):
        # Q(2^k w, 2^k b, 2^k c) = 2^k Q(w, b, c) bit for bit, also where the
        # scaled Gram data under- or overflows; the point and its row agree
        w, b, c = points
        try:
            want = haugazeau_projection(w, b, c)
        except EmptyIntersectionError:
            assume(False)
        ws, bs, cs = (np.ldexp(v, k) for v in points)
        # an overflowing Gram entry warns before it is rescaled
        with np.errstate(over="ignore"):
            got = haugazeau_projection(ws, bs, cs)
            rows = haugazeau_rows(ws, bs[None], cs[None])
        assert got.tobytes() == np.ldexp(want, k).tobytes()
        assert rows[0].tobytes() == got.tobytes()


class TestProjectOntoHalfspaces:
    def test_no_constraints(self):
        assert np.array_equal(
            project_onto_halfspaces([], [1.0, 2.0]), [1.0, 2.0]
        )

    def test_matches_two_cut_form(self, rng):
        for _ in range(100):
            w = rng.standard_normal(3)
            b = rng.standard_normal(3)
            c = rng.standard_normal(3)
            cuts = [cut(w, b), cut(b, c)]
            got = project_onto_halfspaces(cuts, w)
            ref = haugazeau_projection(w, b, c)
            assert got == pytest.approx(ref, abs=1e-9)

    def test_stacked_cuts_match_oracle(self, rng):
        # rows with two general cuts, two parallel cuts, or one whole-space cut
        w = rng.standard_normal(3)
        normals, offsets = [], []
        for kind in ("general", "parallel", "second_whole", "first_whole") * 30:
            a1 = rng.standard_normal(3)
            a2 = {"general": rng.standard_normal(3), "parallel": 2.5 * a1}.get(kind)
            a2 = np.zeros(3) if a2 is None else a2
            pair = [a1, a2]
            beta = [rng.standard_normal(), abs(rng.standard_normal())]
            if kind == "first_whole":
                pair, beta = pair[::-1], beta[::-1]
            normals.append(pair)
            offsets.append(beta)
        normals, offsets = np.array(normals), np.array(offsets)
        cuts = [(normals[:, i], offsets[:, i]) for i in (0, 1)]
        got = project_onto_halfspaces(cuts, w)
        for row, a, beta in zip(got, normals, offsets):
            ref = project_two_constraints(w, a, beta)
            assert np.linalg.norm(row - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["general", "near_parallel", "whole", "b_is_w"]))
    def test_matches_enumeration(self, data, kind):
        w, cuts = cut_pair(data, kind)
        n1, n2 = (n for n, _ in cuts)
        inner = float(n1 @ n2)
        sin2 = 1.0 - inner**2 / float((n1 @ n1) * (n2 @ n2)) if inner else 1.0
        # an opposing pair this close to parallel meets far from w, where the
        # enumeration's Gram solve cannot resolve the corner
        assume(inner > 0.0 or sin2 > 1e-6)
        got = project_onto_halfspaces(cuts, w)
        # the enumeration's feasibility tolerance is in distance units on unit normals
        norms = [np.linalg.norm(n) for n, _ in cuts]
        unit = [(n / s, o / s) if s > 0 else (n, o) for (n, o), s in zip(cuts, norms)]
        ref = project_two_constraints(w, *zip(*unit))
        assert ref is not None
        scale = 1.0 + np.linalg.norm(w) + max(abs(o) for _, o in unit)
        tol = 1e-8 * (scale + np.linalg.norm(w - ref))
        if kind == "near_parallel":
            # case (i) of the two-cut projection takes sin^2 <= GEOM_TOL as parallel,
            # which moves the result by at most sin * ||w - b|| <= sin * ||w - ref||
            tol += np.sqrt(GEOM_TOL) * np.linalg.norm(w - ref)
        assert np.linalg.norm(got - ref) <= tol
        for n, o in cuts:
            assert got @ n - o <= tol * np.linalg.norm(n)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_near_parallel_opposing_cuts_are_empty(self, data):
        # the opposing pair is empty near w; numerically the two-cut projection's case (iv)
        dim = data.draw(st.integers(2, 5))
        w = vector(data, dim, data.draw(st.integers(-3, 3)))
        a1 = vector(data, dim, data.draw(st.integers(-3, 3)))
        tilt = data.draw(st.one_of(st.just(0.0), st.floats(1e-15, 1e-6)))
        a2 = -data.draw(st.floats(0.1, 10.0)) * a1 + tilt * np.abs(a1).max() * vector(data, dim)
        y = w + vector(data, dim, data.draw(st.integers(-3, 3)))
        gap = data.draw(st.floats(0.1, 10.0)) * (1.0 + np.linalg.norm(w - y))
        cuts = [(a1, y @ a1), (a2, y @ a2 - gap * np.linalg.norm(a2))]
        assume(np.abs(a1).max() > 1e-6)
        # only a pair within the two-cut projection's parallel test is empty near w: a
        # larger tilt meets far from w (test_far_corner_is_not_empty); half the
        # tolerance leaves room for the rounding of the projected points
        sin2 = 1.0 - (a1 @ a2) ** 2 / ((a1 @ a1) * (a2 @ a2))
        assume(sin2 <= GEOM_TOL / 2)
        with pytest.raises(EmptyIntersectionError):
            project_onto_halfspaces(cuts[:: data.draw(st.sampled_from([1, -1]))], w)

    def test_far_corner_is_not_empty(self):
        # {x + 2**-14 y <= 0} and {x >= 1} meet at (1, -16384), far from w
        cuts = [([1.0, 2.0**-14], 0.0), ([-1.0, 0.0], -1.0)]
        got = project_onto_halfspaces(cuts, [0.0, 0.0])
        assert got == pytest.approx([1.0, -16384.0], rel=1e-7)

    def test_tiny_normal_pair(self):
        # a normal whose square underflows still gives the two-cut projection
        cuts = [(np.full(2, 2.17e-204), 0.0), ([0.0, 1.0], 0.25)]
        got = project_onto_halfspaces(cuts, [0.0, 1.0])
        assert got == pytest.approx([-0.25, 0.25], abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["general", "near_parallel", "whole"]),
        k=st.integers(-600, 600),
        which=st.sampled_from([0, 1]),
    )
    def test_power_of_two_scaling_is_exact(self, data, kind, k, which):
        w, cuts = cut_pair(data, kind)
        scaled = list(cuts)
        scaled[which] = tuple(np.ldexp(part, k) for part in cuts[which])
        try:
            got = project_onto_halfspaces(cuts, w)
        except EmptyIntersectionError:
            with pytest.raises(EmptyIntersectionError):
                project_onto_halfspaces(scaled, w)
            return
        assert project_onto_halfspaces(scaled, w).tobytes() == got.tobytes()

    def test_lone_active_cut_is_projected_onto(self):
        # no feasibility screen for one cut: w within the tolerance still moves
        active = ([1.0, 0.0], -1e-12)
        whole = ([0.0, 0.0], 0.0)
        got = project_onto_halfspaces([active, whole], [0.0, 0.0])
        assert got.tolist() == [-1e-12, 0.0]

    def test_too_many_halfspaces(self):
        hs = ([1.0], 0.0)
        with pytest.raises(ValueError):
            project_onto_halfspaces([hs, hs, hs], [1.0])


class TestCap:
    def test_invariant_bounds(self):
        with pytest.raises(ValueError):
            Cap([0.0, 0.0], [1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            Cap([0.0, 0.0], [1.0, 0.0], 1.0)  # r must stay below ||w-z||^2
        cap = Cap([0.0, 0.0], [1.0, 0.0], 0.5)
        assert cap.radius == 0.5
        assert np.array_equal(cap.center, [0.5, 0.0])

    def test_center_near_the_top_of_the_float_range(self, rng):
        # w + z overflows, their halves do not
        cap = Cap([1e308, 0.0], [1e308, 1.0], 0.25)
        assert np.array_equal(cap.center, [1e308, 0.5])
        assert sample_cap(cap, 4).shape == (4, 2)
        # halving first gives the same bits wherever no half is subnormal
        scale = np.ldexp(1.0, rng.integers(-300, 301, (2, 10_000, 1)))
        w, z = rng.standard_normal((2, 10_000, 3)) * scale
        assert np.array_equal(0.5 * w + 0.5 * z, 0.5 * (w + z))

    def test_overflowing_diameter_rejected(self):
        # ||w - z||^2 overflows, and in the second pair w - z too; a numpy
        # warning would fail the suite, which makes warnings errors
        for w, z in (([1e200, 0.0], [-1e200, 0.0]), ([1e308, 0.0], [-1e308, 0.0])):
            with pytest.raises(ValueError, match="overflows"):
                Cap(w, z, 1e300)

    def test_membership_examples(self):
        cap = Cap([-1.0, 0.0], [1.0, 0.0], 0.5)
        assert cap_membership(cap, cap.z) == (True, True)
        assert cap_membership(cap, cap.w) == (True, False)
        assert cap_membership(cap, [0.0, 1.0]) == (True, True)
        assert cap_membership(cap, [2.0, 0.0]) == (False, True)
