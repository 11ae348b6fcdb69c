"""Unit cases and properties of the exact-arithmetic geometric
primitives, and of the rational line kernel in tests/oracles.py, the
reference of the bad-region and blocking tests."""

from math import gcd

from hypothesis import example, given
from hypothesis import strategies as st

from gridguards.geometry import (
    Point,
    dist_sq,
    orient,
    pt,
    sort_directions_ccw,
)

from oracles import (
    IDENTICAL,
    PARALLEL,
    DirectedLine,
    clip_convex_by_halfplane,
    convex_intersection,
    line_intersection,
    polygon_area,
    polygon_signed_area2,
    sort_directions_ccw_ref,
)

coords = st.fractions(min_value=-50, max_value=50, max_denominator=8)
points = st.builds(Point, coords, coords)


@given(points, points, points)
def test_orient_antisymmetric(p, q, r):
    assert orient(p, q, r) == -orient(p, r, q)


@given(points, points, points, points)
def test_orient_translation_invariant(p, q, r, t):
    assert orient(p, q, r) == orient(p + t, q + t, r + t)


@given(points, points)
def test_dist_sq_positive_definite(p, q):
    d = dist_sq(p, q)
    assert d >= 0
    assert (d == 0) == (p == q)


def test_line_intersection_cases():
    l1 = DirectedLine(pt(0, 0), pt(2, 2))
    l2 = DirectedLine(pt(0, 2), pt(2, 0))
    assert line_intersection(l1, l2) == pt(1, 1)
    l3 = DirectedLine(pt(0, 1), pt(2, 3))
    assert line_intersection(l1, l3) is PARALLEL
    l4 = DirectedLine(pt(5, 5), pt(7, 7))
    assert line_intersection(l1, l4) is IDENTICAL


@given(points, points, points, points)
def test_line_intersection_on_both_lines(a, b, c, d):
    if a == b or c == d:
        return
    l1, l2 = DirectedLine(a, b), DirectedLine(c, d)
    p = line_intersection(l1, l2)
    if isinstance(p, Point):
        assert orient(a, b, p) == 0
        assert orient(c, d, p) == 0


def test_polygon_area_square():
    sq = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert polygon_signed_area2(sq) == 32
    assert polygon_area(sq) == 16
    assert polygon_signed_area2(list(reversed(sq))) == -32


@given(points, points)
def test_clip_square_by_halfplane(a, b):
    if a == b:
        return
    sq = [pt(-60, -60), pt(60, -60), pt(60, 60), pt(-60, 60)]
    ell = DirectedLine(a, b)
    for side in (-1, 1):
        out = clip_convex_by_halfplane(sq, ell, side)
        assert polygon_area(out) <= polygon_area(sq) if len(out) >= 3 else True
        for p in out:
            assert side * ell.side_of(p) >= 0


def test_convex_intersection_squares():
    a = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    b = [pt(2, 2), pt(6, 2), pt(6, 6), pt(2, 6)]
    inter = convex_intersection(a, b)
    assert polygon_area(inter) == 4


def test_sort_directions_ccw_order():
    dirs = [(0, 1), (1, 0), (-1, 0), (0, -1), (1, 1), (-2, 1)]
    out = sort_directions_ccw(dirs)
    assert out == [(1, 0), (1, 1), (0, 1), (-2, 1), (-1, 0), (0, -1)]


def _primitive(x, y):
    g = gcd(x, y)
    return (x // g, y // g)


# components near a large base, so that -x / y of neighbouring directions
# ties as a float, or overflows it beyond 10^308
big_bases = st.sampled_from([1, 10 ** 17, 3 ** 40, 10 ** 400, 7 ** 500])
directions = st.builds(
    lambda bx, by, sx, sy, dx, dy: (sx * bx + dx, sy * by + dy),
    big_bases, big_bases, st.sampled_from([-1, 0, 1]),
    st.sampled_from([-1, 0, 1]), st.integers(-3, 3), st.integers(-3, 3))
AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]


@given(st.lists(directions, max_size=12), st.booleans())
@example([(10 ** 17 + 1, 1), (10 ** 17 + 2, 1)], False)
@example([(10 ** 17 + 1, -1), (10 ** 17 + 2, -1), (-10 ** 17, 1)], True)
@example([(10 ** 401, 1), (10 ** 401, -1), (1, 0), (-10 ** 401, 3)], True)
@example([(1, 10 ** 401), (-1, 10 ** 401 + 1), (-1, 10 ** 401)], False)
def test_sort_directions_matches_comparator(dirs, with_axes):
    """The float key with its exact tie-break orders primitive directions
    as the exact comparator does: float ties, overflowing components and
    the four axes."""
    dirs = {_primitive(x, y) for x, y in dirs if x or y}
    if with_axes:
        dirs.update(AXES)
    assert sort_directions_ccw(dirs) == sort_directions_ccw_ref(dirs)
