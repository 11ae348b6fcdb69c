"""Visibility regions, star decomposition, and visible sub-segments."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards.generate import (
    blocking_fixture,
    channel,
    counterexample_polygon,
    random_polygon,
)
from gridguards.geometry import Point, dist_sq, polygon_area, pt
from gridguards.polygon import (
    PointOutsidePolygon,
    load_polygon,
    opposite_reflex_pairs,
    point_in_cycle,
    point_in_polygon,
)
from gridguards.solver import default_candidates
from gridguards.visibility import (
    grid_cone,
    sees,
    sees_from_polygon,
    star_triangles,
    visibility_polygon,
    visible_subsegments,
)

from oracles import naive_sees, visibility_area_oracle, winding_inside


def l_shape():
    return load_polygon([(1, 1), (7, 1), (7, 4), (4, 4), (4, 7), (1, 7)])


def test_sees_rejects_outside_points():
    m = l_shape()
    with pytest.raises(PointOutsidePolygon):
        sees(m, pt(6, 6), pt(2, 2))
    with pytest.raises(PointOutsidePolygon):
        sees(m, pt(2, 2), pt(6, 6))


def test_sees_known_cases():
    m = l_shape()
    assert sees(m, pt(2, 2), pt(6, 2))
    assert sees(m, pt(2, 2), pt(2, 6))
    assert not sees(m, pt(6, 3), pt(2, 6))   # around the corner
    assert sees(m, pt(6, 2), pt(2, 6))       # grazes the reflex vertex
    assert sees(m, pt(4, 4), pt(6, 2))       # from the reflex vertex
    assert sees(m, pt(1, 1), pt(7, 1))       # along an edge


def test_visibility_polygon_square_is_everything():
    m = load_polygon([(1, 1), (5, 1), (5, 5), (1, 5)])
    vp = visibility_polygon(m, pt(2, 3))
    assert vp.area() == 16
    assert vp.window_edges == ()


def test_visibility_polygon_lshape_convex_position():
    vp = visibility_polygon(l_shape(), pt(2, 2))
    assert vp.area() == 27           # sees the whole polygon
    assert vp.window_edges == ()


def test_visibility_polygon_lshape_occluded():
    vp = visibility_polygon(l_shape(), pt(6, 2))
    assert vp.area() == Fraction(45, 2)
    windows = [vp.edges()[i] for i in vp.window_edges]
    assert windows == [(pt(4, 4), pt(1, 7))]


def test_visibility_boundary_points_are_visible():
    m = l_shape()
    x = pt(6, 2)
    vp = visibility_polygon(m, x)
    for b in vp.boundary:
        assert sees(m, x, b)


def test_star_triangles_partition_visible_area():
    m = l_shape()
    for x in (pt(2, 2), pt(6, 2), pt(4, 4), pt(2, 6)):
        vp = visibility_polygon(m, x)
        tris = star_triangles(m, x)
        assert sum(polygon_area(t.triangle) for t in tris) == vp.area()
        for t in tris:
            assert t.apex == x
            # bounding points of each fan piece are visible polygon vertices
            assert t.u in m.vertices and t.v in m.vertices
            assert sees(m, x, t.u) and sees(m, x, t.v)


inner = st.fractions(min_value=Fraction(3, 2), max_value=Fraction(13, 2),
                     max_denominator=6)


@given(st.builds(Point, inner, inner), st.builds(Point, inner, inner))
@settings(max_examples=40, deadline=None)
def test_sees_matches_oracle(x, y):
    m = l_shape()
    verts = list(m.vertices)
    if not (winding_inside(verts, x) and winding_inside(verts, y)):
        return
    assert sees(m, x, y) == naive_sees(verts, x, y)


@given(st.builds(Point, inner, inner))
@settings(max_examples=25, deadline=None)
def test_visibility_area_matches_oracle(x):
    m = l_shape()
    if not winding_inside(list(m.vertices), x):
        return
    vp = visibility_polygon(m, x)
    assert vp.area() == visibility_area_oracle(list(m.vertices), x)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=30, deadline=None)
def test_sees_from_polygon_matches_sees(n, seed, data):
    """Differential: membership with the critical-ray fallback equals sees
    on grid points, the polygon's own boundary and points along the rays
    from the viewpoint through every vertex, short of and beyond it."""
    m = random_polygon(n, 8, seed=seed)
    points = default_candidates(m)
    x = data.draw(st.sampled_from(points))
    vp = visibility_polygon(m, x)
    ys = points + list(vp.boundary) + [
        x + (v - x).scaled(Fraction(k, 2))
        for v in m.vertices if v != x for k in (1, 3, 4, 5, 6)]
    for y in ys:
        if point_in_polygon(m, y):
            assert sees_from_polygon(m, vp, y) == sees(m, x, y), (x, y)


@pytest.mark.parametrize("fixture", [
    counterexample_polygon, channel, lambda: blocking_fixture()[0]],
    ids=["deshpande", "channel", "blocking"])
def test_sees_from_polygon_beyond_pinhole(fixture):
    """On the line of an opposite reflex pair, viewed from just before r1,
    points beyond r2 can be seen through the pinhole although the
    visibility polygon leaves them out: the fallback must decide them."""
    m = fixture()
    seen_outside = 0
    for pair in opposite_reflex_pairs(m):
        r1, r2 = m.vertices[pair.r1], m.vertices[pair.r2]
        d = r2 - r1
        for t in (Fraction(1, 8), Fraction(1, 3)):
            x = r1 - d.scaled(t)
            if not point_in_polygon(m, x):
                continue
            vp = visibility_polygon(m, x)
            for k in range(1, 25):
                y = r2 + d.scaled(Fraction(k, 8))
                if not point_in_polygon(m, y):
                    continue
                seen = sees(m, x, y)
                assert sees_from_polygon(m, vp, y) == seen, (x, y)
                seen_outside += seen and not point_in_cycle(vp.boundary, y)
    assert seen_outside > 0


def test_visible_subsegments_full_edge():
    m = l_shape()
    segs = visible_subsegments(m, pt(2, 2), pt(7, 1), pt(7, 4))
    assert len(segs) == 1
    assert (segs[0].a, segs[0].b) == (pt(7, 1), pt(7, 4))


def test_visible_subsegments_occluded_split():
    # from (6,2) the far wall x=1 is visible only below the shadow of (4,4)
    m = l_shape()
    segs = visible_subsegments(m, pt(6, 2), pt(1, 1), pt(1, 7))
    assert len(segs) == 1
    a, b = sorted((segs[0].a, segs[0].b), key=lambda p: p.y)
    assert a == pt(1, 1)
    assert b == pt(1, 7)  # the window endpoint lies on the corner itself


def test_visible_subsegments_pinhole_interval():
    # approach point below the slit: the visible piece of the left wall
    # above the target is exactly [6 + 5d/3, 6 + 3d] for offset d
    m = counterexample_polygon()
    L = m.L
    assert L == 420
    d = Fraction(1, 2 * L)
    a1 = Point(Fraction(17), 6 - d)
    segs = visible_subsegments(m, a1, pt(1, 1), pt(1, 11))
    above = [s for s in segs if max(s.a.y, s.b.y) > 6]
    assert len(above) == 1
    lo, hi = sorted((above[0].a.y, above[0].b.y))
    assert lo == 6 + 5 * d / 3 == Fraction(3025, 504)
    assert hi == 6 + 3 * d == Fraction(1681, 280)


def test_pinhole_intervals_disjoint_and_shrinking():
    m = counterexample_polygon()
    L = m.L
    prev_lo = None
    for i in range(1, 5):
        d = Fraction(1, 2 ** i * L)
        a = Point(Fraction(17), 6 - d)
        assert not sees(m, a, pt(1, 6))
        segs = visible_subsegments(m, a, pt(1, 1), pt(1, 11))
        above = [s for s in segs if max(s.a.y, s.b.y) > 6]
        lo, hi = sorted((above[0].a.y, above[0].b.y))
        assert (lo, hi) == (6 + 5 * d / 3, 6 + 3 * d)
        if prev_lo is not None:
            assert hi < prev_lo  # interval i sits strictly below interval i-1
        prev_lo = lo


def test_grid_cone_membership():
    m = l_shape()
    g = pt(6, 2)
    cone = grid_cone(m, g, pt(1, 1), pt(1, 7))
    assert not cone.empty
    assert cone.contains(pt(3, 3))        # between g and the wall piece
    assert cone.contains(pt(1, 4))        # on the wall piece
    assert not cone.contains(pt(6, 5))    # outside every ray bundle
    assert cone.contains(g)


def test_grid_cone_empty_when_wall_hidden():
    # viewpoint in the bottom-right prong of a deep notch sees none of a
    # far segment hidden around the corner
    m = load_polygon([(1, 1), (9, 1), (9, 9), (8, 9), (8, 2), (2, 2),
                      (2, 9), (1, 9)])
    cone = grid_cone(m, pt(Fraction(17, 2), 8), pt(1, 8), pt(1, 9))
    assert cone.empty
