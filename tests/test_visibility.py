"""Visibility regions, segment visibility, and visible sub-segments."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards.generate import (
    blocking_fixture,
    channel,
    comb,
    counterexample_polygon,
    random_polygon,
)
from gridguards.geometry import Point, pt
from gridguards.lemmas import build_counterexample
from gridguards.polygon import (
    PointOutsidePolygon,
    load_polygon,
    opposite_reflex_pairs,
    point_in_polygon,
    reflex_vertices,
)
from gridguards.solver import default_candidates
from gridguards.visibility import (
    sees,
    visibility_polygon,
    visible_subsegments,
)

from oracles import (
    boundary,
    cross,
    dot,
    in_visibility_polygon,
    naive_sees,
    polygon_area,
    visibility_area_oracle,
    visibility_polygon_ref,
    visible_subsegments_ref,
    winding_inside,
)


def l_shape():
    return load_polygon([(1, 1), (7, 1), (7, 4), (4, 4), (4, 7), (1, 7)])


def test_sees_rejects_outside_points():
    m = l_shape()
    with pytest.raises(PointOutsidePolygon):
        sees(m, pt(6, 6), pt(2, 2))
    with pytest.raises(PointOutsidePolygon):
        sees(m, pt(2, 2), pt(6, 6))


@pytest.mark.parametrize("x", [
    pt(6, 6), Point(Fraction(9, 2), Fraction(41, 10)), pt(8, 2)])
def test_visibility_polygon_rejects_outside_points(x):
    m = l_shape()
    with pytest.raises(PointOutsidePolygon) as err:
        visibility_polygon(m, x)
    assert str(err.value) == f"{x} outside polygon"
    # the boundary is inside: the reflex corner and a point on an edge
    for y in (pt(4, 4), Point(Fraction(4), Fraction(11, 2))):
        assert point_in_polygon(m, y) and visibility_polygon(m, y)


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
    assert polygon_area(boundary(vp)) == 16
    assert vp.window_edges == ()


def test_visibility_polygon_lshape_convex_position():
    vp = visibility_polygon(l_shape(), pt(2, 2))
    assert polygon_area(boundary(vp)) == 27   # sees the whole polygon
    assert vp.window_edges == ()


def test_visibility_polygon_lshape_occluded():
    vp = visibility_polygon(l_shape(), pt(6, 2))
    assert polygon_area(boundary(vp)) == Fraction(45, 2)
    b = boundary(vp)
    windows = [(b[i], b[(i + 1) % len(b)]) for i in vp.window_edges]
    assert windows == [(pt(4, 4), pt(1, 7))]


def test_visibility_boundary_points_are_visible():
    m = l_shape()
    x = pt(6, 2)
    vp = visibility_polygon(m, x)
    for b in boundary(vp):
        assert sees(m, x, b)


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
    assert polygon_area(boundary(vp)) == visibility_area_oracle(
        list(m.vertices), x)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=30, deadline=None)
def test_polygon_membership_implies_sees(n, seed, data):
    """Differential: a point of the closed visibility polygon is seen, and
    a point seen from outside it lies on a ray from the viewpoint through a
    polygon vertex, beyond that vertex (a sightline of zero width).  Probed
    on grid points, the polygon's own boundary and points along the rays
    from the viewpoint through every vertex, short of and beyond it."""
    m = random_polygon(n, 8, seed=seed)
    points = default_candidates(m)
    x = data.draw(st.sampled_from(points))
    vp = visibility_polygon(m, x)
    ys = points + list(boundary(vp)) + [
        x + (v - x).scaled(Fraction(k, 2))
        for v in m.vertices if v != x for k in (1, 3, 4, 5, 6)]
    for y in ys:
        if not point_in_polygon(m, y):
            continue
        if in_visibility_polygon(vp, [y]):
            assert sees(m, x, y), (x, y)
        elif sees(m, x, y):
            assert any(cross(v - x, y - x) == 0
                       and dot(v - x, y - x) > dot(v - x, v - x)
                       for v in m.vertices), (x, y)


@pytest.mark.parametrize("fixture", [
    counterexample_polygon, channel, lambda: blocking_fixture()[0]],
    ids=["deshpande", "channel", "blocking"])
def test_sees_from_polygon_beyond_pinhole(fixture):
    """On the line of an opposite reflex pair, viewed from just before r1,
    points beyond r2 can be seen through the pinhole along a sightline of
    zero width.  Such points exist, and membership in the visibility
    polygon, which decides the solver's masks, leaves them out."""
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
                assert not in_visibility_polygon(vp, [y]), (x, y)
                seen_outside += sees(m, x, y)
    assert seen_outside > 0


def assert_matches_visibility_ref(m, x):
    vp = visibility_polygon(m, x)
    assert (boundary(vp), vp.window_edges) == visibility_polygon_ref(m, x), x


@given(st.integers(5, 10), st.integers(8, 30), st.integers(0, 10 ** 6),
       st.data())
@settings(max_examples=25, deadline=None)
def test_visibility_polygon_matches_fraction_reference(n, bound, seed, data):
    """Differential: the integer construction against the Fraction one in
    oracles.py, from a vertex, a cell centre and rational points of P with
    denominators 3 and 7."""
    m = random_polygon(n, bound, seed=seed)
    cells = [c for c in default_candidates(m) if c not in m.vertices]
    xs = [data.draw(st.sampled_from(m.vertices))]
    if cells:
        xs.append(data.draw(st.sampled_from(cells)))
    for den in (3, 7):
        coord = st.integers(den, bound * den).map(lambda k: Fraction(k, den))
        for _ in range(3):
            x = pt(data.draw(coord), data.draw(coord))
            if point_in_polygon(m, x):
                xs.append(x)
    for x in xs:
        assert_matches_visibility_ref(m, x)


@given(st.integers(5, 10), st.integers(8, 30), st.integers(0, 10 ** 6),
       st.data())
@settings(max_examples=25, deadline=None)
def test_visibility_polygon_matches_reference_on_critical_viewpoints(
        n, bound, seed, data):
    """Differential, from the viewpoints the wedge construction treats
    apart: points inside an edge (t = 1/3 and 2/7), where the cone of P at
    x decides the wedges that leave at once and x's own edge holds x;
    points on the line through two vertices, where a wedge's bounding ray
    hits a vertex and the hit's neighbouring edge enters the window rule;
    and a convex and a reflex vertex, where a gap of pi or more is split
    by quarter turns."""
    m = random_polygon(n, bound, seed=seed)
    vs = m.vertices
    a, b = m.edges()[data.draw(st.integers(0, m.n - 1))]
    xs = [a + (b - a).scaled(t) for t in (Fraction(1, 3), Fraction(2, 7))]
    i, j = data.draw(st.lists(st.integers(0, m.n - 1), min_size=2,
                              max_size=2, unique=True))
    for t in (Fraction(-1, 3), Fraction(1, 2), Fraction(4, 3)):
        y = vs[i] + (vs[j] - vs[i]).scaled(t)
        if point_in_polygon(m, y):
            xs.append(y)
    reflex = reflex_vertices(m)
    xs.append(data.draw(st.sampled_from(
        [v for k, v in enumerate(vs) if k not in reflex])))
    if reflex:
        xs.append(vs[data.draw(st.sampled_from(reflex))])
    for x in xs:
        assert_matches_visibility_ref(m, x)


@pytest.mark.parametrize("x, wedges", [
    (pt(2, 3), 5),   # four vertex directions and (1, 0)
    (pt(1, 1), 5),   # (1, 0), (1, 1), (0, 1) and two quarter turns
    (pt(3, 1), 5),   # on an edge: (1, 0), two vertices, one quarter turn
])
def test_one_blocking_edge_scan_per_wedge(monkeypatch, x, wedges):
    """The square seen from inside, from a corner and from an edge: one
    call of ``_blocking_edge`` per wedge, over the vertex directions plus
    (1, 0) plus the quarter turns that split gaps of pi or more."""
    from gridguards import visibility

    m = load_polygon([(1, 1), (5, 1), (5, 5), (1, 5)])
    calls = []
    inner = visibility._blocking_edge

    def counting(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(visibility, "_blocking_edge", counting)
    assert_matches_visibility_ref(m, x)
    assert len(calls) == wedges


@pytest.mark.parametrize("name", ["channel", "deshpande", "blocking"])
def test_visibility_polygon_matches_fraction_reference_on_fixtures(name):
    """The same, from every grid candidate of the pinhole fixtures (and the
    blocking fixture's own viewpoint)."""
    if name == "blocking":
        m, x = blocking_fixture()
        xs = default_candidates(m) + [x]
    else:
        m = channel() if name == "channel" else counterexample_polygon()
        xs = default_candidates(m)
    for x in xs:
        assert_matches_visibility_ref(m, x)


def test_visible_subsegments_full_edge():
    m = l_shape()
    segs = visible_subsegments(m, pt(2, 2), pt(7, 1), pt(7, 4))
    assert len(segs) == 1
    assert (segs[0].a, segs[0].b) == (pt(7, 1), pt(7, 4))
    # from the vertex (4, 7) the window (4, 1)-(4, 7) runs along the
    # vertex's own edge, which it sees whole
    segs = visible_subsegments(m, pt(4, 7), pt(4, 4), pt(4, 7))
    assert [(s.a, s.b) for s in segs] == [(pt(4, 4), pt(4, 7))]


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


@pytest.mark.parametrize("name", ["l_shape", "comb3", "deshpande"])
def test_visible_subsegments_match_sweep_reference(name):
    """Every edge, in both orientations, from every default candidate of
    the L-shape and comb 3 and from the pinhole fixture's approach points:
    the pieces read off the visibility polygon equal the breakpoint sweep's.
    """
    if name == "deshpande":
        fix = build_counterexample(5)
        m, xs = fix.polygon, fix.approach_points
    else:
        m = l_shape() if name == "l_shape" else comb(3)
        xs = default_candidates(m)
    for x in xs:
        for a, b in m.edges():
            for u, v in ((a, b), (b, a)):
                assert visible_subsegments(m, x, u, v) == \
                    visible_subsegments_ref(m, x, u, v), (x, u, v)


def test_visible_subsegments_rejects_a_chord():
    with pytest.raises(ValueError):
        visible_subsegments(l_shape(), pt(2, 2), pt(1, 1), pt(7, 4))


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

