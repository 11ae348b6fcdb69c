"""Differential tests of the integer kernel against Fraction references.

The predicates geometry.orient, VisibilityPolygon.holds and
visibility.sees (polygon._segment_inside) decide on
denominator-cleared integers.  Each is checked here against the same
formula computed directly in Fraction arithmetic (tests/oracles.py), on
integer, half-integer and mixed-denominator coordinates, with forced
degeneracies: collinear points, points on vertices and edges, parallel
segments and collinear overlaps.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards.generate import (
    blocking_fixture,
    counterexample_polygon,
    random_polygon,
)
from gridguards.geometry import Point, cleared, orient, pt
from gridguards.lemmas import build_counterexample
from gridguards.polygon import (
    PointOutsidePolygon,
    load_polygon,
    segment_in_polygon,
)
from gridguards.solver import default_candidates
from gridguards.visibility import sees, visibility_polygon

from oracles import (
    boundary,
    naive_sees,
    orient_ref,
    point_in_cycle,
    polygon_area,
    segment_inside_ref,
    visibility_area_oracle,
    winding_inside,
)

integers = st.integers(-20, 20).map(Fraction)
halves = st.integers(-40, 40).map(lambda n: Fraction(n, 2))
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coords = st.one_of(integers, halves, rationals)
points = st.builds(Point, coords, coords)
params = st.fractions(min_value=-2, max_value=3, max_denominator=7)
unit = st.fractions(min_value=0, max_value=1, max_denominator=7)


def along(a: Point, b: Point, t: Fraction) -> Point:
    return a + (b - a).scaled(t)


# ---------------------------------------------------------------------------
# Point value semantics


def test_point_value_semantics():
    p = Point(1, 2)
    q = pt("1", Fraction(2))
    assert p == q and hash(p) == hash(q)
    assert hash(p) == hash((Fraction(1), Fraction(2)))
    assert p != Point(2, 1) and p != (1, 2)
    assert p.key() == (Fraction(1), Fraction(2))
    assert repr(pt("1/3", -2)) == "Point(1/3, -2)"
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(FrozenInstanceError):
        p.x = Fraction(5)
    with pytest.raises(FrozenInstanceError):
        del p.y
    with pytest.raises(AttributeError):
        p.z = 1


def test_point_coordinates_stay_fractions():
    a, b = Point(1, 2), Point(4, 7)
    mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
    results = [a, a + b, a - b, a.scaled(3), a.scaled(Fraction(1, 3)),
               mid, Point(a.x / 3, b.y / 2)]
    for p in results:
        assert type(p.x) is Fraction and type(p.y) is Fraction
    # integer division of coordinates stays exact, never a float
    assert mid == pt("5/2", "9/2")
    assert Point(a.x / 3, 0).x == Fraction(1, 3)


@given(points, points)
def test_point_eq_hash_consistent(p, q):
    r = Point(p.x + 0, Fraction(p.y.numerator, p.y.denominator))
    assert r == p and hash(r) == hash(p)
    assert (p == q) == (p.key() == q.key())


# ---------------------------------------------------------------------------
# orient


@given(points, points, points)
def test_orient_matches_fraction_reference(p, q, r):
    assert orient(p, q, r) == orient_ref(p, q, r)


@given(points, points, params)
def test_orient_collinear(p, q, t):
    r = along(p, q, t)
    assert orient(p, q, r) == 0 == orient_ref(p, q, r)


# ---------------------------------------------------------------------------
# membership in a visibility polygon, on the rational boundaries it meets
# in the solver

box = st.fractions(min_value=0, max_value=9, max_denominator=12)


@given(st.integers(4, 7), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=30, deadline=None)
def test_point_in_cycle_matches_winding(n, seed, data):
    """``VisibilityPolygon.holds``, decided on the polygon's triples, and
    the Fraction even-odd reference ``point_in_cycle`` on its boundary
    Points both match the winding number, from cell centres and from
    points inside edges, whose boundaries mix denominators."""
    m = random_polygon(n, 8, seed=seed)
    a, b = m.edges()[data.draw(st.integers(0, m.n - 1))]
    x = data.draw(st.sampled_from(default_candidates(m) + [
        along(a, b, Fraction(1, 3)), along(a, b, Fraction(2, 7))]))
    vp = visibility_polygon(m, x)
    cycle = list(boundary(vp))
    k = len(cycle)
    probes = list(cycle) + [
        along(cycle[i], cycle[(i + 1) % k], data.draw(params))
        for i in range(k)]
    probes += [Point(data.draw(box), data.draw(box)) for _ in range(8)]
    # at the height of a vertex, where the half-open rule decides
    probes += [Point(data.draw(box), v.y) for v in cycle]
    for p in probes:
        inside = winding_inside(cycle, p)
        d, (px, py) = cleared(p.x, p.y)
        assert point_in_cycle(cycle, p) == inside, p
        assert vp.holds(px, py, d) == inside, p


# ---------------------------------------------------------------------------
# one ray shot per wedge, from viewpoints on the boundary


@given(st.integers(4, 7), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=15, deadline=None)
def test_visibility_from_boundary_matches_area_oracle(n, seed, data):
    """Vertices and edge points as viewpoints: each wedge's single shot
    must tell a ray that leaves P at the viewpoint from one that enters."""
    m = random_polygon(n, 8, seed=seed)
    k = m.n
    i = data.draw(st.integers(0, k - 1))
    t = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2),
                                   Fraction(1, 3)]))
    x = along(*m.edges()[i], t)
    vp = visibility_polygon(m, x)
    assert polygon_area(boundary(vp)) == visibility_area_oracle(
        list(m.vertices), x)


# ---------------------------------------------------------------------------
# sees in one integer frame


def draw_endpoint(data, m, cells, grazing):
    """A vertex, an edge point, a point on an edge's line beyond the edge,
    a cell centre in P, a point of ``grazing`` (visibility-polygon
    vertices), or a lattice point of the bounding box (quarter steps); the
    last two kinds and the edge lines also fall outside P."""
    a, b = m.edges()[data.draw(st.integers(0, m.n - 1))]
    kind = data.draw(st.sampled_from(
        ["vertex", "edge", "line", "cell", "grazing", "lattice"]))
    if kind == "vertex":
        return a
    if kind == "edge":
        return along(a, b, data.draw(unit))
    if kind == "line":
        return along(a, b, data.draw(params))
    if kind == "cell":
        return data.draw(st.sampled_from(cells))
    if kind == "grazing":
        return data.draw(st.sampled_from(grazing))
    xs = [int(v.x) for v in m.vertices]
    ys = [int(v.y) for v in m.vertices]
    return Point(Fraction(data.draw(st.integers(4 * min(xs), 4 * max(xs))), 4),
                 Fraction(data.draw(st.integers(4 * min(ys), 4 * max(ys))), 4))


def check_sees(m, data, extra=()):
    verts = list(m.vertices)
    cells = default_candidates(m)
    x = data.draw(st.sampled_from(cells + list(extra)))
    grazing = list(boundary(visibility_polygon(m, x))) + list(extra)
    for _ in range(6):
        if data.draw(st.booleans()):
            # the sightline from x to its own visibility polygon grazes
            # the reflex vertices it passes
            p, q = x, data.draw(st.sampled_from(grazing))
        else:
            p, q = (draw_endpoint(data, m, cells, grazing)
                    for _ in range(2))
        mode = data.draw(st.sampled_from(["as drawn", "vertex", "line"]))
        if mode == "vertex":
            # from p through a vertex and on: it may leave P there
            v = data.draw(st.sampled_from(verts))
            q = along(p, v, data.draw(st.fractions(
                min_value=1, max_value=4, max_denominator=7)))
        elif mode == "line":
            # both ends on one edge's line: collinear overlaps
            a, b = m.edges()[data.draw(st.integers(0, m.n - 1))]
            p, q = (along(a, b, data.draw(params)) for _ in range(2))
        outside = [e for e in (p, q) if not winding_inside(verts, e)]
        if outside:
            with pytest.raises(PointOutsidePolygon) as err:
                sees(m, p, q)
            assert str(err.value) == f"{outside[0]} outside polygon"
            assert not segment_in_polygon(m, p, q)
            continue
        expected = naive_sees(verts, p, q)
        assert segment_inside_ref(m, p, q) == expected, (p, q)
        assert sees(m, p, q) == expected, (p, q)
        assert segment_in_polygon(m, p, q) == expected, (p, q)


@given(st.integers(5, 10), st.integers(8, 12), st.integers(0, 10 ** 6),
       st.data())
@settings(max_examples=60, deadline=None)
def test_sees_matches_references_on_random_polygons(n, bound, seed, data):
    check_sees(random_polygon(n, bound, seed=seed), data)


PINHOLE = build_counterexample(3)


@pytest.mark.parametrize("fixture", [
    counterexample_polygon, lambda: blocking_fixture()[0]],
    ids=["pinhole", "blocking"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_sees_matches_references_on_pinholes(fixture, data):
    """The approach points see the wall only through the slit, and not the
    target behind it: sightlines that pass the slit's apexes exactly."""
    m = fixture()
    extra = [p for p in (PINHOLE.pinhole_target,) + PINHOLE.approach_points
             if winding_inside(list(m.vertices), p)]
    extra += [p for lo_hi in PINHOLE.wall_intervals for p in lo_hi]
    check_sees(m, data, extra)


NOTCH = [(1, 1), (20, 1), (20, 10), (11, 10), (11, 3), (10, 3), (10, 10),
         (1, 10)]


@pytest.mark.parametrize("k", range(len(NOTCH)))
def test_sees_through_a_notch_corner(k):
    """A room with a notch of width 1 down to y = 3, its cycle started at
    each vertex in turn so that every wall is once the closing edge.  The
    first sightline passes the notch's corner (10, 3) exactly, crosses the
    notch and re-enters through the wall x = 11: only the breakpoints at
    the corner and at that wall show the gap."""
    m = load_polygon(NOTCH[k:] + NOTCH[:k])
    cases = [((2, 2), (14, Fraction(7, 2)), False),
             ((2, 2), (10, 3), True),              # ends at the corner
             ((2, 2), (12, Fraction(5, 2)), True),  # passes below it
             ((2, 3), (19, 3), True),              # along the notch floor
             ((5, 5), (15, 5), False),             # across the notch
             # along the top walls, across the notch's mouth: from a point
             # partway along one wall, and covering both walls whole
             ((5, 10), (15, 10), False),
             ((1, 10), (20, 10), False)]
    for (p, q, expected) in cases:
        p, q = pt(*p), pt(*q)
        assert naive_sees(list(m.vertices), p, q) == expected
        assert segment_inside_ref(m, p, q) == expected
        assert sees(m, p, q) == expected, (p, q)
