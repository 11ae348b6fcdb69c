"""Differential tests of the integer kernel against Fraction references.

The predicates in gridguards.geometry and polygon.point_in_cycle decide on
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

from gridguards.generate import random_polygon
from gridguards.geometry import (
    Point,
    Segment,
    orient,
    point_on_segment,
    pt,
    ray_segment_params,
    segment_intersection_point,
)
from gridguards.polygon import point_in_cycle
from gridguards.solver import default_candidates
from gridguards.visibility import visibility_polygon

from oracles import (
    on_segment,
    orient_ref,
    ray_segment_params_ref,
    segment_intersection_ref,
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
    results = [a, a + b, a - b, a.scaled(3), a.scaled(Fraction(1, 3)),
               Segment(a, b).midpoint(), Point(a.x / 3, b.y / 2)]
    for p in results:
        assert type(p.x) is Fraction and type(p.y) is Fraction
    # integer division of coordinates stays exact, never a float
    assert Segment(a, b).midpoint() == pt("5/2", "9/2")
    assert Point(a.x / 3, 0).x == Fraction(1, 3)


@given(points, points)
def test_point_eq_hash_consistent(p, q):
    r = Point(p.x + 0, Fraction(p.y.numerator, p.y.denominator))
    assert r == p and hash(r) == hash(p)
    assert (p == q) == (p.key() == q.key())


# ---------------------------------------------------------------------------
# orient and point_on_segment


@given(points, points, points)
def test_orient_matches_fraction_reference(p, q, r):
    assert orient(p, q, r) == orient_ref(p, q, r)


@given(points, points, params)
def test_orient_collinear(p, q, t):
    r = along(p, q, t)
    assert orient(p, q, r) == 0 == orient_ref(p, q, r)


@given(points, points, points)
def test_point_on_segment_matches_oracle(p, a, b):
    assert point_on_segment(p, a, b) == on_segment(p, a, b)


@given(points, points, params)
def test_point_on_segment_collinear(a, b, t):
    p = along(a, b, t)
    assert point_on_segment(p, a, b) == on_segment(p, a, b)
    if a != b:
        assert point_on_segment(p, a, b) == (0 <= t <= 1)
    assert point_on_segment(a, a, b) and point_on_segment(b, a, b)


# ---------------------------------------------------------------------------
# ray_segment_params and segment_intersection_point


@given(points, points, points, points)
def test_ray_segment_params_matches_reference(apex, d, a, b):
    if d == Point(0, 0):
        return
    got = ray_segment_params(apex, d, a, b)
    assert got == ray_segment_params_ref(apex, d, a, b)
    assert all(type(t) is Fraction for t in got)


@given(points, points, points, params, params)
def test_ray_segment_params_degenerate(apex, d, off, s1, s2):
    if d == Point(0, 0):
        return
    # collinear overlap: the segment lies on the ray's line
    a, b = apex + d.scaled(s1), apex + d.scaled(s2)
    assert ray_segment_params(apex, d, a, b) == sorted(
        t for t in (s1, s2) if t >= 0)
    assert ray_segment_params(apex, d, a, b) == ray_segment_params_ref(
        apex, d, a, b)
    # parallel to the ray, on another line or the same one
    a2, b2 = a + off, b + off
    assert ray_segment_params(apex, d, a2, b2) == ray_segment_params_ref(
        apex, d, a2, b2)
    # through a segment endpoint
    c = apex + d.scaled(s1)
    assert ray_segment_params(apex, d, c, c + off) == ray_segment_params_ref(
        apex, d, c, c + off)


@given(points, points, points, points)
def test_segment_intersection_matches_reference(a, b, c, d):
    p = segment_intersection_point(a, b, c, d)
    ref = segment_intersection_ref(a, b, c, d)
    assert (p is None) == (ref is None)
    if p is not None:
        assert p.key() == ref
        assert type(p.x) is Fraction and type(p.y) is Fraction


@given(points, points, points, unit, unit, params)
def test_segment_intersection_degenerate(a, b, off, s, t, u):
    # crossing at a vertex or an interior point of both segments
    p = along(a, b, s)
    c, d = p - off.scaled(t), p + off.scaled(1 - t)
    got = segment_intersection_point(a, b, c, d)
    assert (None if got is None else got.key()) == \
        segment_intersection_ref(a, b, c, d)
    if a != b and off != Point(0, 0) and orient(a, b, p + off) != 0:
        assert got == p
    # parallel and collinear-overlapping segments have no unique point
    assert segment_intersection_point(a, b, a + off, b + off) is None
    assert segment_intersection_point(a, b, along(a, b, u),
                                      along(a, b, s)) is None


# ---------------------------------------------------------------------------
# point_in_cycle, on the rational boundaries it meets in the solver


@given(st.integers(4, 7), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=30, deadline=None)
def test_point_in_cycle_matches_winding(n, seed, data):
    m = random_polygon(n, 8, seed=seed)
    x = data.draw(st.sampled_from(default_candidates(m)))
    scale = data.draw(st.fractions(min_value=Fraction(1, 5), max_value=3,
                                   max_denominator=6).filter(bool))
    shift = data.draw(points)
    cycle = [v.scaled(scale) + shift
             for v in visibility_polygon(m, x).boundary]
    k = len(cycle)
    probes = list(cycle) + [
        along(cycle[i], cycle[(i + 1) % k], data.draw(params))
        for i in range(k)]
    probes += [data.draw(points) for _ in range(8)]
    # at the height of a vertex, where the half-open rule decides
    probes += [Point(data.draw(coords), v.y) for v in cycle]
    for p in probes:
        assert point_in_cycle(cycle, p) == winding_inside(cycle, p), p


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
    x = along(m.vertex(i), m.vertex(i + 1), t)
    vp = visibility_polygon(m, x)
    assert vp.area() == visibility_area_oracle(list(m.vertices), x)
