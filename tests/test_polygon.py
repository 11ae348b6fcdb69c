"""Polygon model: loading, containment, reflex structure, triangulation."""

import hashlib
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards import generate
from gridguards.generate import (
    GenerationBudgetExceeded,
    blocking_fixture,
    channel,
    comb,
    concurrent_pairs,
    counterexample_polygon,
    random_polygon,
    triple_pairs,
)
from gridguards.geometry import Point, orient, pt
from gridguards.polygon import (
    CollinearTripleConsecutive,
    DuplicateVertex,
    NonPositiveCoordinates,
    NotSimple,
    PolygonError,
    check_general_position,
    extensions,
    first_crossing,
    load_polygon,
    opposite_reflex_pairs,
    point_in_polygon,
    reflex_vertices,
    segment_in_polygon,
    triangulate,
)

from oracles import (
    extension_pairs_ref,
    general_position_ref,
    polygon_area,
    segments_intersect_ref,
    triangulate_ref,
    winding_inside,
)


def square():
    return load_polygon([(1, 1), (5, 1), (5, 5), (1, 5)])


def test_load_polygon_basic():
    m = square()
    assert m.n == 4
    assert m.M == 5
    assert m.L == 100


def test_load_polygon_rescales_rationals():
    m = load_polygon([(Fraction(1, 2), Fraction(1, 2)),
                      (Fraction(5, 2), Fraction(1, 2)),
                      (Fraction(5, 2), Fraction(5, 2))])
    # denominators cleared by the lcm scale
    assert all(v.x.denominator == 1 and v.y.denominator == 1
               for v in m.vertices)
    assert m.M == 5


def test_load_polygon_orients_ccw():
    cw = [(1, 1), (1, 5), (5, 5), (5, 1)]
    m = load_polygon(cw)
    assert orient(m.vertices[0], m.vertices[1], m.vertices[2]) > 0


def test_load_polygon_keeps_the_integer_coordinates():
    """xs and ys are the vertices as ints, after the rational rescale and
    the turn to counterclockwise order."""
    m = load_polygon([(Fraction(1, 2), Fraction(1, 2)),
                      (Fraction(1, 2), Fraction(5, 3)),
                      (Fraction(5, 2), Fraction(5, 3)),
                      (Fraction(5, 2), Fraction(1, 2))])
    # scaled by 6 and, being clockwise, reversed
    assert m.xs == (15, 15, 3, 3) and m.ys == (3, 10, 10, 3)
    for f in (channel, counterexample_polygon, triple_pairs,
              lambda: blocking_fixture()[0]):
        m = f()
        assert m.vertices == tuple(Point(x, y) for x, y in zip(m.xs, m.ys))
        assert all(type(c) is int for c in m.xs + m.ys)


def test_load_polygon_rejections():
    with pytest.raises(PolygonError):
        load_polygon([(1, 1), (2, 2)])
    with pytest.raises(NonPositiveCoordinates):
        load_polygon([(0, 1), (5, 1), (5, 5)])
    with pytest.raises(DuplicateVertex):
        load_polygon([(1, 1), (5, 1), (5, 5), (1, 1)])
    with pytest.raises(CollinearTripleConsecutive):
        load_polygon([(1, 1), (3, 1), (5, 1), (5, 5)])
    with pytest.raises(NotSimple):
        load_polygon([(1, 1), (5, 5), (5, 1), (1, 5)])


coords = st.integers(min_value=1, max_value=40)
inner = st.fractions(min_value=Fraction(1), max_value=Fraction(40),
                     max_denominator=8)
unit = st.fractions(min_value=0, max_value=1, max_denominator=12)


@given(st.one_of(st.none(), st.tuples(st.integers(3, 10),
                                      st.integers(0, 10 ** 6))),
       st.data())
@settings(max_examples=60, deadline=None)
def test_point_in_polygon_matches_winding_oracle(shape, data):
    """Membership in P, decided by ``_in_int_cycle`` over the query's own
    denominator, agrees with the winding number on the channel and on
    random polygons: at free points; on edges and just off them, with
    denominators above 1; and at the height of a vertex, where the
    half-open rule decides."""
    m = channel() if shape is None else random_polygon(shape[0], 40,
                                                       seed=shape[1])
    verts = list(m.vertices)
    a, b = data.draw(st.sampled_from(m.edges()))
    on_edge = a + (b - a).scaled(data.draw(unit))
    off = Point(Fraction(0), Fraction(1, data.draw(st.integers(2, 97))))
    v = data.draw(st.sampled_from(verts))
    probes = [Point(data.draw(inner), data.draw(inner)), on_edge,
              on_edge + off, on_edge - off, Point(data.draw(inner), v.y),
              Point(v.x + off.y, v.y), Point(v.x - off.y, v.y)]
    for p in probes:
        assert point_in_polygon(m, p) == winding_inside(verts, p), p


def test_point_in_polygon_boundary_and_outside():
    m = square()
    assert point_in_polygon(m, pt(3, 3))
    assert point_in_polygon(m, pt(1, 3))       # edge
    assert point_in_polygon(m, pt(5, 5))       # vertex
    assert not point_in_polygon(m, pt(6, 3))
    assert not point_in_polygon(m, pt(3, Fraction(1, 2)))


def test_segment_in_polygon_cases():
    m = load_polygon([(1, 1), (7, 1), (7, 7), (4, 4), (1, 7)])  # notch at top
    assert segment_in_polygon(m, pt(2, 2), pt(6, 2))
    assert not segment_in_polygon(m, pt(2, 6), pt(6, 6))  # crosses the notch
    assert segment_in_polygon(m, pt(1, 1), pt(7, 1))      # along an edge


def test_reflex_vertices_known():
    assert reflex_vertices(square()) == []
    m = load_polygon([(1, 1), (7, 1), (7, 7), (4, 4), (1, 7)])
    assert reflex_vertices(m) == [3]
    assert len(reflex_vertices(comb(3))) == 4


def test_extensions_deduplicated():
    m = square()
    lines = extensions(m)
    # 4 choose 2 = 6 vertex pairs, all on distinct lines here, in pair order
    assert len(set(lines)) == len(lines) == 6
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for (A, B, C), (i, j) in zip(lines, pairs):
        assert A > 0 or (A == 0 and B > 0)
        assert gcd(A, B, C) == 1
        # the line passes through both of its vertices: A x + B y = C
        for v in (m.vertices[i], m.vertices[j]):
            assert A * v.x + B * v.y == C
    # vertices 0, 2 and 3 on y = x: their three pairs give one line
    m = load_polygon([(1, 1), (5, 1), (9, 9), (5, 5), (1, 9)])
    assert len(extensions(m)) == 10 - 2


def test_opposite_pairs_channel():
    m = channel()
    pairs = opposite_reflex_pairs(m)
    assert [(p.r1, p.r2) for p in pairs] == [(2, 7)]


def test_opposite_pairs_counterexample():
    m = counterexample_polygon()
    pairs = opposite_reflex_pairs(m)
    assert [(p.r1, p.r2) for p in pairs] == [(2, 7)]


def test_opposite_pairs_triple_fixture():
    assert len(opposite_reflex_pairs(triple_pairs())) == 8
    assert len(opposite_reflex_pairs(concurrent_pairs())) == 9


def test_general_position_fixtures():
    clean = check_general_position(triple_pairs())
    assert clean.collinear_triples == []
    assert clean.concurrent_extension_triples == []
    rep = check_general_position(concurrent_pairs())
    # the three spike-pair lines are concurrent at one interior point
    pts = [p for p, _ in rep.concurrent_extension_triples]
    assert pt(105, 20) in pts


def test_general_position_collinear_detected():
    # vertices 0, 2 and 3 sit on y = x: (1,1), (9,9), (5,5)
    m = load_polygon([(1, 1), (5, 1), (9, 9), (5, 5), (1, 9)])
    rep = check_general_position(m)
    assert (0, 2, 3) in rep.collinear_triples


def test_triangulate_partitions_area():
    for m in (square(), channel(), comb(4), counterexample_polygon(),
              triple_pairs(), blocking_fixture()[0]):
        tris = triangulate(m)
        assert len(tris) == m.n - 2
        total = sum(polygon_area([a, b, c]) for a, b, c in tris)
        assert total == polygon_area(list(m.vertices))


STRUCTURE_FIXTURES = {
    "blocking": lambda: blocking_fixture()[0],
    "channel": channel,
    "comb4": lambda: comb(4),
    "concurrent-pairs": concurrent_pairs,
    "deshpande": counterexample_polygon,
    "triple-pairs": triple_pairs,
}


def assert_structure_matches_reference(m):
    """The integer triangulation, extension lines and general-position
    report against the Fraction references on the Points."""
    verts = list(m.vertices)
    assert triangulate(m) == triangulate_ref(verts)
    lines = extensions(m)
    pairs = extension_pairs_ref(verts)
    assert len(lines) == len(pairs)
    for (A, B, C), (i, j) in zip(lines, pairs):
        assert all(A * v.x + B * v.y == C for v in (verts[i], verts[j]))
    rep = check_general_position(m)
    assert (rep.collinear_triples,
            rep.concurrent_extension_triples) == general_position_ref(verts)
    return rep


@pytest.mark.parametrize("name", sorted(STRUCTURE_FIXTURES))
def test_structure_matches_reference(name):
    rep = assert_structure_matches_reference(STRUCTURE_FIXTURES[name]())
    if name == "concurrent-pairs":
        assert pt(105, 20) in [p for p, _ in rep.concurrent_extension_triples]


@given(st.integers(5, 9), st.integers(8, 30), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_structure_matches_reference_on_random_polygons(n, M, seed):
    assert_structure_matches_reference(random_polygon(n, M, seed=seed))


def meet(a, b, c, d):
    """Whether the closed segments ab and cd share a point, read off the
    scan of the cycle a, b, c, d: it tests that pair of edges first."""
    xs, ys = zip(a, b, c, d)
    return first_crossing(xs, ys) == (0, 2)


def test_first_crossing_cases():
    # proper crossing, shared endpoint, collinear overlap, disjoint
    assert meet((0, 0), (2, 2), (0, 2), (2, 0))
    assert meet((0, 0), (1, 0), (1, 0), (2, 5))
    assert meet((0, 0), (3, 0), (1, 0), (5, 0))
    assert not meet((0, 0), (1, 0), (0, 1), (1, 1))
    assert first_crossing((0, 1, 1, 0), (0, 0, 1, 1)) is None


small = st.integers(min_value=0, max_value=6)


@given(st.lists(st.tuples(small, small), min_size=3, max_size=9))
@settings(max_examples=300)
def test_first_crossing_matches_pairwise_oracle(cycle):
    """The scan names the first non-adjacent edge pair, in row order, that
    the Fraction oracle finds meeting."""
    n = len(cycle)
    ps = [pt(x, y) for x, y in cycle]
    ref = next(((i, j) for i in range(n) for j in range(i + 1, n)
                if j > i + 1 and not (i == 0 and j == n - 1)
                and segments_intersect_ref(ps[i], ps[(i + 1) % n],
                                           ps[j], ps[(j + 1) % n])), None)
    xs, ys = zip(*cycle)
    assert first_crossing(xs, ys) == ref


@given(st.integers(min_value=0, max_value=30))
@settings(max_examples=10, deadline=None)
def test_random_polygon_is_valid(seed):
    m = random_polygon(8, 30, seed=seed)
    assert m.n == 8
    assert m.M <= 30
    # determinism under the seed
    m2 = random_polygon(8, 30, seed=seed)
    assert m.vertices == m2.vertices


def test_random_polygon_rejects_more_vertices_than_lattice_points():
    """[1, 3]^2 has 9 points, so 10 distinct vertices cannot be drawn;
    n = m^2 may still be."""
    with pytest.raises(ValueError, match="cannot draw 10 distinct"):
        random_polygon(10, 3, seed=0)
    assert random_polygon(4, 2, seed=0).n == 4


@pytest.mark.parametrize("n, m", [(9, 3), (16, 4)])
def test_random_polygon_hopeless_call_fails_within_its_budget(
        monkeypatch, n, m):
    """Nine vertices on the 3 x 3 lattice, or sixteen on the 4 x 4, give no
    simple polygon: each sample's 2-opt moves cycle or end in a collinear
    triple.  One budget of crossing scans bounds the whole call, so it
    raises after exactly that many scans (about a second), where separate
    budgets for the samples and for the moves of each sample allowed up
    to 4 * 10^8 moves."""
    scans = []

    def counted(xs, ys):
        scans.append(1)
        return first_crossing(xs, ys)
    monkeypatch.setattr(generate, "first_crossing", counted)
    with pytest.raises(GenerationBudgetExceeded):
        random_polygon(n, m, seed=0)
    assert len(scans) == generate._BUDGET


# the shapes of the goldens, the fixtures, the acceptance tests and the
# benchmark, as the separate sample and move budgets drew them
PINNED_CALLS = (
    [(5, 8, 0), (6, 8, 2), (6, 10, 1), (6, 8, 0), (6, 9, 2), (10, 10, 0),
     (10, 30, 0), (10, 30, 5), (4, 2, 0)]
    + [(8, 30, s) for s in range(5)]
    + [(6 + s % 9, 50, s) for s in range(100)]
    + [(6 + s % 3, 10, s) for s in range(100)]
    + [(6 + s % 5, 20, s) for s in range(100)])


def test_random_polygon_outputs_pinned():
    text = json.dumps([[[int(v.x), int(v.y)] for v in
                        random_polygon(*c).vertices] for c in PINNED_CALLS],
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8511016c075726c694253d19b29912ee1834a34251e18f0313819ab432df16f2")


def test_comb_needs_k_guards_structure():
    m = comb(5)
    assert m.n == 4 * 5
    assert len(reflex_vertices(m)) == 2 * 5 - 2
