"""Grid rounding, surrounding grid points, guard replacement, coverage."""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards.generate import (
    blocking_fixture,
    channel,
    comb,
    concurrent_pairs,
    counterexample_polygon,
    random_polygon,
    triple_pairs,
)
from gridguards.geometry import GeometryError, Point, dist_sq, pt
from gridguards.grid import (
    CASE_BOUNDARY,
    CASE_CORNER,
    CASE_INTERIOR,
    Covered,
    GridSpec,
    NoGridPointNearby,
    Uncovered,
    grid_replacement,
    guard_set,
    round_to_grid,
    surrounding_grid,
    verify_coverage,
)
from gridguards.polygon import PointOutsidePolygon, load_polygon, triangulate
from gridguards.solver import default_candidates
from gridguards.visibility import VisibilityPolygon, sees

from oracles import round_to_grid_ref, surrounding_grid_ref, verify_coverage_ref


def square():
    return load_polygon([(1, 1), (9, 1), (9, 9), (1, 9)])


def test_grid_spec_width_and_membership():
    spec = GridSpec(E=2, L=10)
    assert spec.w == Fraction(1, 100)
    assert spec.on_grid(pt(3, 4))
    assert spec.on_grid(Point(Fraction(7, 100), Fraction(301, 100)))
    assert not spec.on_grid(Point(Fraction(1, 3), Fraction(0)))
    with pytest.raises(ValueError):
        GridSpec(E=0, L=10)


def test_round_to_grid_nearest():
    m = square()
    spec = GridSpec(E=1, L=m.L)  # w = 1/180
    w = spec.w
    x = Point(2 + w / 3, 3 + w / 4)
    g = round_to_grid(spec, m, x)
    assert g == pt(2, 3)
    assert spec.on_grid(g)
    assert dist_sq(x, g) <= 2 * w * w


def test_round_to_grid_tie_is_lexicographic():
    m = square()
    spec = GridSpec(E=1, L=m.L)
    w = spec.w
    x = Point(2 + w / 2, 3 + w / 2)  # equidistant from 4 corners
    g = round_to_grid(spec, m, x)
    assert g == pt(2, 3)  # smallest (x, y) among the tied corners


def test_round_to_grid_point_already_on_grid():
    m = square()
    spec = GridSpec(E=1, L=m.L)
    assert round_to_grid(spec, m, pt(5, 5)) == pt(5, 5)


def test_round_to_grid_rejects_outside():
    m = square()
    spec = GridSpec(E=1, L=m.L)
    with pytest.raises(PointOutsidePolygon):
        round_to_grid(spec, m, pt(100, 100))


def test_round_to_grid_skips_outside_grid_points():
    # near a convex corner the nearest grid corner can be outside
    m = load_polygon([(2, 2), (6, 2), (6, 6), (2, 6)])
    spec = GridSpec(E=1, L=m.L)
    w = spec.w
    x = Point(2 + w / 8, 2 + w / 8)
    g = round_to_grid(spec, m, x)
    assert g == pt(2, 2)


def test_surrounding_grid_interior():
    m = square()
    spec = GridSpec(E=2, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    sg = surrounding_grid(spec, m, pt(5, 5) + Point(alpha / 3, alpha / 5),
                          alpha)
    assert sg.case == CASE_INTERIOR
    assert sg.starred is None
    assert 1 <= len(sg.points) <= 3
    for p in sg.points:
        assert spec.on_grid(p)
        # grid points stay near the center (triangle radius + rounding)
        assert dist_sq(sg.center, p) <= (2 * alpha) ** 2


def test_surrounding_grid_boundary():
    m = square()
    spec = GridSpec(E=2, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    x = Point(Fraction(5), 1 + alpha / 4)  # just above the bottom edge
    sg = surrounding_grid(spec, m, x, alpha)
    assert sg.case == CASE_BOUNDARY
    assert sg.points
    for p in sg.points:
        assert spec.on_grid(p)


def test_surrounding_grid_corner():
    m = square()
    spec = GridSpec(E=2, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    x = pt(1, 1) + Point(alpha / 4, alpha / 4)
    sg = surrounding_grid(spec, m, x, alpha)
    assert sg.case == CASE_CORNER
    assert pt(1, 1) in sg.points        # the enclosed vertex itself
    # the vertex is within L^-1 so it is also the starred vertex
    assert sg.starred == pt(1, 1)


def test_surrounding_grid_star_vertex_nearest():
    m = square()
    spec = GridSpec(E=2, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    eps = Fraction(1, 2 * m.L)          # within L^-1 of vertex (1, 1)
    x = pt(1, 1) + Point(eps, Fraction(0))
    sg = surrounding_grid(spec, m, x, alpha)
    assert sg.starred == pt(1, 1)
    assert sg.starred in sg.all_points()


@pytest.mark.parametrize("offset, case", [
    ((Fraction(1, 3), Fraction(1, 5)), CASE_INTERIOR),
    ((0, Fraction(1, 4)), CASE_BOUNDARY),
    ((Fraction(1, 4), Fraction(1, 4)), CASE_CORNER),
])
def test_surrounding_grid_scales_once_and_skips_membership(monkeypatch,
                                                           offset, case):
    """One surrounding_grid call scales the polygon by L^E once, for all
    of its defining points, and tests none of them with point_in_polygon
    or round_to_grid: each is a triangle corner just found in P or a
    crossing on its boundary."""
    from gridguards import grid
    from gridguards.polygon import PolygonModel

    m = square()
    spec = GridSpec(E=3, L=m.L)
    D = m.L ** 3
    alpha = Fraction(1, m.L ** 2)
    base = pt(5, 5) if case == CASE_INTERIOR else (
        pt(5, 1) if case == CASE_BOUNDARY else pt(1, 1))
    x = base + Point(alpha * offset[0], alpha * offset[1])
    scales = []
    calls = []
    scaled = PolygonModel.scaled

    def counting_scaled(self, d):
        scales.append(d)
        return scaled(self, d)

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
        return call

    monkeypatch.setattr(PolygonModel, "scaled", counting_scaled)
    monkeypatch.setattr(grid, "point_in_polygon", forbidden("membership"))
    monkeypatch.setattr(grid, "round_to_grid", forbidden("round"))
    sg = surrounding_grid(spec, m, x, alpha)
    assert sg.case == case
    assert sg.points
    assert scales.count(D) == 1
    assert len(scales) == 2  # and once by the triangle's denominator
    assert calls == []
    assert sg == surrounding_grid_ref(spec, m, x, alpha)


def test_surrounding_grid_alpha_validation():
    m = square()
    spec = GridSpec(E=2, L=m.L)
    with pytest.raises(ValueError):
        surrounding_grid(spec, m, pt(5, 5), Fraction(1, 2))
    with pytest.raises(ValueError):
        surrounding_grid(spec, m, pt(5, 5), 0)


def test_grid_replacement_on_grid_guard_kept():
    m = square()
    spec = GridSpec(E=1, L=m.L)
    g = grid_replacement(spec, m, guard_set([pt(5, 5)]),
                         alpha=Fraction(1, m.L ** 2),
                         s=Fraction(1, m.L ** 3))
    assert g.guards == (pt(5, 5),)
    assert g.provenance == ("Original",)


def test_grid_replacement_bounds_and_coverage():
    m = channel()
    spec = GridSpec(E=1, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    s = 16 * m.L * alpha
    w = spec.w
    # two off-grid guards that cover the channel from its side pockets
    xs = [Point(2 + w / 3, 5 + w / 7), Point(10 + w / 5, 5 + w / 11)]
    assert isinstance(verify_coverage(m, guard_set(xs)), Covered)
    rep = grid_replacement(spec, m, guard_set(xs), alpha=alpha, s=s)
    assert 1 <= len(rep) <= 9 * len(xs)
    for p, tag in zip(rep.guards, rep.provenance):
        assert spec.on_grid(p) or tag in ("StarVertex", "BadRegionVertex")
    assert isinstance(verify_coverage(m, rep), Covered)


def test_grid_replacement_emits_bad_region_vertex():
    m = channel()
    spec = GridSpec(E=1, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    s = 16 * m.L * alpha
    w = spec.w
    # just below the lower reflex apex (6, 3), inside its wedge
    x = Point(6 + w / 3, Fraction(2))
    rep = grid_replacement(spec, m, guard_set([x]), alpha=alpha, s=s)
    tagged = [p for p, t in zip(rep.guards, rep.provenance)
              if t == "BadRegionVertex"]
    assert tagged == [pt(6, 3)]


def test_grid_replacement_rejects_outside_guard():
    m = square()
    spec = GridSpec(E=1, L=m.L)
    from gridguards.grid import InputGuardOutsidePolygon
    with pytest.raises(InputGuardOutsidePolygon):
        grid_replacement(spec, m, guard_set([pt(50, 50)]),
                         alpha=Fraction(1, m.L ** 2),
                         s=Fraction(1, m.L ** 3))


def test_verify_coverage_detects_gap():
    m = comb(3)
    # a guard at the base cannot see into every prong tip
    res = verify_coverage(m, guard_set([m.vertices[0]]))
    assert isinstance(res, Uncovered)
    assert not sees(m, m.vertices[0], res.witness)


def test_verify_coverage_empty_guard_set():
    m = square()
    res = verify_coverage(m, guard_set([]))
    assert isinstance(res, Uncovered)


def test_verify_coverage_square_one_guard():
    m = square()
    assert isinstance(verify_coverage(m, guard_set([pt(3, 7)])), Covered)


def assert_matches_sees_reference(m, gs):
    """``verify_coverage`` against the oracle that asks ``sees`` at every
    witness, verdict and witness both; an uncovered witness is seen by no
    guard."""
    result = verify_coverage(m, gs)
    assert result == verify_coverage_ref(m, gs)
    if isinstance(result, Uncovered):
        assert not any(sees(m, x, result.witness) for x in gs.guards)
    return result


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=25, deadline=None)
def test_move_to_front_matches_fixed_order(n, seed, data):
    """Asking the last holding polygon first names the same witness as
    asking ``sees`` of the guards in their given order, on covered and
    uncovered sets."""
    m = random_polygon(n, 8, seed=seed)
    pool = default_candidates(m)
    if data.draw(st.booleans()):
        # every vertex covers; shuffled cell centres join them
        guards = list(m.vertices) + data.draw(
            st.lists(st.sampled_from(pool), max_size=4))
        guards = data.draw(st.permutations(guards))
    else:
        guards = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=4))
    assert_matches_sees_reference(m, guard_set(guards))


# points on deshpande's line y = 6 through both apexes of its pinhole, which
# see each other along a sightline of zero width
PINHOLE_LINE = [pt(5, 6), pt(17, 6)]
CERTIFIER_FIXTURES = {
    "comb3": (lambda: comb(3), []),
    "channel": (channel, []),
    "deshpande": (counterexample_polygon, PINHOLE_LINE),
    "blocking": (lambda: blocking_fixture()[0], []),
    "triple-pairs": (triple_pairs, []),
    "concurrent-pairs": (concurrent_pairs, []),
}


@pytest.mark.parametrize("name", sorted(CERTIFIER_FIXTURES))
def test_membership_certifier_matches_sees_on_fixtures(name):
    """Seeded candidate subsets of one to three guards, the pinhole line's
    points among them on deshpande, and every vertex with three more."""
    make, extra = CERTIFIER_FIXTURES[name]
    m = make()
    pool = default_candidates(m) + extra
    rng = random.Random(name)
    for k in (1, 2, 3):
        assert_matches_sees_reference(m, guard_set(rng.sample(pool, k)))
    if extra:
        assert_matches_sees_reference(m, guard_set(extra))
    covered = guard_set(list(m.vertices) + rng.sample(pool, 3))
    assert isinstance(assert_matches_sees_reference(m, covered), Covered)


def test_uncovered_witness_seen_by_a_guard_raises(monkeypatch):
    """A witness that no polygon holds but some guard sees is a
    contradiction: membership rejecting the one guard's polygon makes the
    square's covering guard set raise rather than name a seen witness."""
    m = square()
    guard = pt(3, 7)
    holds = VisibilityPolygon.holds

    def rejecting(vp, px, py, d):
        at_guard = (Fraction(vp.X, vp.w), Fraction(vp.Y, vp.w)) == (
            guard.x, guard.y)
        return not at_guard and holds(vp, px, py, d)
    monkeypatch.setattr(VisibilityPolygon, "holds", rejecting)
    with pytest.raises(GeometryError):
        verify_coverage(m, guard_set([guard]))


offsets = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97),
                       max_denominator=97)


@given(offsets, offsets)
@settings(max_examples=20, deadline=None)
def test_round_to_grid_is_nearest_among_cell_corners(dx, dy):
    m = square()
    spec = GridSpec(E=1, L=m.L)
    w = spec.w
    x = Point(4 + dx * w, 4 + dy * w)
    g = round_to_grid(spec, m, x)
    corners = [Point(4 + i * w, 4 + j * w) for i in (0, 1) for j in (0, 1)]
    assert dist_sq(x, g) == min(dist_sq(x, c) for c in corners)


# Differential tests of the lattice rounding and the integer surrounding
# grid against the Fraction references in oracles.py.

# "thin" is a triangle of area 1/2: on a coarse grid its only grid points
# may be its vertices, several rings away from a point inside it
MODELS = {"channel": channel(), "deshpande": counterexample_polygon(),
          "blocking": blocking_fixture()[0], "comb3": comb(3),
          "thin": load_polygon([(1, 1), (9, 2), (8, 2)])}
TRIANGLES = {name: triangulate(m) for name, m in MODELS.items()}
unit = st.fractions(min_value=0, max_value=1, max_denominator=97)
signed = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                      max_denominator=97)


def outcome(f, *args):
    """The result of f, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (PointOutsidePolygon, NoGridPointNearby) as e:
        return type(e), str(e)


def triangle_offsets(alpha):
    """The corners of surrounding_grid's triangle, relative to its x."""
    return (Point(0, alpha), Point(-3 * alpha / 4, -alpha / 2),
            Point(3 * alpha / 4, -alpha / 2))


@st.composite
def probes(draw):
    """(model, grid spec, alpha, point): a point in P, on an edge, near an
    edge, within alpha of a vertex or with a corner of surrounding_grid's
    triangle on an edge, possibly moved onto the grid, a cell centre or a
    cell-edge midpoint of the spec (which may leave P)."""
    name = draw(st.sampled_from(sorted(MODELS)))
    m = MODELS[name]
    # the theorem's grid L^-E, and coarse ones whose nearest cell corners
    # may lie outside P, so that the ring search goes past ring 0
    spec = GridSpec(E=draw(st.integers(1, 4)),
                    L=draw(st.sampled_from((m.L, 1, 2, 3))))
    alpha = draw(st.sampled_from((Fraction(1, m.L ** 2),
                                  Fraction(1, 3 * m.L ** 3),
                                  Fraction(1, 16 * m.L ** 4),
                                  Fraction(1, m.L ** 7))))
    kind = draw(st.sampled_from(("interior", "edge", "near-edge", "vertex",
                                 "touch")))
    k = draw(st.integers(0, m.n - 1))
    a, b = m.vertices[k], m.vertices[(k + 1) % m.n]
    if kind == "interior":
        p, q, r = draw(st.sampled_from(TRIANGLES[name]))
        u, v = draw(unit), draw(unit)
        if u + v > 1:
            u, v = 1 - u, 1 - v
        x = p + (q - p).scaled(u) + (r - p).scaled(v)
    elif kind == "edge":
        x = a + (b - a).scaled(draw(unit))
    elif kind == "near-edge":
        # inward normal of a counterclockwise edge, a fraction of alpha long
        d = b - a
        step = alpha * draw(unit) / (abs(d.x) + abs(d.y))
        x = a + d.scaled(draw(unit)) + Point(-d.y, d.x).scaled(step)
    elif kind == "vertex":
        x = a + Point(alpha * draw(signed), alpha * draw(signed))
    else:
        # one corner of the triangle of surrounding_grid exactly on the edge
        corner = draw(st.sampled_from(triangle_offsets(alpha)))
        x = a + (b - a).scaled(draw(unit)) - corner
    D = spec.L ** spec.E
    i, j = floor(x.x * D), floor(x.y * D)
    half = Fraction(1, 2)
    x = draw(st.sampled_from((
        x, Point(Fraction(i, D), Fraction(j, D)),
        Point((i + half) / D, (j + half) / D),
        Point((i + half) / D, Fraction(j, D)),
        Point(Fraction(i, D), (j + half) / D))))
    return m, spec, alpha, x


@given(probes())
@settings(max_examples=300, deadline=None)
def test_round_to_grid_matches_fraction_reference(probe):
    m, spec, _, x = probe
    assert outcome(round_to_grid, spec, m, x) == outcome(
        round_to_grid_ref, spec, m, x)


@given(probes())
@settings(max_examples=200, deadline=None)
def test_surrounding_grid_matches_fraction_reference(probe):
    m, spec, alpha, x = probe
    assert outcome(surrounding_grid, spec, m, x, alpha) == outcome(
        surrounding_grid_ref, spec, m, x, alpha)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_surrounding_grid_matches_reference_at_every_vertex_and_edge(name):
    # fixed sweep of the Corner and touching cases: x within alpha of each
    # vertex, and each corner of the triangle exactly on each edge (at its
    # start and a third along it), so that edge order, vertical and
    # horizontal edges and crossings at an edge's ends all occur
    m = MODELS[name]
    spec = GridSpec(E=2, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    steps = (-alpha / 2, 0, alpha / 2)
    for k, a in enumerate(m.vertices):
        b = m.vertices[(k + 1) % m.n]
        xs = [a + Point(dx, dy) for dx in steps for dy in steps]
        xs += [a + (b - a).scaled(t) - c
               for t in (Fraction(0), Fraction(1, 3))
               for c in triangle_offsets(alpha)]
        for x in xs:
            assert outcome(surrounding_grid, spec, m, x, alpha) == outcome(
                surrounding_grid_ref, spec, m, x, alpha), x


def test_round_to_grid_searches_a_ring_that_can_hold_a_nearer_point():
    # on the unit grid this triangle's only grid points are its vertices;
    # ring 0 holds (5, 6) at squared distance 1.42 > 1, so ring 1 must be
    # searched, and its (4, 4) is nearer, at 1.12
    m = load_polygon([(4, 4), (5, 7), (5, 6)])
    spec = GridSpec(E=1, L=1)
    x = Point(Fraction(135, 31), Fraction(5))
    assert round_to_grid(spec, m, x) == pt(4, 4)
    assert round_to_grid_ref(spec, m, x) == pt(4, 4)


def test_surrounding_grid_star_vertex_at_exactly_one_over_l():
    m = square()
    spec = GridSpec(E=2, L=m.L)
    alpha = Fraction(1, m.L ** 2)
    for offset, starred in ((Point(Fraction(3, 5 * m.L), Fraction(4, 5 * m.L)),
                             pt(1, 1)),
                            (Point(Fraction(3, 5 * m.L) + alpha,
                                   Fraction(4, 5 * m.L)), None)):
        x = pt(1, 1) + offset
        sg = surrounding_grid(spec, m, x, alpha)
        assert sg.starred == starred
        assert sg == surrounding_grid_ref(spec, m, x, alpha)


# triangles of area 1/2 whose only integer points are their vertices, more
# than 64 unit cells long: along an axis and along the diagonal
SLIVERS = (load_polygon([(1, 1), (200, 2), (199, 2)]),
           load_polygon([(1, 1), (101, 100), (100, 99)]))


@given(st.sampled_from(SLIVERS), unit, unit)
@settings(max_examples=30, deadline=None)
def test_round_to_grid_ring_budget_matches_reference(m, u, v):
    # on the unit grid the middle of the first sliver is more than 64 rings
    # from any of its grid points, so the search raises; in the middle of
    # the second a vertex lies within ring 63 but more than 64 cells away,
    # so the budget returns it without the stopping rule
    spec = GridSpec(E=1, L=1)
    a, b, c = m.vertices
    if u + v > 1:
        u, v = 1 - u, 1 - v
    x = a + (b - a).scaled(u) + (c - a).scaled(v)
    assert outcome(round_to_grid, spec, m, x) == outcome(
        round_to_grid_ref, spec, m, x)


def test_round_to_grid_ring_budget():
    spec = GridSpec(E=1, L=1)
    centre = Point(Fraction(400, 3), Fraction(5, 3))
    for f in (round_to_grid, round_to_grid_ref):
        with pytest.raises(NoGridPointNearby):
            f(spec, SLIVERS[0], centre)
    # ring 49 holds (100, 99) at distance 69.3 > 64, and no other grid
    # point of the sliver is within ring 63
    centre = Point(Fraction(203, 4), Fraction(201, 4))
    for f in (round_to_grid, round_to_grid_ref):
        assert f(spec, SLIVERS[1], centre) == pt(100, 99)


def test_surrounding_grid_rejects_outside_point():
    m = comb(3)
    spec = GridSpec(E=2, L=m.L)
    slit = Point(Fraction(5, 2), Fraction(4))
    for f in (surrounding_grid, surrounding_grid_ref):
        with pytest.raises(PointOutsidePolygon):
            f(spec, m, slit, Fraction(1, m.L ** 2))
