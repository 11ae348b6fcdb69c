"""Bad-region wedges of opposite reflex pairs and triple-overlap checks."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridguards.badregions import (
    bad_region,
    check_no_triple_intersection,
    in_bad_region,
    wedge_outline,
)
from gridguards.generate import (
    blocking_fixture,
    channel,
    concurrent_pairs,
    counterexample_polygon,
    random_polygon,
    spike_pairs,
    triple_pairs,
)
from gridguards.geometry import Point, dist_sq, pt
from gridguards.polygon import (
    PointOutsidePolygon,
    PolygonError,
    opposite_reflex_pairs,
)

from oracles import (
    in_bad_region_ref,
    triple_intersections_ref,
    wedge_contains_ref,
    wedge_outline_ref,
)


def channel_region(s, embiggened=False):
    m = channel()
    (pair,) = opposite_reflex_pairs(m)
    return m, bad_region(m, pair, s, embiggened=embiggened)


def test_bad_region_membership():
    m, region = channel_region(Fraction(1, 10))
    r1 = m.vertices[region.pair.r1]
    r2 = m.vertices[region.pair.r2]
    # points on the segment between the reflex vertices are never bad
    mid = Point((r1.x + r2.x) / 2, (r1.y + r2.y) / 2)
    assert not in_bad_region(region, mid)
    # apexes are not members (along = 0, open wedge)
    assert not in_bad_region(region, r1)
    # a point slightly beyond r1, near its supporting line, is bad
    step = (r1 - r2).scaled(Fraction(1, 100))
    assert in_bad_region(region, r1 + step)


def test_bad_region_is_open_at_slope_boundary():
    m, region = channel_region(Fraction(1, 2))
    w = region.wedges[0]
    along = w.outward
    perp = Point(-along.y, along.x)
    base = w.apex + along.scaled(Fraction(1, 50))
    onset = base + perp.scaled(Fraction(1, 100))  # |perp| == s * along
    assert not in_bad_region(region, onset)
    assert not wedge_contains_ref(w, onset)
    inside = base + perp.scaled(Fraction(1, 300))
    assert in_bad_region(region, inside)
    assert wedge_contains_ref(w, inside)


def test_bad_region_rejects_outside_query():
    m, region = channel_region(Fraction(1, 10))
    with pytest.raises(PointOutsidePolygon):
        in_bad_region(region, pt(10 ** 6, 10 ** 6))


def test_bad_region_requires_positive_slope():
    m = channel()
    (pair,) = opposite_reflex_pairs(m)
    with pytest.raises(ValueError):
        bad_region(m, pair, 0)


def test_embiggened_apexes_near_reflex_vertices():
    m, region = channel_region(Fraction(1, 100), embiggened=True)
    bound = Fraction(1, m.L ** 2)
    for apex, idx in zip(region.apex_offsets,
                         (region.pair.r1, region.pair.r2)):
        d = dist_sq(apex, m.vertices[idx])
        assert bound ** 2 / 2 <= d <= bound ** 2
    # embiggened wedges cover the plain wedges' sample points
    _, plain = channel_region(Fraction(1, 100))
    r1 = m.vertices[plain.pair.r1]
    probe = r1 + (r1 - m.vertices[plain.pair.r2]).scaled(Fraction(1, 100))
    assert in_bad_region(plain, probe)
    assert in_bad_region(region, probe)


def test_no_triple_intersection_clean_fixture():
    m = triple_pairs()
    s = Fraction(1, m.L ** 9)
    report = check_no_triple_intersection(m, s)
    assert report.triples == []
    assert report.pair_count == 8


def test_triple_intersection_detected_when_concurrent():
    m = concurrent_pairs()
    report = check_no_triple_intersection(m, Fraction(1, 16))
    assert report.triples == [(2, 4, 6)]
    assert report.pair_count == 9


def test_triple_intersection_persists_at_theorem_slope():
    # the concurrency sits exactly on all three supporting lines, so no
    # positive slope makes it disappear; it is a line concurrency, not a
    # wedge-width artifact
    m = concurrent_pairs()
    report = check_no_triple_intersection(m, Fraction(1, m.L ** 9))
    assert report.triples == [(2, 4, 6)]


@st.composite
def many_pairs(draw):
    """A polygon with at least three opposite reflex pairs: a random
    polygon of 16-24 vertices, or a room with three spike pairs at random
    places, whose wedges often overlap (6-9 opposite pairs)."""
    if draw(st.booleans()):
        m = random_polygon(draw(st.integers(16, 24)),
                           draw(st.integers(12, 30)),
                           seed=draw(st.integers(0, 40)))
    else:
        bx = [2 + draw(st.integers(0, 5))]
        tx = [4 + draw(st.integers(0, 5))]
        for _ in range(2):
            bx.append(bx[-1] + draw(st.integers(3, 25)))
            tx.append(tx[-1] + draw(st.integers(3, 25)))
        apexes = [((b, draw(st.integers(3, 29))),
                   (t, draw(st.integers(32, 58)))) for b, t in zip(bx, tx)]
        width = max(bx[-1] + 3, tx[-1] + 1) + draw(st.integers(1, 10))
        try:
            m = spike_pairs(apexes, box=(1, 1, width, 60))
        except PolygonError:
            assume(False)
    assume(len(opposite_reflex_pairs(m)) >= 3)
    return m


def slope(m, name):
    return {"1/16": Fraction(1, 16), "1/4": Fraction(1, 4),
            "L^-3": Fraction(1, m.L ** 3)}[name]


SLOPES = st.sampled_from(["1/16", "1/4", "L^-3"])


@settings(max_examples=15, deadline=None)
@given(many_pairs(), SLOPES)
def test_triples_match_fraction_reference(m, s):
    """The integer half-plane clip finds the triples that clipping with
    the rational line kernel finds."""
    s = slope(m, s)
    assert (check_no_triple_intersection(m, s).triples
            == triple_intersections_ref(m, s))


@settings(max_examples=25, deadline=None)
@given(many_pairs(), SLOPES, st.booleans())
def test_wedge_outline_matches_fraction_reference(m, s, embiggened):
    """Every wedge's outline, plain or with the embiggened rational apex,
    has the vertices, in order, of the rational kernel's clip."""
    s = slope(m, s)
    for pair in opposite_reflex_pairs(m):
        for w in bad_region(m, pair, s, embiggened=embiggened).wedges:
            assert wedge_outline(m, w) == wedge_outline_ref(m, w)


def probe_points(region, t, u):
    """Points on and around each wedge of the region: its apex, points at
    parameter t on each boundary ray, just inside and just outside each
    ray by u times the ray's step across, on the axis, behind the apex,
    and on the segment between the apexes."""
    a1, a2 = region.apex_offsets
    pts = [a1, a2, a1 + (a2 - a1).scaled(t), a2 + (a1 - a2).scaled(t)]
    for w in region.wedges:
        d = w.outward
        perp = Point(-d.y, d.x)
        pts += [w.apex + d.scaled(t), w.apex - d.scaled(t)]
        for sign in (1, -1):
            ray = d + perp.scaled(sign * w.s)
            on = w.apex + ray.scaled(t)
            step = perp.scaled(sign * w.s * t * u)
            pts += [on, on - step, on + step]
    return pts


REGION_SLOPES = st.sampled_from(["1/4", "L^-3", "L^-3/2"])
FIXTURES = st.sampled_from([channel, counterexample_polygon, triple_pairs,
                            lambda: blocking_fixture()[0]])


@st.composite
def region_polygons(draw):
    """A fixture with opposite reflex pairs, or a random polygon."""
    if draw(st.booleans()):
        return draw(FIXTURES)()
    m = random_polygon(draw(st.integers(8, 16)), draw(st.integers(8, 30)),
                       seed=draw(st.integers(0, 40)))
    assume(opposite_reflex_pairs(m))
    return m


def region_slope(m, name):
    if name == "L^-3/2":
        return Fraction(1, 2 * m.L ** 3)
    return slope(m, name)


def membership(f, region, x):
    try:
        return f(region, x)
    except PointOutsidePolygon:
        return "outside"


@settings(max_examples=40, deadline=None)
@given(region_polygons(), REGION_SLOPES, st.booleans(),
       st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
       st.fractions(min_value=Fraction(1, 1000), max_value=2,
                    max_denominator=1000))
def test_in_bad_region_matches_fraction_reference(m, s, embiggened, t, u):
    """Membership on the integer half-planes agrees with the Fraction
    wedge formula, the contract for points outside P included, at the
    apexes, on the boundary rays and just off them, and on the segment
    between the apexes."""
    s = region_slope(m, s)
    for pair in opposite_reflex_pairs(m):
        region = bad_region(m, pair, s, embiggened=embiggened)
        for x in probe_points(region, t, u):
            assert (membership(in_bad_region, region, x)
                    == membership(in_bad_region_ref, region, x))


@pytest.mark.parametrize("embiggened", (False, True))
def test_in_bad_region_boundary_cases(embiggened):
    """On the channel at slope 1/4: apexes, boundary rays and the segment
    between the apexes are outside the open region; the axis and points
    just inside a boundary ray are inside."""
    m, region = channel_region(Fraction(1, 4), embiggened=embiggened)
    a1, a2 = region.apex_offsets
    t = Fraction(1, 10)
    for x in (a1, a2, a1 + (a2 - a1).scaled(t), a2 + (a1 - a2).scaled(t)):
        assert not in_bad_region(region, x)
    for w in region.wedges:
        d = w.outward
        perp = Point(-d.y, d.x)
        assert in_bad_region(region, w.apex + d.scaled(t))
        for sign in (1, -1):
            on = w.apex + (d + perp.scaled(sign * w.s)).scaled(t)
            step = perp.scaled(sign * w.s * t / 1000)
            assert not in_bad_region(region, on)
            assert in_bad_region(region, on - step)
            assert not in_bad_region(region, on + step)
            for x in (on, on - step, on + step):
                assert in_bad_region(region, x) == wedge_contains_ref(w, x)


def test_in_bad_region_clears_the_point_once(monkeypatch):
    """One membership call clears its point once and tests P on those
    integers, with no call to point_in_polygon."""
    from gridguards import badregions, polygon

    m, region = channel_region(Fraction(1, 4))
    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count(badregions, "cleared")
    count(polygon, "cleared")
    count(polygon, "point_in_polygon")
    x = Point(Fraction(361, 60), Fraction(29, 10))
    assert in_bad_region(region, x)
    assert calls == Counter(cleared=1)
