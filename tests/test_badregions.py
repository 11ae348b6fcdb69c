"""Bad-region wedges of opposite reflex pairs and triple-overlap checks."""

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
    channel,
    concurrent_pairs,
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

from oracles import triple_intersections_ref, wedge_outline_ref


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
    assert not w.contains(onset)
    inside = base + perp.scaled(Fraction(1, 300))
    assert w.contains(inside)


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
