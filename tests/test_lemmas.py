"""Executable checks of the geometric separation and stability bounds."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
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
from gridguards import lemmas
from gridguards.geometry import Point, dist_sq, orient, pt
from gridguards.lemmas import (
    LemmaReport,
    _in_cone,
    _interior_points,
    _meet_on_segment,
    _rays_intersect,
    build_counterexample,
    check_cone_property,
    check_distance_lemma,
    check_grid_outside_bad,
    check_limited_blocking,
    check_local_visibility,
)
from gridguards.grid import GridSpec, surrounding_grid
from gridguards.polygon import (
    extensions,
    line_meets,
    load_polygon,
    opposite_reflex_pairs,
    reflex_vertices,
    triangulate,
)
from gridguards.visibility import sees

from oracles import (
    blocking_meet_ref,
    in_cone_ref,
    interior_points_ref,
    missed_interval,
    rays_intersect_ref,
    separate_meets_ref,
)


def test_report_status_transitions():
    rep = LemmaReport(lemma_id="demo")
    assert rep.status == "Skipped"
    rep.skipped += 1
    assert rep.status == "Skipped"
    rep.check(True, "ok", "")
    assert rep.status == "Verified"
    rep.check(False, "bad", "w")
    assert rep.status == "Violated"
    doc = rep.to_dict()
    assert doc["lemma_id"] == "demo"
    assert doc["status"] == "Violated"
    assert doc["instances_checked"] == 2
    assert doc["skipped"] == 1
    assert doc["violations"] == [["bad", "w"]]


def test_distance_lemma_channel():
    rep = check_distance_lemma(channel())
    assert rep.status == "Verified"
    assert rep.instances_checked > 1000
    assert rep.violations == []


def test_distance_lemma_random_polygon():
    rep = check_distance_lemma(random_polygon(10, 30, seed=5))
    assert rep.status == "Verified"


def distance_report_ref(m):
    """``check_distance_lemma(m)`` with items 3 and 4 decided pair by pair
    by the reference loops."""
    with patch.object(lemmas, "_separate_meets", separate_meets_ref):
        return check_distance_lemma(m).to_dict()


def test_distance_lemma_item3_reports_each_close_pair():
    """With L forced to 1, item 3 asks each meeting point to be at least 1
    from every line not through it; the reference's item-3 violations are
    exactly the pairs closer than that, counted here on Fractions, and the
    library refuses an L too small for its integrality bounds."""
    m = replace(channel(), L=1)
    lines = extensions(m)
    expected = 0
    for x, y, w in line_meets(lines):
        for a, b, c in lines:
            r = a * Fraction(x, w) + b * Fraction(y, w) - c
            expected += r != 0 and r * r < a * a + b * b
    doc = distance_report_ref(m)
    assert expected > 0
    assert sum(v[0].startswith("item3") for v in doc["violations"]) == expected
    with pytest.raises(ValueError, match="L = 1 is too small"):
        check_distance_lemma(m)


DISTANCE_FIXTURES = {
    "channel": channel,
    "deshpande": counterexample_polygon,
    "blocking": lambda: blocking_fixture()[0],
    "comb3": lambda: comb(3),
}


@pytest.mark.parametrize("name", sorted(DISTANCE_FIXTURES))
def test_distance_lemma_matches_reference_on_fixtures(name):
    m = DISTANCE_FIXTURES[name]()
    doc = check_distance_lemma(m).to_dict()
    assert doc["status"] == "Verified"
    assert doc == distance_report_ref(m)


@given(st.integers(3, 12), st.integers(8, 30), st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_distance_lemma_matches_reference_on_random_polygons(n, M, seed):
    m = random_polygon(n, M, seed=seed)
    assert check_distance_lemma(m).to_dict() == distance_report_ref(m)


@pytest.mark.parametrize("name", sorted(DISTANCE_FIXTURES))
def test_distance_lemma_matches_reference_at_forced_L(name):
    """With L forced below 20 M, the reference tests every pair, and its
    item-4 violations are exactly the pairs closer than L^-4, counted over
    all pairs.  The library equals the reference at L = 20, where the
    integrality bounds still hold, and refuses L = 1, 2 and 3."""
    m = DISTANCE_FIXTURES[name]()
    # each pair's squared distance, as a numerator over a denominator
    gaps = [((x1 * w2 - x2 * w1) ** 2 + (y1 * w2 - y2 * w1) ** 2,
             (w1 * w2) ** 2)
            for (x1, y1, w1), (x2, y2, w2)
            in combinations(line_meets(extensions(m)), 2)]
    for k in (1, 2, 3, 20):
        mk = replace(m, L=k)
        doc = distance_report_ref(mk)
        close = sum(num * k ** 8 < den for num, den in gaps)
        assert close == sum(v[0].startswith("item4")
                            for v in doc["violations"])
        if k == 1:
            # every point tested, and both items report violations
            assert doc["status"] == "Violated" and close > 0
            assert any(v[0].startswith("item3") for v in doc["violations"])
        if k == 20:
            assert check_distance_lemma(mk).to_dict() == doc
        else:
            with pytest.raises(ValueError, match=f"L = {k} is too small"):
                check_distance_lemma(mk)


def test_distance_lemma_counts_a_valid_polygon_with_a_huge_coordinate():
    """Comb 2 with the vertex (4, 6) moved to (10^20 - 1, 6) is valid, so
    the integrality bounds hold for it: it is counted, not refused, and
    equals the reference."""
    m = load_polygon([(1, 1), (4, 1), (10 ** 20 - 1, 6), (3, 6), (3, 2),
                      (2, 2), (2, 6), (1, 6)])
    doc = check_distance_lemma(m).to_dict()
    assert doc["status"] == "Verified"
    assert doc == distance_report_ref(m)


def test_distance_lemma_item1_floor():
    # integer vertices: the minimum pairwise squared distance is exactly 1
    m = channel()
    dmin = min(dist_sq(a, b)
               for i, a in enumerate(m.vertices)
               for b in m.vertices[i + 1:])
    assert dmin >= 1


def test_limited_blocking_fixture_verified():
    m, x = blocking_fixture()
    rep = check_limited_blocking(m, samples=0, extra_points=[x])
    assert rep.status == "Verified"
    assert rep.instances_checked == 1
    assert rep.violations == []


def test_limited_blocking_random_sampling_no_violations():
    m, _ = blocking_fixture()
    rep = check_limited_blocking(m, samples=20, seed=1)
    assert rep.status in ("Verified", "Skipped")
    assert rep.violations == []


def assert_cones_match_reference(m, apexes):
    """``_in_cone`` with its rays put in counterclockwise order, as
    ``check_limited_blocking`` puts them, against ``in_cone_ref`` for every
    apex, every pair of reflex vertices as the rays' ends (pairs collinear
    with the apex skipped, as the check skips them), and every apex and
    vertex as the tested point."""
    points = list(m.vertices) + list(apexes)
    refl = [m.vertices[i] for i in reflex_vertices(m)]
    for x in apexes:
        for u, v in combinations(refl, 2):
            turn = orient(x, u, v)
            if turn == 0:
                continue
            a, b = (u, v) if turn > 0 else (v, u)
            for q in points:
                assert _in_cone(x, a, b, q) == in_cone_ref(x, u, v, q)


CONE_FIXTURES = {
    "blocking": lambda: blocking_fixture()[0],
    "channel": channel,
    "comb4": lambda: comb(4),
    "concurrent-pairs": concurrent_pairs,
    "deshpande": counterexample_polygon,
    "triple-pairs": triple_pairs,
}


@pytest.mark.parametrize("name", sorted(CONE_FIXTURES))
def test_in_cone_matches_reference(name):
    m = CONE_FIXTURES[name]()
    samples = _interior_points(triangulate(m), random.Random(0))
    assert_cones_match_reference(m, list(islice(samples, 6))
                                 + list(m.vertices[:4]))


def test_in_cone_matches_reference_at_blocking_viewpoint():
    m, x = blocking_fixture()
    assert_cones_match_reference(m, [x])


@given(st.integers(5, 9), st.integers(8, 30), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_in_cone_matches_reference_on_random_polygons(n, M, seed):
    m = random_polygon(n, M, seed=seed)
    samples = _interior_points(triangulate(m), random.Random(seed))
    assert_cones_match_reference(m, list(islice(samples, 4))
                                 + list(m.vertices))


def test_cone_property_channel():
    rep = check_cone_property(channel(), samples=60, seed=0)
    assert rep.status == "Verified"
    assert rep.instances_checked > 0


def test_cone_property_counterexample_polygon():
    rep = check_cone_property(counterexample_polygon(), samples=40, seed=0)
    assert rep.violations == []
    assert rep.instances_checked > 0


def test_grid_outside_bad_channel():
    rep = check_grid_outside_bad(channel(), samples=40, seed=0)
    assert rep.status == "Verified"
    assert rep.instances_checked > 0
    assert rep.violations == []


def test_local_visibility_holds_away_from_bad_region():
    m = channel()
    L = m.L
    s = Fraction(1, L ** 3)
    alpha = s / (16 * L)
    x = pt(2, 2)  # far from the spike pair's supporting line
    rep = check_local_visibility(m, x, alpha)
    assert rep.status == "Verified"
    assert rep.violations == []


def test_counterexample_fixture_structure():
    fix = build_counterexample(3)
    m = fix.polygon
    assert fix.pinhole_target == pt(1, 6)
    assert len(fix.approach_points) == 3
    assert len(fix.wall_intervals) == 3
    L = m.L
    for i, (a, (lo, hi)) in enumerate(
            zip(fix.approach_points, fix.wall_intervals), start=1):
        d = Fraction(1, 2 ** i * L)
        assert a == Point(Fraction(17), 6 - d)
        assert not sees(m, a, fix.pinhole_target)
        # interval endpoints match the closed form on the left wall
        assert (lo.y, hi.y) == (6 + 5 * d / 3, 6 + 3 * d)
        assert lo.x == hi.x == 1
    # intervals are pairwise disjoint and nested downward
    ys = [(lo.y, hi.y) for lo, hi in fix.wall_intervals]
    for (lo1, hi1), (lo2, hi2) in zip(ys, ys[1:]):
        assert hi2 < lo1


def test_counterexample_requires_positive_depth():
    with pytest.raises(ValueError):
        build_counterexample(0)


def test_missed_interval_none_when_covered():
    fix = build_counterexample(2)
    # the approach points themselves see their own intervals
    assert missed_interval(fix, list(fix.approach_points)) is None


def test_missed_interval_detects_gap():
    fix = build_counterexample(3)
    m = fix.polygon
    L = m.L
    a3 = fix.approach_points[2]
    # the coarse unit grid around a3 collapses to a single lattice point
    # which cannot see interval 1 through the slit
    spec = GridSpec(E=1, L=L)
    sg = surrounding_grid(spec, m, a3, Fraction(1, L ** 2))
    miss = missed_interval(fix, list(sg.all_points()))
    assert miss is not None
    idx, witness = miss
    assert idx == 1
    lo, hi = fix.wall_intervals[0]
    assert lo.y < witness.y < hi.y
    assert witness.x == 1


def test_local_visibility_violated_at_bad_region():
    fix = build_counterexample(3)
    m = fix.polygon
    L = m.L
    a3 = fix.approach_points[2]
    s = Fraction(1, 20 * L)
    rep = check_local_visibility(m, a3, s / (16 * L), grid_exponent=1)
    assert rep.status == "Violated"
    # every violation witness is genuinely seen by a3 but by no guard
    spec = GridSpec(E=1, L=L)
    sg = surrounding_grid(spec, m, a3, s / (16 * L))
    guards = list(sg.all_points())
    assert len(rep.violations) >= 1
    for instance, _ in rep.violations:
        assert instance.startswith("face witness")


def test_blocking_fixture_geometry():
    m, x = blocking_fixture()
    w = Fraction(1, m.L ** 3)
    assert x == Point(17 - w, Fraction(26, 5) + 3 * w / 10)
    # x lies inside the polygon and its reflex pair exists
    pairs = opposite_reflex_pairs(m)
    assert any({m.vertices[p.r1], m.vertices[p.r2]}
               == {pt(11, 6), pt(13, 6)} for p in pairs)


# the blocking conclusion's meet: integer segment ends and q, and a
# rational g, placed by each case below
ints = st.integers(-12, 12)
grid_steps = st.integers(-3 * 4000, 3 * 4000).map(lambda n: Fraction(n, 4000))
MEET_CASES = ("free", "parallel", "identical", "at_a", "at_b", "past_a",
              "past_b", "g_is_q")


def meet_points(case, ax, ay, bx, by, qx, qy, t, u):
    """(g, q, a, b) for the case: ``t`` places g and ``u`` places the meet
    on the line of a and b."""
    a, b, q = pt(ax, ay), pt(bx, by), pt(qx, qy)
    d = b - a
    if case == "parallel":
        return q + d.scaled(t), q, a, b
    if case == "identical":
        return a + d.scaled(t), a + d.scaled(qx), a, b
    if case == "g_is_q":
        return q, q, a, b
    step = Fraction(1, 4000)
    p = {"free": a + d.scaled(u), "at_a": a, "at_b": b,
         "past_a": a - d.scaled(step), "past_b": b + d.scaled(step)}[case]
    return p + (q - p).scaled(t), q, a, b


@settings(max_examples=300)
@given(st.sampled_from(MEET_CASES), ints, ints, ints, ints, ints, ints,
       grid_steps, st.fractions(-1, 2, max_denominator=12))
@example("at_a", 0, 0, 4, 2, 1, 5, Fraction(1, 2), 0)
@example("at_b", 0, 0, 4, 2, 1, 5, Fraction(-1, 3), 0)
@example("past_a", 0, 0, 4, 2, 1, 5, Fraction(1, 2), 0)
@example("past_b", 7, 3, 7, 9, 1, 5, Fraction(3, 2), 0)
@example("parallel", 0, 0, 4, 2, 1, 5, Fraction(1, 2), 0)
@example("identical", 0, 0, 4, 2, 3, 5, Fraction(1, 2), 0)
def test_blocking_meet_matches_fraction_reference(case, ax, ay, bx, by, qx,
                                                  qy, t, u):
    """The homogeneous meet of check_limited_blocking agrees with the
    rational line kernel and on_segment: parallel and identical lines and
    g = q give none, a meet at either end counts, and one 1/4000 of the
    segment past an end does not."""
    g, q, a, b = meet_points(case, ax, ay, bx, by, qx, qy, t, u)
    assume(a != b)
    meet = _meet_on_segment(g, q, a, b)
    got = None if meet is None else pt(Fraction(meet[0], meet[2]),
                                       Fraction(meet[1], meet[2]))
    assert got == blocking_meet_ref(g, q, a, b)
    if meet is not None:
        assert meet[2] > 0
    if case in ("parallel", "identical", "past_a", "past_b", "g_is_q"):
        assert got is None
    elif case in ("at_a", "at_b") and g != q and orient(a, b, q) != 0:
        assert got == (a if case == "at_a" else b)


SAMPLE_FIXTURES = {**CONE_FIXTURES, "comb3": lambda: comb(3)}


def assert_samples_match_reference(m, seed, count):
    """``_interior_points`` draws the points of the Fraction sampler, in
    order, and leaves the rng where the Fraction sampler leaves it."""
    tris = triangulate(m)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = list(islice(_interior_points(tris, rng), count))
    assert got == list(islice(interior_points_ref(tris, ref_rng), count))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("name", sorted(SAMPLE_FIXTURES))
def test_interior_points_match_fraction_reference(name):
    assert_samples_match_reference(SAMPLE_FIXTURES[name](), 3, 200)


@given(st.integers(3, 12), st.integers(8, 30), st.integers(0, 10 ** 6),
       st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_interior_points_match_fraction_reference_on_random_polygons(
        n, M, seed, count):
    assert_samples_match_reference(random_polygon(n, M, seed=seed), seed,
                                   count)


coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def ray_pairs(draw):
    """Two rays by origin and a point they pass through; often parallel,
    collinear or sharing points, as the cone check's rays can be."""
    o1, p1, o2 = (Point(draw(coords), draw(coords)) for _ in range(3))
    assume(o1 != p1)
    kind = draw(st.sampled_from(("free", "parallel", "collinear")))
    if kind == "free":
        p2 = Point(draw(coords), draw(coords))
    else:
        if kind == "collinear":
            o2 = o1 + (p1 - o1).scaled(draw(coords))
        p2 = o2 + (p1 - o1).scaled(draw(coords))
    assume(o2 != p2)
    return o1, p1, o2, p2


@given(ray_pairs())
@settings(max_examples=200, deadline=None)
def test_rays_intersect_matches_fraction_reference(rays):
    o1, p1, o2, p2 = rays
    assert _rays_intersect(o1, p1, o2, p2) == rays_intersect_ref(
        o1, p1 - o1, o2, p2 - o2)
