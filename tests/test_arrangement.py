"""Planar subdivision from exact segments: faces and interior representatives."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridguards import grid, lemmas
from gridguards.arrangement import build_arrangement
from gridguards.generate import (
    blocking_fixture,
    channel,
    comb,
    concurrent_pairs,
    counterexample_polygon,
    triple_pairs,
)
from gridguards.geometry import Point, pt
from gridguards.grid import guard_set, verify_coverage
from gridguards.lemmas import build_counterexample, check_local_visibility
from gridguards.polygon import load_polygon, triangulate
from gridguards.solver import SolveConfig, default_candidates, eh_solve
from gridguards.visibility import overlay_segments, visibility_polygon

from oracles import (
    boundary,
    arrangement_ref,
    integer_segments,
    on_segment,
    polygon_area,
    representatives,
    winding_inside,
)


def point_overlay(m, polygons):
    """``overlay_segments`` as Point segments, read off the polygons'
    boundary Points."""
    segs = list(m.edges())
    for vp in polygons:
        b = boundary(vp)
        segs.extend((b[i], b[(i + 1) % len(b)]) for i in vp.window_edges)
    return segs


def square_segments():
    c = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    return [(c[i], c[(i + 1) % 4]) for i in range(4)]


def test_square_single_face():
    arr = build_arrangement(*integer_segments(square_segments()))
    assert len(arr.face_cycles) == 1
    assert polygon_area(arr.face_cycles[0]) == 16
    assert len(representatives(arr)) == 1


def test_square_with_one_diagonal():
    segs = square_segments() + [(pt(0, 0), pt(4, 4))]
    arr = build_arrangement(*integer_segments(segs))
    assert len(arr.face_cycles) == 2
    assert sorted(polygon_area(c) for c in arr.face_cycles) == [8, 8]


def test_square_with_both_diagonals():
    segs = square_segments() + [(pt(0, 0), pt(4, 4)), (pt(0, 4), pt(4, 0))]
    arr = build_arrangement(*integer_segments(segs))
    # diagonals cross at (2, 2): four triangular faces
    assert len(arr.face_cycles) == 4
    assert all(polygon_area(c) == 4 for c in arr.face_cycles)
    assert pt(2, 2) in arr.nodes


def test_representatives_strictly_inside_their_face():
    segs = square_segments() + [(pt(0, 0), pt(4, 4)), (pt(0, 4), pt(4, 0)),
                                (pt(2, 0), pt(2, 4))]
    arr = build_arrangement(*integer_segments(segs))
    assert len(representatives(arr)) == len(arr.face_cycles)
    for cycle, rep in zip(arr.face_cycles, representatives(arr)):
        assert winding_inside(cycle, rep)
        # strictly inside: not on any input segment
        for a, b in segs:
            from oracles import on_segment
            assert not on_segment(rep, a, b)


def test_faces_partition_square_area():
    segs = square_segments() + [(pt(1, 0), pt(1, 4)), (pt(0, 2), pt(4, 2)),
                                (pt(0, 0), pt(4, 4))]
    arr = build_arrangement(*integer_segments(segs))
    assert sum(polygon_area(c) for c in arr.face_cycles) == 16


def test_dangling_segment_does_not_create_face():
    segs = square_segments() + [(pt(2, 2), pt(3, 3))]
    arr = build_arrangement(*integer_segments(segs))
    assert len(arr.face_cycles) == 1
    assert sum(polygon_area(c) for c in arr.face_cycles) == 16


coords = st.integers(min_value=0, max_value=8)


@given(st.lists(st.tuples(coords, coords, coords, coords),
                min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_random_chords_partition_area(chords):
    segs = square_segments()
    for (x0, y0, x1, y1) in chords:
        if (x0, y0) != (x1, y1):
            segs.append((pt(x0, y0), pt(x1, y1)))
    arr = build_arrangement(*integer_segments(segs))
    total = sum(polygon_area(c) for c in arr.face_cycles)
    # chords may stick out of the square and bound extra faces, so the
    # total is at least the square; faces never overlap
    assert total >= 16
    for cycle, rep in zip(arr.face_cycles, representatives(arr)):
        assert winding_inside(cycle, rep)


# Differential tests against the brute-force reference in oracles.py.

def box(x0, y0, x1, y1):
    c = [pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)]
    return [(c[i], c[(i + 1) % 4]) for i in range(4)]


def assert_matches_reference(segs):
    arr = build_arrangement(*integer_segments(segs))
    nodes, edges, cycles = arrangement_ref(segs)
    assert arr.nodes == nodes
    assert arr.edges == edges
    assert arr.face_cycles == cycles
    assert len(representatives(arr)) == len(cycles)
    for f, (cycle, rep) in enumerate(zip(cycles, representatives(arr))):
        assert winding_inside(cycle, rep)
        # a zero-length input segment is a point, not an edge: it is dropped
        assert not any(on_segment(rep, a, b) for a, b in segs if a != b)
        # a cycle around rep other than its own must enclose its own face
        for g, other in enumerate(cycles):
            if g != f and winding_inside(other, rep):
                assert polygon_area(other) > polygon_area(cycle)
    return arr


fracs = st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 4),
                         Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                         Fraction(1), Fraction(3, 2)])
lattice = st.builds(pt, st.integers(0, 12), st.integers(0, 12))


@st.composite
def segment_scenes(draw):
    segs = box(0, 0, 12, 12)
    for _ in range(draw(st.integers(0, 3))):       # chords, floating or not
        segs.append((draw(lattice), draw(lattice)))
    for _ in range(draw(st.integers(0, 2))):       # holes: floating boxes
        x, y = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        w, h = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        segs += box(x, y, x + w, y + h)
    for _ in range(draw(st.integers(0, 2))):       # collinear overlaps
        a, b = draw(st.sampled_from(segs))
        s, t = draw(fracs), draw(fracs)
        segs.append((a + (b - a).scaled(s), a + (b - a).scaled(t)))
    for _ in range(draw(st.integers(0, 3))):       # T-junctions and spikes
        a, b = draw(st.sampled_from(segs))
        segs.append((a + (b - a).scaled(draw(fracs)), draw(lattice)))
    for _ in range(draw(st.integers(0, 2))):       # duplicates, either way
        a, b = draw(st.sampled_from(segs))
        segs.append(draw(st.sampled_from([(a, b), (b, a)])))
    for _ in range(draw(st.integers(0, 2))):       # collinear, sharing an end
        a, b = draw(st.sampled_from(segs))
        # overlapping from a, or continuing end to end from b
        t = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
        segs.append(draw(st.sampled_from(
            [(a, a + (b - a).scaled(t)), (b, b + (b - a).scaled(t))])))
    return segs


@given(segment_scenes())
@settings(max_examples=60, deadline=None)
# a zero-length chord at the centre of a hole, where its witness lies
@example(box(0, 0, 12, 12) + [(pt(7, 4), pt(7, 4))] + box(6, 3, 8, 5))
def test_arrangement_matches_reference(segs):
    assert_matches_reference(segs)


def test_holes_and_spikes_match_reference():
    segs = (box(0, 0, 12, 12) + box(3, 3, 6, 6) + box(4, 4, 5, 5)
            + [(pt(0, 6), pt(2, 6)),        # spike off the outer wall
               (pt(8, 8), pt(10, 9)),       # floating segment
               (pt(6, 4), pt(7, 4)),        # spike off a hole
               (pt(3, 3), pt(6, 6)),        # chord through the nested box
               (pt(12, 3), pt(12, 9))])     # collinear overlap of a wall
    arr = assert_matches_reference(segs)
    # the outer face's cycle encloses the hole, whose faces tile its 3 x 3
    assert sum(polygon_area(c) for c in arr.face_cycles) == 144 + 9


@pytest.mark.parametrize("extra", [
    [(pt(0, 0), pt(12, 12)), (pt(0, 0), pt(12, 12))],
    [(pt(0, 0), pt(12, 12)), (pt(12, 12), pt(0, 0))],
    [(pt(0, 0), pt(4, 0)), (pt(0, 0), pt(2, 0)),
     (pt(0, 4), pt(6, 4)), (pt(0, 4), pt(3, 4))],
    [(pt(0, 6), pt(4, 6)), (pt(4, 6), pt(9, 6)), (pt(9, 6), pt(12, 6))],
], ids=["duplicate", "reversed-duplicate", "collinear-shared-end",
        "end-to-end"])
def test_merged_and_skipped_pairs_match_reference(extra):
    """Segments the arrangement merges (identical in either orientation)
    and pairs it skips or meets only at an end: collinear segments that
    share an endpoint and overlap, and collinear ones end to end."""
    assert_matches_reference(box(0, 0, 12, 12) + extra)


@pytest.mark.parametrize("make", [channel, lambda: comb(3)],
                         ids=["channel", "comb3"])
def test_overlay_faces_tile_the_polygon(make):
    m = make()
    polygons = [visibility_polygon(m, c) for c in default_candidates(m)]
    arr = build_arrangement(*overlay_segments(m, polygons))
    segs = point_overlay(m, polygons)
    assert sum(polygon_area(c) for c in arr.face_cycles) == polygon_area(
        m.vertices)
    for rep in representatives(arr):
        # a zero-length input segment is a point, not an edge: it is dropped
        assert not any(on_segment(rep, a, b) for a, b in segs if a != b)


def centroids(m):
    """Four triangles' centroids, over the denominator 3."""
    return [Point((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
            for a, b, c in triangulate(m)[:4]]


def l_shape():
    return load_polygon([(1, 1), (7, 1), (7, 4), (4, 4), (4, 7), (1, 7)])


@pytest.mark.parametrize("make, extra", [
    (lambda: comb(3), centroids), (channel, centroids),
    (counterexample_polygon, centroids),
    (lambda: blocking_fixture()[0], centroids), (triple_pairs, centroids),
    (concurrent_pairs, centroids),
    # the one window from (11/2, 5/2) runs from (4, 4) to (1, 7): its ends
    # are 2 (4, 4) / 2 and 2 (1, 7) / 2 before they are reduced, so s is 1
    (l_shape, lambda m: [pt(Fraction(11, 2), Fraction(5, 2))])],
    ids=["comb3", "channel", "deshpande", "blocking", "triple-pairs",
         "concurrent-pairs", "l-shape"])
def test_integer_overlay_matches_point_path(make, extra):
    """The overlay's integer segments, read off the polygons' triples,
    build the arrangement that their boundary Points build, triples,
    denominator and representatives included, and that of the reference.
    The viewpoints are the vertices and a few points off the grid."""
    m = make()
    polygons = [visibility_polygon(m, v)
                for v in list(m.vertices) + extra(m)]
    arr = build_arrangement(*overlay_segments(m, polygons))
    segs = point_overlay(m, polygons)
    ref = build_arrangement(*integer_segments(segs))
    assert (arr.s, arr.triples, arr.edge_nodes, arr.cycles, arr.reps) == (
        ref.s, ref.triples, ref.edge_nodes, ref.cycles, ref.reps)
    assert (arr.nodes, arr.edges, arr.face_cycles) == arrangement_ref(segs)


# Node order: the arrangement sorts its node triples by floats and re-sorts
# exactly where the floats cannot tell two x apart.  Near 10^17 a float
# resolves steps of 16, so these nodes differ below its resolution.
BIG = 10 ** 17
THIRD = Fraction(1, 3)
thirds = st.builds(lambda k: BIG + Fraction(k, 3), st.integers(0, 36))
near_big = st.builds(pt, thirds, thirds)


@st.composite
def crowded_scenes(draw):
    segs = box(BIG, BIG, BIG + 12, BIG + 12)
    for _ in range(draw(st.integers(1, 5))):
        segs.append((draw(near_big), draw(near_big)))
    return segs


@given(crowded_scenes())
@settings(max_examples=40, deadline=None)
@example(box(BIG, BIG, BIG + 12, BIG + 12)
         + [(pt(BIG + THIRD, BIG), pt(BIG + 2 * THIRD, BIG + 12)),
            (pt(BIG + 2 * THIRD, BIG), pt(BIG + THIRD, BIG + 12)),
            (pt(BIG, BIG + 6), pt(BIG + 12, BIG + 19 * THIRD))])
# x = BIG + 48 alone in its float, on a line that holds a crossing at
# y = BIG + 11/2, with W = 2, and an end at y = BIG + 6, with W = 1: their
# y floats tie, and X = x W s does not order them
@example(box(BIG, BIG, BIG + 100, BIG + 100)
         + [(pt(BIG + 48, BIG), pt(BIG + 48, BIG + 100)),
            (pt(BIG + 30, BIG + 5), pt(BIG + 66, BIG + 6)),
            (pt(BIG + 48, BIG + 6), pt(BIG + 90, BIG + 6))])
def test_node_order_below_float_resolution(segs):
    arr = assert_matches_reference(segs)
    assert arr.nodes == sorted(arr.nodes, key=Point.key)


def test_node_order_with_common_denominator_past_float_range():
    """Endpoints over a denominator beyond 10^308: X / W would overflow a
    float, the point's own coordinate X / (W s) does not."""
    tiny = Fraction(1, 10 ** 320 + 1)
    segs = box(0, 0, 12, 12) + [(pt(1 + tiny, 0), pt(1, 12)),
                                (pt(1, 0), pt(1 + 2 * tiny, 12)),
                                (pt(0, 6 + tiny), pt(12, 6))]
    arr = assert_matches_reference(segs)
    assert arr.nodes == sorted(arr.nodes, key=Point.key)


def test_callers_build_no_node_points(monkeypatch):
    """Certification, a solve's certifier calls and the local visibility
    check read only the representatives' triples, so no arrangement they
    build turns its nodes, edges or face cycles into Points."""
    built = []

    def recording(segments, s):
        built.append(build_arrangement(segments, s))
        return built[-1]
    for module in (grid, lemmas):
        monkeypatch.setattr(module, "build_arrangement", recording)
    m = comb(3)
    verify_coverage(m, guard_set(list(m.vertices)))
    eh_solve(m, SolveConfig(rng_seed=0))
    fix = build_counterexample(3)
    s = Fraction(1, 20 * fix.polygon.L)
    check_local_visibility(fix.polygon, fix.approach_points[2],
                           s / (16 * fix.polygon.L), grid_exponent=1)
    assert len(built) == 3
    for arr in built:
        assert arr.reps
        assert not {"nodes", "edges", "face_cycles"} & set(vars(arr))
    # reading them builds them, once
    assert built[0].face_cycles is built[0].face_cycles
    assert "nodes" in vars(built[0])
