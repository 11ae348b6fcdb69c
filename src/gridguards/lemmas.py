"""Executable checks of the geometric bounds underlying the pipeline.

Every check enumerates or samples concrete configurations, filters them by
the exact hypotheses of the corresponding bound, and verifies the stated
conclusion in exact arithmetic, or counts it when integrality alone implies
it: items 3 and 4 of the distance lemma are only counted, and refuse an L
too small for that.  Configurations failing the hypotheses are skipped,
never verified.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .arrangement import _point, build_arrangement
from .generate import counterexample_polygon
from .geometry import (
    Point,
    Scalar,
    cleared,
    dist_sq,
    orient,
    pt,
)
from .polygon import (
    Line,
    OppositeReflexPair,
    PointOutsidePolygon,
    PolygonModel,
    extensions,
    line_meets,
    opposite_reflex_pairs,
    point_in_polygon,
    reflex_vertices,
    triangulate,
)
from .grid import GridSpec, surrounding_grid
from .badregions import bad_region, in_bad_region
from .visibility import (
    overlay_segments,
    sees,
    visibility_polygon,
    visible_subsegments,
)

STATUS_VERIFIED = "Verified"
STATUS_VIOLATED = "Violated"
STATUS_SKIPPED = "Skipped"


@dataclass
class LemmaReport:
    lemma_id: str
    instances_checked: int = 0
    skipped: int = 0
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.violations:
            return STATUS_VIOLATED
        if self.instances_checked > 0:
            return STATUS_VERIFIED
        return STATUS_SKIPPED

    def check(self, ok: bool, instance: str, witness: str) -> None:
        self.instances_checked += 1
        if not ok:
            self.violations.append((instance, witness))

    def to_dict(self) -> Dict:
        return {
            "lemma_id": self.lemma_id,
            "instances_checked": self.instances_checked,
            "skipped": self.skipped,
            "violations": [list(v) for v in self.violations],
            "status": self.status,
        }


def _separate_meets(rep: LemmaReport, lines: Sequence[Line], L: int) -> None:
    """Items 3 and 4 of the distance lemma on the meeting points (X, Y, W)
    of the integer lines (a, b, c), counted by integrality alone.  A point
    off a line has |aX + bY - cW| >= 1, so with W^2 (a^2 + b^2) <= L^10 it
    lies at least L^-5 from the line; distinct points differ by a nonzero
    integer vector over W1 W2, so with W^4 <= L^8 they lie at least L^-4
    apart.  On a polygon from ``load_polygon`` |a|, |b| < M, W <= 2 M^2
    and L = 20 M, so both bounds hold for every point; an L too small for
    them (one forced on a model) raises ValueError.  The pair-by-pair test
    is ``tests/oracles.py::separate_meets_ref``."""
    meets = line_meets(lines)
    top_w = max((w for *_, w in meets), default=0)
    top_nn = max(a * a + b * b for a, b, _ in lines)
    if top_w ** 2 * top_nn > L ** 10 or top_w ** 4 > L ** 8:
        raise ValueError(f"L = {L} is too small for the integrality bounds "
                         f"of items 3 and 4 of the distance lemma")
    # item 3: every line not through a point; item 4: every pair of points
    rep.instances_checked += sum(len(lines) - len(through)
                                 for through in meets.values())
    rep.instances_checked += len(meets) * (len(meets) - 1) // 2


def check_distance_lemma(m: PolygonModel, seed: int = 0) -> LemmaReport:
    """Exhaustive exact verification of the separation bounds.

    Items: (1) vertex pairs at distance >= 1; (2) vertex to non-incident
    extension >= L^-1; (3) extension intersection to non-incident extension
    >= L^-5; (4) distinct intersection points >= L^-4; (5) parallel distinct
    extensions >= L^-1; (6) tangent between non-parallel extensions
    >= 8 L^-2; (7) constructive: two lines within d of a point a meet within
    d L^2 of a, on 10 sampled line pairs.

    Items 3 and 4 are counted, not tested: on a valid polygon (L = 20 M)
    integrality decides every pair, and an L forced too small for that
    raises ValueError.
    """
    rep = LemmaReport(lemma_id="distances")
    L = m.L
    verts = m.vertices
    n = m.n

    # item 1: pairwise vertex distance >= 1
    xs, ys = m.xs, m.ys
    for i in range(n):
        for j in range(i + 1, n):
            dd = (xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2
            rep.check(dd >= 1, f"item1 v{i} v{j}", str(dd))

    lines = extensions(m)

    # item 2: vertex to extension not through it, distance >= L^-1
    L2 = L * L
    for a, b, c in lines:
        nn = a * a + b * b
        for i, (vx, vy) in enumerate(zip(m.xs, m.ys)):
            r = a * vx + b * vy - c
            if r == 0:
                continue
            rep.check(r * r * L2 >= nn,
                      f"item2 v{i} line({a},{b},{c})", str(r))

    # items 5 and 6 over line pairs
    for i in range(len(lines)):
        a1, b1, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                # item 5: parallel distinct extensions >= L^-1
                g1 = gcd(abs(a1), abs(b1))
                g2 = gcd(abs(a2), abs(b2))
                # scale both to the shared primitive normal (a1/g1, b1/g1)
                diff = Fraction(c1, g1) - Fraction(c2, g2)
                nn = (a1 // g1) ** 2 + (b1 // g1) ** 2
                rep.check(diff * diff * L2 >= nn,
                          f"item5 lines {i},{j}", str(diff))
            else:
                # item 6: tan(angle) = |det| / |dot of directions| >= 8 L^-2
                dd = a1 * a2 + b1 * b2
                rep.check(abs(det) * L2 >= 8 * abs(dd),
                          f"item6 lines {i},{j}", f"det={det} dot={dd}")

    _separate_meets(rep, lines, L)

    # item 7: constructive intersection bound on sampled (a, l1, l2)
    rng = random.Random(seed)
    L4 = L ** 4
    attempts = 0
    while attempts < 10 and len(lines) >= 2:
        attempts += 1
        i, j = rng.sample(range(len(lines)), 2)
        a1, b1, c1 = lines[i]
        a2, b2, c2 = lines[j]
        det = a1 * b2 - a2 * b1
        if det == 0:
            rep.skipped += 1
            continue
        a = verts[rng.randrange(n)]
        d_sq = max(
            Fraction((a1 * a.x + b1 * a.y - c1) ** 2, a1 * a1 + b1 * b1),
            Fraction((a2 * a.x + b2 * a.y - c2) ** 2, a2 * a2 + b2 * b2))
        px = Fraction(c1 * b2 - c2 * b1, det)
        py = Fraction(a1 * c2 - a2 * c1, det)
        p = Point(px, py)
        rep.check(dist_sq(a, p) <= d_sq * L4,
                  f"item7 lines {i},{j} at {a}", str(dist_sq(a, p)))
    return rep


def _interior_points(tris: Sequence[Tuple[Point, Point, Point]],
                     rng: random.Random) -> Iterator[Point]:
    """Seeded random points in the integer triangles abc of P, by area
    weight, one at a time: U, V in [1, 97], as (100 - U, 100 - V) if
    U + V >= 100, give (100 a + (b - a) U + (c - a) V) / 100."""
    ints = [[(int(p.x), int(p.y)) for p in t] for t in tris]
    prefix = list(accumulate(
        abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        for (ax, ay), (bx, by), (cx, cy) in ints))
    total = prefix[-1]
    while True:
        r = rng.randrange(total) if total > 1 else 0
        # bisect_right finds the first triangle with r < its prefix sum
        (ax, ay), (bx, by), (cx, cy) = ints[bisect_right(prefix, r)]
        u = rng.randint(1, 97)
        v = rng.randint(1, 97)
        if u + v >= 100:
            u, v = 100 - u, 100 - v
        yield Point(Fraction(100 * ax + (bx - ax) * u + (cx - ax) * v, 100),
                    Fraction(100 * ay + (by - ay) * u + (cy - ay) * v, 100))


def _grid_exponent(L: int, alpha: Scalar) -> int:
    """The smallest grid exponent E >= 1 with L^-E <= alpha."""
    exponent = 1
    while Fraction(1, L ** exponent) > alpha:
        exponent += 1
    return exponent


def _in_cone(x: Point, u: Point, v: Point, q: Point) -> bool:
    """Whether q lies in the closed convex cone with apex x that turns
    counterclockwise from the ray through u to the ray through v."""
    return orient(x, u, q) >= 0 and orient(x, q, v) >= 0


def _cone_side(m: PolygonModel, x: Point, pair: OppositeReflexPair,
               q: Point) -> Optional[int]:
    """Which bounding ray of cone(x) the point q lies strictly beyond.

    Returns the vertex index (pair.r1 or pair.r2) whose ray q is beyond,
    or None when q is inside the cone or behind the apex.
    """
    r1 = m.vertices[pair.r1]
    r2 = m.vertices[pair.r2]
    # beyond ray(x, rA): opposite side of ell(x, rA) from rB, and same side
    # of ell(x, rB) as rA
    for ra, rb, idx in ((r1, r2, pair.r1), (r2, r1, pair.r2)):
        oa = orient(x, ra, q)
        ob = orient(x, rb, q)
        if oa * orient(x, ra, rb) < 0 and ob * orient(x, rb, ra) > 0:
            return idx
    return None


def check_limited_blocking(m: PolygonModel, samples: int = 100,
                           seed: int = 0,
                           extra_points: Sequence[Point] = ()) -> LemmaReport:
    """Blocked visibility of grid points is confined near one reflex vertex.

    The grid has width L^-3 and alpha = L^-7.  Hypotheses per
    configuration: g in alpha-grid(x), g outside cone(x), reflex q in
    cone(g) but outside cone(x) with dist(x, q) > L^-1, q strictly beyond
    exactly one bounding ray of cone(x).  Conclusion: the line through g
    and q crosses seg(r1, r2) within L^-2 of the reflex vertex on q's side.
    The ``extra_points`` are checked before the samples.
    """
    rep = LemmaReport(lemma_id="limited_blocking")
    L = m.L
    alpha = Fraction(1, L ** 7)
    spec = GridSpec(E=3, L=L)
    pairs = opposite_reflex_pairs(m)
    refl = reflex_vertices(m)
    inv_l_sq = Fraction(1, L) ** 2
    L4 = L ** 4
    rng = random.Random(seed)
    xs = list(extra_points) + list(
        islice(_interior_points(triangulate(m), rng), samples))
    for x in xs:
        if not point_in_polygon(m, x):
            rep.skipped += 1
            continue
        sg = None  # built on first use, once per x
        for pair in pairs:
            r1 = m.vertices[pair.r1]
            r2 = m.vertices[pair.r2]
            # cone(x) is degenerate when x is on the line of r1 and r2
            turn = orient(x, r1, r2)
            if turn == 0:
                rep.skipped += 1
                continue
            xu, xv = (r1, r2) if turn > 0 else (r2, r1)
            if sg is None:
                sg = surrounding_grid(spec, m, x, alpha)
            for g in sg.points:
                # cone(g) is degenerate when g is on the line of r1 and r2
                if (_in_cone(x, xu, xv, g)
                        or (turn := orient(g, r1, r2)) == 0):
                    rep.skipped += 1
                    continue
                gu, gv = (r1, r2) if turn > 0 else (r2, r1)
                for qi in refl:
                    q = m.vertices[qi]
                    if (_in_cone(x, xu, xv, q)
                            or not _in_cone(g, gu, gv, q)
                            or dist_sq(x, q) <= inv_l_sq):
                        rep.skipped += 1
                        continue
                    side = _cone_side(m, x, pair, q)
                    if side is None:
                        rep.skipped += 1
                        continue
                    meet = _meet_on_segment(g, q, r1, r2)
                    if meet is None:
                        rep.skipped += 1
                        continue
                    X, Y, W = meet
                    dx, dy = X - m.xs[side] * W, Y - m.ys[side] * W
                    if L4 * (dx * dx + dy * dy) <= W * W:
                        rep.instances_checked += 1
                        continue
                    p = Point(Fraction(X, W), Fraction(Y, W))
                    rep.check(False, f"blocking x={x} g={g} q=v{qi}",
                              f"p={p} dist_sq={dist_sq(p, m.vertices[side])}")
    return rep


def _meet_on_segment(g: Point, q: Point, a: Point, b: Point
                     ) -> Optional[Tuple[int, int, int]]:
    """Where the line through g and q meets the closed segment from a to b,
    as a homogeneous (X, Y, W) with W > 0; None when it misses the segment,
    when g = q, or when the two lines are parallel or identical.

    In the frame that clears the four points' denominators, each line is
    the cross product of its two points' homogeneous coordinates, and the
    meet is the cross product of the two lines.
    """
    d, (gx, gy, qx, qy, ax, ay, bx, by) = cleared(
        g.x, g.y, q.x, q.y, a.x, a.y, b.x, b.y)
    l1 = (gy - qy, qx - gx, gx * qy - gy * qx)
    l2 = (ay - by, bx - ax, ax * by - ay * bx)
    X = l1[1] * l2[2] - l1[2] * l2[1]
    Y = l1[2] * l2[0] - l1[0] * l2[2]
    W = l1[0] * l2[1] - l1[1] * l2[0]
    if W < 0:
        X, Y, W = -X, -Y, -W
    if (W == 0 or not min(ax, bx) * W <= X <= max(ax, bx) * W
            or not min(ay, by) * W <= Y <= max(ay, by) * W):
        return None
    return X, Y, W * d


def _rays_intersect(o1: Point, p1: Point, o2: Point, p2: Point) -> bool:
    """Whether the closed rays from o_i through p_i meet, decided on the
    four points' cleared integers."""
    _, (ox, oy, ex, ey, qx, qy, fx, fy) = cleared(
        o1.x, o1.y, p1.x, p1.y, o2.x, o2.y, p2.x, p2.y)
    ux, uy, vx, vy = ex - ox, ey - oy, fx - qx, fy - qy
    wx, wy = qx - ox, qy - oy
    denom = ux * vy - uy * vx
    if denom == 0:
        if ux * wy - uy * wx != 0:
            return False
        # collinear rays: same direction always overlap, opposite
        # directions overlap iff the origins face each other
        if ux * vx + uy * vy > 0:
            return True
        return ux * wx + uy * wy >= 0
    # t = (w x v) / denom and u = (w x u) / denom must both be >= 0
    return ((wx * vy - wy * vx) * denom >= 0
            and (wx * uy - wy * ux) * denom >= 0)


def check_cone_property(m: PolygonModel, samples: int = 100,
                        seed: int = 0) -> LemmaReport:
    """Nearby points outside the embiggened bad region get diverging rays.

    For the slope s = 1/4 and sampled g1, g2 with dist(g1, g2) <= s/4,
    both inside P and outside the embiggened s-bad region of a pair, the
    rays from g1 through p1 and from g2 through p2 (the shifted apex points
    on the diagonal) must not intersect; labels are arranged so g1 is
    closer to r1.  Coincident points trivially satisfy the property.
    """
    rep = LemmaReport(lemma_id="cone_property")
    s = Fraction(1, 4)
    pairs = opposite_reflex_pairs(m)
    tris = triangulate(m)
    rng = random.Random(seed)
    points = _interior_points(tris, rng)
    step = s / 4 / 32
    for pair in pairs:
        region = bad_region(m, pair, s, embiggened=True)
        rx, ry = m.xs[pair.r1], m.ys[pair.r1]
        ux, uy = m.xs[pair.r2] - rx, m.ys[pair.r2] - ry  # r1 -> r2
        dd = ux * ux + uy * uy
        p1, p2 = region.apex_offsets
        for _ in range(samples):
            g1 = next(points)
            # offset with |dx| + |dy| <= s/4 bounds the Euclidean distance
            num = rng.randint(-16, 16)
            den = rng.randint(-16, 16)
            g2 = g1 + Point(num * step, den * step)
            # g1 lies in P; in_bad_region refuses a g2 outside it
            try:
                bad = in_bad_region(region, g1) or in_bad_region(region, g2)
            except PointOutsidePolygon:
                bad = True
            if bad:
                rep.skipped += 1
                continue
            # facing condition: both points must project strictly between
            # the reflex vertices along the diagonal, i.e. actually look at
            # the pinhole rather than past one of its apexes (times d)
            d, (x1, y1, x2, y2) = cleared(g1.x, g1.y, g2.x, g2.y)
            proj1 = ux * (x1 - rx * d) + uy * (y1 - ry * d)
            proj2 = ux * (x2 - rx * d) + uy * (y2 - ry * d)
            if not (0 < proj1 < dd * d and 0 < proj2 < dd * d):
                rep.skipped += 1
                continue
            if g1 == g2:
                rep.check(True, f"cone g1=g2={g1}", "coincident")
                continue
            # label so g1 lies on the r1 side: smaller projection onto the
            # diagonal direction r1 -> r2 aims at the apex point near r1
            a1, a2 = (g2, g1) if proj1 > proj2 else (g1, g2)
            if a1 == p1 or a2 == p2:
                rep.skipped += 1
                continue
            ok = not _rays_intersect(a1, p1, a2, p2)
            rep.check(ok, f"cone g1={a1} g2={a2}", f"p1={p1} p2={p2}")
    return rep


def check_local_visibility(m: PolygonModel, x: Point, alpha: Scalar,
                           grid_exponent: Optional[int] = None) -> LemmaReport:
    """Exact face-level check of Vis(x) against the grid neighborhood.

    Builds the arrangement of the polygon edges with the window chords of
    Vis(x) and of every Vis(g) for g in the starred grid neighborhood of x;
    each open face lies inside or outside each of them, so containment
    holds iff no face representative lies in Vis(x) but in no Vis(g).
    """
    alpha = Fraction(alpha)
    if grid_exponent is None:
        grid_exponent = _grid_exponent(m.L, alpha)
    rep = LemmaReport(lemma_id="local_visibility")
    spec = GridSpec(E=grid_exponent, L=m.L)
    sg = surrounding_grid(spec, m, x, alpha)
    guards = list(sg.all_points())
    vx, *polygons = [visibility_polygon(m, v) for v in [x] + guards]
    arr = build_arrangement(*overlay_segments(m, [vx] + polygons))
    for X, Y, W in arr.reps:
        if vx.holds(X, Y, W * arr.s):
            ok = any(vp.holds(X, Y, W * arr.s) for vp in polygons)
            w = "" if ok else _point((X, Y, W), arr.s)
            rep.check(ok, f"face witness {w}", f"guards={guards}")
    return rep


@dataclass(frozen=True)
class CounterexampleFixture:
    """Pinhole polygon with approach points defeating any fixed finite grid.

    The approach points a_i sit below the supporting line of the pinhole at
    geometrically shrinking distance; each sees a wall interval above the
    target t, the intervals are pairwise disjoint, and no a_i sees t.
    """

    polygon: PolygonModel
    pinhole_target: Point
    approach_points: Tuple[Point, ...]
    wall_intervals: Tuple[Tuple[Point, Point], ...]


def build_counterexample(i_max: int) -> CounterexampleFixture:
    """Construct the pinhole fixture with i_max approach points.

    Approach point a_i = (17, 6 - 2^-i / L) sees the left wall only through
    the slit between the apexes (11, 6) and (13, 6); its wall interval is
    (6 + 5 d/3, 6 + 3 d) for d = 2^-i / L, exactly computed here from the
    visibility routine rather than the closed form.
    """
    if i_max < 1:
        raise ValueError("need at least one approach point")
    m = counterexample_polygon()
    L = m.L
    t = pt(1, 6)
    approach: List[Point] = []
    intervals: List[Tuple[Point, Point]] = []
    wall_a, wall_b = pt(1, 1), pt(1, 11)
    for i in range(1, i_max + 1):
        d = Fraction(1, 2 ** i * L)
        a = Point(Fraction(17), 6 - d)
        if sees(m, a, t):
            raise AssertionError(f"approach point {a} must not see {t}")
        segs = visible_subsegments(m, a, wall_a, wall_b)
        above = [sg for sg in segs if sg.a.y > 6 and sg.b.y > 6]
        if len(above) != 1:
            raise AssertionError(
                f"expected one wall interval above the slit, got {above}")
        sg = above[0]
        lo, hi = sorted((sg.a, sg.b), key=lambda p: p.y)
        approach.append(a)
        intervals.append((lo, hi))
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            lo_i, hi_i = intervals[i]
            lo_j, hi_j = intervals[j]
            if not (hi_i.y < lo_j.y or hi_j.y < lo_i.y):
                raise AssertionError(
                    f"wall intervals {i + 1} and {j + 1} overlap")
    return CounterexampleFixture(
        polygon=m, pinhole_target=t, approach_points=tuple(approach),
        wall_intervals=tuple(intervals))


def check_grid_outside_bad(m: PolygonModel, samples: int = 100,
                           seed: int = 0) -> LemmaReport:
    """Grid neighborhoods of points outside a bad region stay outside it.

    The slope is s = L^-3 and alpha = s / (16 L), on the coarsest grid
    whose width is at most alpha.  Hypotheses per sample: x outside the s-bad region
    of a pair, x sees both reflex vertices from distance >= L^-1.
    Conclusion: every point of alpha-grid(x) avoids the embiggened
    (s/2)-bad region.
    """
    rep = LemmaReport(lemma_id="grid_outside_bad")
    L = m.L
    s = Fraction(1, L ** 3)
    alpha = s / (16 * L)
    spec = GridSpec(E=_grid_exponent(L, alpha), L=L)
    pairs = opposite_reflex_pairs(m)
    L2 = L * L
    rng = random.Random(seed)
    regions = [(pair, bad_region(m, pair, s),
                bad_region(m, pair, s / 2, embiggened=True))
               for pair in pairs]
    for x in islice(_interior_points(triangulate(m), rng), samples):
        sg = None  # built on first use, once per x
        d, (X, Y) = cleared(x.x, x.y)  # dist(x, v) < L^-1, times d
        near = [L2 * ((vx * d - X) ** 2 + (vy * d - Y) ** 2) < d * d
                for vx, vy in zip(m.xs, m.ys)]
        for pair, region, half in regions:
            r1 = m.vertices[pair.r1]
            r2 = m.vertices[pair.r2]
            if (in_bad_region(region, x) or near[pair.r1] or near[pair.r2]
                    or not sees(m, x, r1) or not sees(m, x, r2)):
                rep.skipped += 1
                continue
            if sg is None:
                sg = surrounding_grid(spec, m, x, alpha)
            for g in sg.points:
                rep.check(not in_bad_region(half, g),
                          f"outside_bad x={x} g={g}",
                          f"pair=({pair.r1},{pair.r2})")
    return rep
