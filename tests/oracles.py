"""Independent test oracles.

Everything here is deliberately written against the raw vertex lists with
its own predicates (winding-number containment, per-edge clip visibility)
so that library results are checked by a second, structurally different
computation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, combinations, product
from math import comb, floor, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from gridguards.arrangement import _point, build_arrangement
from gridguards.badregions import bad_region
from gridguards.geometry import (
    GeometryError,
    Point,
    Segment,
    cleared,
    dist_sq,
    pt,
)
from gridguards.grid import (
    CASE_BOUNDARY,
    CASE_CORNER,
    CASE_INTERIOR,
    CoverageResult,
    Covered,
    NoGridPointNearby,
    PROV_SOLVER_GREEDY,
    SurroundingGrid,
    Uncovered,
    guard_set,
    verify_coverage,
)
from gridguards.polygon import (
    PointOutsidePolygon,
    _in_int_cycle,
    line_meets,
    opposite_reflex_pairs,
    point_in_polygon,
    segment_in_polygon,
    triangulate,
)
from gridguards.solver import SolveResult, _greedy
from gridguards.visibility import (
    overlay_segments,
    sees,
    visibility_polygon,
    visible_subsegments,
)

# the tag of the exact search's guards
PROV_SOLVER_EXACT = "SolverExact"


def cross(u: Point, v: Point) -> Fraction:
    return u.x * v.y - u.y * v.x


def dot(u: Point, v: Point) -> Fraction:
    return u.x * v.x + u.y * v.y


def on_segment(p: Point, a: Point, b: Point) -> bool:
    if cross(b - a, p - a) != 0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and (
        min(a.y, b.y) <= p.y <= max(a.y, b.y))


def winding_inside(verts, p: Point) -> bool:
    """Closed containment via winding number (boundary counts as inside)."""
    n = len(verts)
    for i in range(n):
        if on_segment(p, verts[i], verts[(i + 1) % n]):
            return True
    winding = 0
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if a.y <= p.y:
            if b.y > p.y and cross(b - a, p - a) > 0:
                winding += 1
        elif b.y <= p.y and cross(b - a, p - a) < 0:
            winding -= 1
    return winding != 0


def point_in_cycle(verts, p: Point) -> bool:
    """Closed membership of p in the simple polygon with these vertices, in
    Fractions: even-odd ray casting with the half-open vertex rule, the
    rule of ``polygon._in_int_cycle`` and so of the visibility-polygon
    membership test."""
    verts = list(verts)
    inside = False
    for a, b in zip(verts[-1:] + verts[:-1], verts):
        if on_segment(p, a, b):
            return True
        if (a.y > p.y) != (b.y > p.y) and (cross(a - p, b - a) > 0) == (
                b.y > a.y):
            inside = not inside
    return inside


def naive_sees(verts, x: Point, y: Point) -> bool:
    """Segment visibility by exhaustive breakpoint-midpoint containment."""
    if x == y:
        return winding_inside(verts, x)
    d = y - x
    params = [Fraction(0), Fraction(1)]
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = b - a
        denom = cross(d, e)
        if denom != 0:
            t = cross(a - x, e) / denom
            u = cross(a - x, d) / denom
            if 0 <= t <= 1 and 0 <= u <= 1:
                params.append(t)
        else:
            # parallel: project collinear endpoints onto the segment
            if cross(e, a - x) == 0:
                dd = dot(d, d)
                for q in (a, b):
                    t = dot(q - x, d) / dd
                    if 0 <= t <= 1:
                        params.append(t)
    params = sorted(set(params))
    for t0, t1 in zip(params, params[1:]):
        mid = x + d.scaled((t0 + t1) / 2)
        if not winding_inside(verts, mid):
            return False
    return True


def visibility_area_oracle(verts, x: Point) -> Fraction:
    """Exact area of the region of the polygon visible from x.

    The visible region is star-shaped around x and its boundary lies on
    polygon edges or on chords subtended from x, so it is the disjoint fan
    of triangles over the visible sub-pieces of the polygon edges.  Each
    edge is cut at every projection of a vertex from x and each sub-piece
    is classified by one midpoint visibility test.
    """
    n = len(verts)
    area = Fraction(0)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        e = b - a
        cuts = [Fraction(0), Fraction(1)]
        for w in verts:
            dw = w - x
            denom = cross(dw, e)
            if denom == 0:
                continue
            t = cross(a - x, e) / denom
            if t <= 0:
                continue  # w is behind x relative to this edge direction
            u = cross(a - x, dw) / denom
            if 0 < u < 1:
                cuts.append(u)
        cuts = sorted(set(cuts))
        for u0, u1 in zip(cuts, cuts[1:]):
            mid = a + e.scaled((u0 + u1) / 2)
            if not naive_sees(verts, x, mid):
                continue
            p0 = a + e.scaled(u0)
            p1 = a + e.scaled(u1)
            area += abs(cross(p0 - x, p1 - x)) / 2
    return area


# Fraction-arithmetic references for the integer kernel of
# gridguards.geometry: the same formulas computed directly on the Fraction
# coordinates, with no denominator clearing.


def orient_ref(p: Point, q: Point, r: Point) -> int:
    c = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (c > 0) - (c < 0)


def ray_segment_params_ref(apex: Point, d: Point, a: Point, b: Point) -> list:
    ex, ey = b.x - a.x, b.y - a.y
    fx, fy = a.x - apex.x, a.y - apex.y
    denom = d.x * ey - d.y * ex
    if denom == 0:
        if d.x * fy - d.y * fx != 0:
            return []
        dd = d.x * d.x + d.y * d.y
        ts = [(fx * d.x + fy * d.y) / dd,
              ((b.x - apex.x) * d.x + (b.y - apex.y) * d.y) / dd]
        return sorted(t for t in ts if t >= 0)
    t = (fx * ey - fy * ex) / denom
    u = (fx * d.y - fy * d.x) / denom
    return [t] if t >= 0 and 0 <= u <= 1 else []


def segments_intersect_ref(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the closed segments ab and cd share a point: they cross
    properly, or an end of one lies on the other."""
    o1, o2 = orient_ref(a, b, c), orient_ref(a, b, d)
    o3, o4 = orient_ref(c, d, a), orient_ref(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (on_segment(c, a, b) or on_segment(d, a, b)
            or on_segment(a, c, d) or on_segment(b, c, d))


def segment_intersection_ref(a: Point, b: Point, c: Point, d: Point):
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = d.x - c.x, d.y - c.y
    denom = ux * vy - uy * vx
    if denom == 0:
        return None
    fx, fy = c.x - a.x, c.y - a.y
    t = (fx * vy - fy * vx) / denom
    u = (fx * uy - fy * ux) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return (a.x + ux * t, a.y + uy * t)
    return None


def segment_inside_ref(m, a: Point, b: Point) -> bool:
    """``polygon._segment_inside`` on Fraction points, for endpoints in P:
    every edge's hit parameters from ``ray_segment_params_ref``, and each
    gap's midpoint built as a Point and tested by ``point_in_polygon``."""
    if a == b:
        return True
    d = b - a
    ts = {Fraction(0), Fraction(1)}
    for c, e in m.edges():
        for t in ray_segment_params_ref(a, d, c, e):
            if 0 <= t <= 1:
                ts.add(t)
    ordered = sorted(ts)
    for t0, t1 in zip(ordered, ordered[1:]):
        mid = a + d.scaled((t0 + t1) / 2)
        if not point_in_polygon(m, mid):
            return False
    return True


# Fraction references for the integer structure queries of
# gridguards.polygon and the cone test of gridguards.lemmas, on Points and
# orient_ref.


def triangulate_ref(verts):
    """Ear clipping on the counterclockwise Points: each pass clips the
    first convex corner whose closed triangle holds no other vertex."""
    verts = list(verts)
    tris = []
    while len(verts) > 3:
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if orient_ref(a, b, c) > 0 and not any(
                    orient_ref(a, b, q) >= 0 and orient_ref(b, c, q) >= 0
                    and orient_ref(c, a, q) >= 0
                    for q in verts if q not in (a, b, c)):
                tris.append((a, b, c))
                del verts[i]
                break
        else:
            raise AssertionError("no ear found")
    tris.append(tuple(verts))
    return tris


def extension_pairs_ref(verts):
    """The first vertex pair (i, j) of every distinct line through two
    vertices, in pair order: the pair whose line holds no vertex before j
    other than i."""
    n = len(verts)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if not any(orient_ref(verts[i], verts[j], verts[k]) == 0
                       for k in range(j) if k != i)]


def general_position_ref(verts):
    """``polygon.check_general_position`` on Points: the collinear vertex
    triples, and each point where three or more extension lines meet that
    is no vertex and lies in the closed polygon (winding number), with the
    indices of the lines through it.  Every pair of lines is intersected
    by Cramer's rule on Fractions."""
    n = len(verts)
    collinear = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                 for k in range(j + 1, n)
                 if orient_ref(verts[i], verts[j], verts[k]) == 0]
    lines = [(verts[i], verts[j]) for i, j in extension_pairs_ref(verts)]
    meets = {}
    for i, (a, b) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            c, d = lines[j]
            den = cross(b - a, d - c)
            if den != 0:
                p = a + (b - a).scaled(cross(c - a, d - c) / den)
                meets.setdefault(p, set()).update((i, j))
    concurrent = [(p, tuple(sorted(idxs))) for p, idxs in meets.items()
                  if len(idxs) >= 3 and p not in verts
                  and winding_inside(verts, p)]
    return collinear, concurrent


def in_cone_ref(x: Point, u: Point, v: Point, q: Point) -> bool:
    """Whether q lies in the closed convex cone with apex x bounded by the
    rays through u and v, in either order and not collinear with x: the
    directions are put in counterclockwise order, and q - x must turn
    left from the first, or not at all, and right to the second."""
    d1, d2 = u - x, v - x
    if orient_ref(x, u, v) < 0:
        d1, d2 = d2, d1
    w = q - x
    return cross(d1, w) >= 0 and cross(w, d2) >= 0


def visible_subsegments_ref(m, g: Point, u: Point, v: Point):
    """``visibility.visible_subsegments`` by a breakpoint sweep along any
    segment uv: cut uv wherever the swept segment from g passes a vertex or
    uv meets an edge, and keep the maximal runs of gaps whose midpoint lies
    in P and is seen from g."""
    if not point_in_polygon(m, g):
        raise PointOutsidePolygon(f"{g} outside polygon")
    if u == v:
        return []
    d = v - u
    ts = {Fraction(0), Fraction(1)}
    for w in m.vertices:
        if w == g:
            continue
        dd = w - g
        denom = cross(dd, d)
        if denom == 0:
            continue
        t = -cross(dd, u - g) / denom
        if 0 < t < 1:
            ts.add(t)
    for a, b in m.edges():
        for t in ray_segment_params_ref(u, d, a, b):
            if 0 <= t <= 1:
                ts.add(t)
    ordered = sorted(ts)
    out, start = [], None
    for t0, t1 in zip(ordered, ordered[1:]):
        probe = u + d.scaled((t0 + t1) / 2)
        if point_in_polygon(m, probe) and segment_in_polygon(m, g, probe):
            start = t0 if start is None else start
        elif start is not None:
            out.append(Segment(u + d.scaled(start), u + d.scaled(t0)))
            start = None
    if start is not None:
        out.append(Segment(u + d.scaled(start), v))
    return out


def verify_coverage_ref(m, g):
    """``grid.verify_coverage``'s verdict by ``sees``: each face witness of
    the guards' overlay asks the guards in their given order whether one
    sees it, where the certifier tests membership in their polygons."""
    if not g.guards:
        return Uncovered(witness=m.vertices[0])
    arr = build_arrangement(
        *overlay_segments(m, [visibility_polygon(m, x) for x in g.guards]))
    for wpt in representatives(arr):
        if not any(sees(m, x, wpt) for x in g.guards):
            return Uncovered(witness=wpt)
    return Covered()


def in_visibility_polygon(vp, points) -> int:
    """The bitmask of the points in the closed visibility polygon, boundary
    included: bit i is set iff ``vp.holds`` admits ``points[i]``."""
    mask = 0
    for i, p in enumerate(points):
        d, (px, py) = cleared(p.x, p.y)
        mask |= vp.holds(px, py, d) << i
    return mask


def masks_ref(m, candidates, witnesses):
    """Per candidate, the bitmask of the witnesses in its closed visibility
    polygon, by one membership test per candidate and witness against its
    boundary Points: what ``VisibilityPolygon.holds`` decides on the
    polygon's triples.

    Each boundary is cleared to integers once, and scaled once more for
    each distinct witness denominator, so that every test is an integer
    even-odd test of one witness against the whole boundary."""
    ws = [cleared(w.x, w.y) for w in witnesses]
    masks = []
    for c in candidates:
        b = boundary(visibility_polygon(m, c))
        d, cs = cleared(*[v for p in b for v in (p.x, p.y)])
        frames = {}   # witness denominator e -> (D / e, boundary over D)
        mask = 0
        for i, (e, (wx, wy)) in enumerate(ws):
            if e not in frames:
                D = lcm(d, e)
                frames[e] = (D // e, [x * (D // d) for x in cs[0::2]],
                             [y * (D // d) for y in cs[1::2]])
            k, xs, ys = frames[e]
            if _in_int_cycle(xs, ys, wx * k, wy * k, 1):
                mask |= 1 << i
        masks.append(mask)
    return tuple(masks)


# The full-face set-cover instance: one witness per face of the overlay of
# every candidate's window chords, which ``solver.eh_solve`` grows lazily
# instead, with the plain greedy cover and the exact optimum over it.

class CombinatoricsBudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class CoverInstance:
    """Finite set cover: candidates sorted by key, one witness per overlay
    face, and per candidate the bitmask of the witnesses it covers."""

    candidates: Tuple[Point, ...]
    witnesses: Tuple[Point, ...]
    masks: Tuple[int, ...]

    @property
    def full(self) -> int:
        """The mask of all witnesses."""
        return (1 << len(self.witnesses)) - 1


def full_instance(m, candidates) -> CoverInstance:
    """The witnesses of every face of the candidates' visibility overlay,
    with the masks of ``masks_ref``.  A candidate covers a face exactly
    when the face lies in its visibility polygon, so a set of candidates
    that covers these witnesses covers P."""
    cands = tuple(sorted(set(candidates), key=Point.key))
    arr = build_arrangement(
        *overlay_segments(m, [visibility_polygon(m, c) for c in cands]))
    witnesses = tuple(representatives(arr))
    return CoverInstance(cands, witnesses, masks_ref(m, cands, witnesses))


def greedy_cover(m, inst: CoverInstance
                 ) -> Tuple[SolveResult, CoverageResult]:
    """Classic greedy set cover; ties broken by lexicographic point order.
    Returns the cover with ``verify_coverage``'s verdict on it.  Raises
    InfeasibleWitness if some witness has no seer."""
    chosen = _greedy(inst.masks, inst.full)
    gs = guard_set([inst.candidates[i] for i in chosen], PROV_SOLVER_GREEDY)
    return (SolveResult(guards=gs, witness_count=len(inst.witnesses),
                        rounds=len(chosen)),
            verify_coverage(m, gs))


def brute_force_optimum(inst: CoverInstance, k_max: int):
    """Smallest covering subset of the candidates as a GuardSet, or None
    if every cover has more than k_max guards."""
    n = len(inst.candidates)
    total = sum(comb(n, k) for k in range(1, k_max + 1))
    if total > 10 ** 7:
        raise CombinatoricsBudgetExceeded(
            f"{total} subsets exceed the 1e7 budget")
    for k in range(1, k_max + 1):
        for combo in combinations(range(n), k):
            acc = 0
            for i in combo:
                acc |= inst.masks[i]
            if acc == inst.full:
                return guard_set([inst.candidates[i] for i in combo],
                                 PROV_SOLVER_EXACT)
    return None


def sort_directions_ccw_ref(dirs):
    """Integer directions sorted counterclockwise from (1, 0) by an exact
    comparator: the half-plane first, then the sign of the cross product."""
    def half(v):
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        c = u[0] * v[1] - u[1] * v[0]
        return (c < 0) - (c > 0)  # positive cross => u before v

    return sorted(set(dirs), key=cmp_to_key(cmp))


# Brute-force reference for gridguards.arrangement: every pairwise
# crossing becomes a node, every segment is split at every node on it, and
# faces are walked by an exact pseudo-angle instead of sorted fans.


def _pseudo_angle(v: Point) -> Fraction:
    """A value in [0, 4) that increases with the counterclockwise angle of
    v from (1, 0): the position along the unit diamond |x| + |y| = 1."""
    r = abs(v.x) + abs(v.y)
    if v.y >= 0 and v.x > 0:
        return v.y / r
    if v.y > 0:
        return 1 + -v.x / r
    if v.x < 0:
        return 2 + -v.y / r
    return 3 + v.x / r


def boundary(vp):
    """The visibility polygon's boundary Points, counterclockwise."""
    return tuple(Point(Fraction(vp.X * hw + hx, vp.w * hw),
                       Fraction(vp.Y * hw + hy, vp.w * hw))
                 for hx, hy, hw in vp.triples)


def integer_segments(segments):
    """Point segments as ``build_arrangement`` takes them: (segments, s),
    every endpoint an integer pair over the one denominator s."""
    s, cs = cleared(*[c for ab in segments for p in ab for c in (p.x, p.y)])
    ends = iter(zip(cs[0::2], cs[1::2]))
    return list(zip(ends, ends)), s


def representatives(arr):
    """The arrangement's face representatives as Points."""
    return [_point(t, arr.s) for t in arr.reps]


def arrangement_ref(segments):
    """(nodes, edges, face_cycles) of the segments' planar subdivision.

    Nodes sorted by key; edges as sorted key pairs, sorted; bounded faces as
    counterclockwise vertex lists, walked from each unvisited half-edge in
    sorted order with the face on the left.
    """
    segs = [(a, b) for a, b in segments if a != b]
    nodes = {p for s in segs for p in s}
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            q = segment_intersection_ref(*segs[i], *segs[j])
            if q is not None:
                nodes.add(pt(*q))
    edges = set()
    for a, b in segs:
        on = sorted((p for p in nodes if on_segment(p, a, b)),
                    key=lambda p: dot(p - a, b - a))
        edges.update(tuple(sorted((u.key(), v.key())))
                     for u, v in zip(on, on[1:]))
    edges = sorted(edges)
    point = {p.key(): p for p in nodes}
    adj = {k: [] for k in point}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def turn(u, v):
        # the neighbour w of v first clockwise from the direction v -> u
        back = _pseudo_angle(point[u] - point[v])

        def cw(w):
            a = (back - _pseudo_angle(point[w] - point[v])) % 4
            return a if a > 0 else 4
        return (v, min(adj[v], key=cw))

    cycles, seen = [], set()
    for start in sorted(edges + [(v, u) for u, v in edges]):
        if start in seen:
            continue
        h, walk = start, []
        while h not in seen:
            seen.add(h)
            walk.append(point[h[0]])
            h = turn(*h)
        area2 = sum(cross(p, q) for p, q in zip(walk, walk[1:] + walk[:1]))
        if area2 > 0:
            cycles.append(walk)
    return sorted(nodes, key=Point.key), edges, cycles


# Fraction reference for gridguards.visibility.visibility_polygon: the same
# wedge sweep with every hit built as a Point, and the window rule applied
# to the finished boundary by scanning the polygon's edges.


def _primitive(v: Point):
    """The primitive integer vector with the direction of v."""
    den = v.x.denominator * v.y.denominator
    nx, ny = int(v.x * den), int(v.y * den)
    g = gcd(nx, ny)
    return (nx // g, ny // g)


def _first_exit_ref(verts, x: Point, d: Point):
    """Index of the edge (from vertex i - 1 to vertex i) through which the
    ray from x in direction d leaves the polygon, or None when it leaves at
    x.  The ray passes through no vertex."""
    best, edge, tie, at_x = None, None, False, False
    for i in range(len(verts)):
        a, b = verts[i - 1], verts[i]
        e = b - a
        den = cross(d, e)
        if den == 0:
            at_x = at_x or on_segment(x, a, b)
            continue
        s = cross(a - x, e) / den
        u = cross(a - x, d) / den
        if s < 0 or not 0 <= u <= 1:
            continue
        if s == 0:
            at_x = True
        elif best is None or s < best:
            best, edge, tie = s, i, False
        elif s == best:
            tie = True
    if best is None:
        return None
    if at_x and not winding_inside(verts, x + d.scaled(best / 2)):
        return None
    assert not tie, "mid-ray hit a vertex"
    return edge


def visibility_polygon_ref(m, x: Point):
    """(boundary, window_edges) of the visibility polygon of x in m."""
    verts = list(m.vertices)
    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    dirs.update(_primitive(v - x) for v in verts if v != x)
    order = sorted(dirs, key=lambda d: _pseudo_angle(pt(*d)))
    pts = []
    for d1, d2 in zip(order, order[1:] + order[:1]):
        edge = _first_exit_ref(verts, x, pt(d1[0] + d2[0], d1[1] + d2[1]))
        if edge is None:
            hits = [x]
        else:
            a, e = verts[edge - 1], verts[edge] - verts[edge - 1]
            hits = [x + d.scaled(cross(a - x, e) / cross(d, e))
                    for d in (pt(*d1), pt(*d2))]
        for p in hits:
            if not pts or pts[-1] != p:
                pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    n = len(pts)
    boundary = tuple(pts[i] for i in range(n)
                     if orient_ref(pts[i - 1], pts[i], pts[(i + 1) % n]) != 0)

    def on_polygon_edge(p: Point, q: Point) -> bool:
        return any(on_segment(p, a, b) and on_segment(q, a, b)
                   for a, b in zip(verts, verts[1:] + verts[:1]))

    ends = zip(boundary, boundary[1:] + boundary[:1])
    windows = tuple(i for i, (p, q) in enumerate(ends)
                    if not on_polygon_edge(p, q))
    return boundary, windows


_RING_CAP = 64


def round_to_grid_ref(spec, m, x: Point) -> Point:
    """``grid.round_to_grid`` on Fraction points: every candidate grid point
    is built as a Point, tested by ``point_in_polygon`` and compared by its
    Fraction distance and key; a ring search stops once the best distance
    is at most the ring's own radius."""
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    w = spec.w
    iu, iv = floor(x.x / w), floor(x.y / w)
    best = None
    for ring in range(_RING_CAP):
        lo_i, hi_i = iu - ring, iu + 1 + ring
        lo_j, hi_j = iv - ring, iv + 1 + ring
        if ring == 0:
            cells = [(i, j) for i in (lo_i, hi_i) for j in (lo_j, hi_j)]
        else:
            cells = ([(i, lo_j) for i in range(lo_i, hi_i + 1)]
                     + [(i, hi_j) for i in range(lo_i, hi_i + 1)]
                     + [(lo_i, j) for j in range(lo_j + 1, hi_j)]
                     + [(hi_i, j) for j in range(lo_j + 1, hi_j)])
        for i, j in cells:
            g = Point(i * w, j * w)
            if not point_in_polygon(m, g):
                continue
            cand = (dist_sq(x, g), g.key(), g)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is not None and best[0] <= (ring * w) ** 2:
            return best[2]
    if best is not None:
        return best[2]
    raise NoGridPointNearby(f"no in-polygon grid point within "
                            f"{_RING_CAP} rings of {x}")


def surrounding_grid_ref(spec, m, x: Point, alpha) -> SurroundingGrid:
    """``grid.surrounding_grid`` on Fraction points: the same isoceles
    triangle, classified and cut against the polygon edges by the Fraction
    predicates, every defining point rounded by ``round_to_grid_ref``."""
    alpha = Fraction(alpha)
    if not (0 < alpha <= Fraction(1, m.L ** 2)):
        raise ValueError("alpha must be in (0, L^-2]")
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    tri = (x + pt(0, alpha),
           x + Point(-3 * alpha / 4, -alpha / 2),
           x + Point(3 * alpha / 4, -alpha / 2))
    tri_edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]

    def in_triangle(p: Point) -> bool:
        return all(orient_ref(a, b, p) >= 0 for a, b in tri_edges)

    enclosed = [v for v in m.vertices if in_triangle(v)]
    crossing = any(segments_intersect_ref(a, b, c, d)
                   for a, b in m.edges() for c, d in tri_edges)
    inside_edge_end = any(in_triangle(a) for a, _ in m.edges())
    if enclosed:
        case = CASE_CORNER
    elif crossing or inside_edge_end:
        case = CASE_BOUNDARY
    else:
        case = CASE_INTERIOR
    defining = [v for v in tri if point_in_polygon(m, v)]
    if case != CASE_INTERIOR:
        for a, b in m.edges():
            for c, d in tri_edges:
                p = segment_intersection_ref(a, b, c, d)
                if p is not None:
                    defining.append(pt(*p))
    points = []
    for p in defining:
        g = round_to_grid_ref(spec, m, p)
        if g not in points:
            points.append(g)
    if case == CASE_CORNER:
        points += [v for v in enclosed if v not in points]
    limit = Fraction(1, m.L) ** 2
    near = [(dist_sq(x, r), i) for i, r in enumerate(m.vertices)
            if dist_sq(x, r) <= limit]
    starred = m.vertices[min(near)[1]] if near else None
    return SurroundingGrid(center=x, case=case, points=tuple(points),
                           starred=starred)


# The rational line kernel that bad-region clipping and the blocking
# conclusion once used, now the reference for their integer half-planes
# and homogeneous meets.


@dataclass(frozen=True)
class DirectedLine:
    """Infinite line oriented from ``a`` to ``b``."""

    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise GeometryError("degenerate line: endpoints coincide")

    def direction(self) -> Point:
        return self.b - self.a

    def side_of(self, p: Point) -> int:
        """+1 if p is left of the oriented line, -1 right, 0 on the line."""
        return orient_ref(self.a, self.b, p)


PARALLEL = "Parallel"
IDENTICAL = "Identical"


def line_intersection(l1: DirectedLine, l2: DirectedLine):
    """Unique intersection point, or PARALLEL / IDENTICAL, by Cramer's
    rule on the 2x2 system of line equations."""
    d1 = l1.direction()
    d2 = l2.direction()
    denom = cross(d1, d2)
    if denom == 0:
        return IDENTICAL if l1.side_of(l2.a) == 0 else PARALLEL
    t = cross(l2.a - l1.a, d2) / denom
    return l1.a + d1.scaled(t)


def polygon_signed_area2(vertices) -> Fraction:
    """Twice the signed (shoelace) area; positive for counterclockwise."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return total


def polygon_area(vertices) -> Fraction:
    return abs(polygon_signed_area2(vertices)) / 2


def clip_convex_by_halfplane(poly, ell: DirectedLine, keep_side: int) -> list:
    """Sutherland-Hodgman clip of a convex polygon by one closed
    half-plane; ``keep_side`` is the side_of() sign to keep (points with
    side 0 are kept)."""
    out: list = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        s_cur = ell.side_of(cur)
        s_nxt = ell.side_of(nxt)
        if s_cur == keep_side or s_cur == 0:
            out.append(cur)
        if s_cur != 0 and s_nxt != 0 and s_cur != s_nxt:
            meet = line_intersection(DirectedLine(cur, nxt), ell)
            assert isinstance(meet, Point)
            out.append(meet)
    # drop consecutive duplicates
    dedup: list = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def convex_intersection(poly_a, poly_b) -> list:
    """Intersection of two convex CCW polygons (possibly empty /
    degenerate)."""
    result = list(poly_a)
    n = len(poly_b)
    for i in range(n):
        if len(result) < 3:
            return []
        ell = DirectedLine(poly_b[i], poly_b[(i + 1) % n])
        result = clip_convex_by_halfplane(result, ell, +1)
    return result if len(result) >= 3 else []


def _wedge_halfplanes_ref(w):
    """The wedge's two boundary lines, each with the side to keep."""
    d = w.outward
    up = Point(d.x - w.s * d.y, d.y + w.s * d.x)
    dn = Point(d.x + w.s * d.y, d.y - w.s * d.x)
    return [(DirectedLine(w.apex, w.apex + dn), +1),
            (DirectedLine(w.apex, w.apex + up), -1)]


def wedge_outline_ref(m, w) -> list:
    """``badregions.wedge_outline``: the polygon's bounding box clipped by
    the wedge's two closed half-planes, in Fractions."""
    x0, y0, x1, y1 = min(m.xs), min(m.ys), max(m.xs), max(m.ys)
    poly = [pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)]
    for ell, side in _wedge_halfplanes_ref(w):
        poly = clip_convex_by_halfplane(poly, ell, side)
        if len(poly) < 3:
            return []
    return poly


def triple_intersections_ref(m, s) -> list:
    """``badregions.check_no_triple_intersection``'s triples: a wedge of
    each of three regions, clipped to the bounding box, intersected with
    some triangle of P with positive area."""
    regions = [bad_region(m, p, s) for p in opposite_reflex_pairs(m)]
    tris = triangulate(m)

    def overlap(ws):
        poly = wedge_outline_ref(m, ws[0])
        for w in ws[1:]:
            if len(poly) < 3:
                return False
            for ell, side in _wedge_halfplanes_ref(w):
                poly = clip_convex_by_halfplane(poly, ell, side)
        if len(poly) < 3:
            return False
        return any(polygon_area(convex_intersection(poly, list(t))) > 0
                   for t in tris)

    return [(i, j, l)
            for i, j, l in combinations(range(len(regions)), 3)
            if any(overlap(ws) for ws in product(
                regions[i].wedges, regions[j].wedges, regions[l].wedges))]


def blocking_meet_ref(g: Point, q: Point, a: Point, b: Point):
    """Where the line through g and q meets the closed segment ab, in
    Fractions, or None: the last step of ``check_limited_blocking`` as the
    rational line kernel took it."""
    if g == q:
        return None
    p = line_intersection(DirectedLine(g, q), DirectedLine(a, b))
    if not isinstance(p, Point) or not on_segment(p, a, b):
        return None
    return p


def wedge_contains_ref(w, x: Point) -> bool:
    """Open membership of x in the wedge in Fractions, as the library
    once decided it: along > 0 and |cross| < s * along, measured from the
    apex along the outward direction."""
    v = x - w.apex
    along = dot(w.outward, v)
    if along <= 0:
        return False
    # |cross| / |d| < s * along / |d|  simplifies to  |cross| < s * along
    return abs(cross(w.outward, v)) < w.s * along


def in_bad_region_ref(region, x: Point) -> bool:
    """``badregions.in_bad_region`` in Fractions."""
    if not point_in_polygon(region.model, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    return any(wedge_contains_ref(w, x) for w in region.wedges)


def interior_points_ref(tris, rng):
    """``lemmas._interior_points`` in Fractions, as it once drew them: the
    triangle by area weight, then u and v in {1/100, ..., 97/100},
    reflected to (1 - u, 1 - v) when u + v >= 1."""
    areas = [abs(cross(b - a, c - a)) for a, b, c in tris]
    den = lcm(*[w.denominator for w in areas])
    prefix = list(accumulate(int(w * den) for w in areas))
    total = prefix[-1]
    while True:
        r = rng.randrange(total) if total > 1 else 0
        a, b, c = tris[bisect_right(prefix, r)]
        u = Fraction(rng.randint(1, 97), 100)
        v = Fraction(rng.randint(1, 97), 100)
        if u + v >= 1:
            u, v = 1 - u, 1 - v
        yield a + (b - a).scaled(u) + (c - a).scaled(v)


def rays_intersect_ref(o1: Point, d1: Point, o2: Point, d2: Point) -> bool:
    """Whether the closed rays o_i + t d_i, t >= 0, meet, in Fractions:
    the cone-property conclusion as ``lemmas._rays_intersect`` once
    decided it."""
    denom = cross(d1, d2)
    diff = o2 - o1
    if denom == 0:
        if cross(d1, diff) != 0:
            return False
        # collinear rays: same direction always overlap, opposite
        # directions overlap iff the origins face each other
        if dot(d1, d2) > 0:
            return True
        return dot(d1, diff) >= 0
    t = cross(diff, d2) / denom
    u = cross(diff, d1) / denom
    return t >= 0 and u >= 0


def separate_meets_ref(rep, lines, L: int) -> None:
    """Items 3 and 4 of ``lemmas.check_distance_lemma`` pair by pair, the
    only such implementation: every meeting point against every line not
    through it, and the points in touching cells against each other.
    Cells have width 1/min(1000, L^4), so points in cells that do not touch
    are more than L^-4 apart.  The library only counts the pairs, and
    refuses an L too small for its integrality bounds; this reference
    also runs at such an L and reports each close pair."""
    pts = list(line_meets(lines))
    L10 = L ** 10
    normed = [(a, b, c, a * a + b * b) for a, b, c in lines]
    for x, y, w in pts:
        w2 = w * w
        for a, b, c, nn in normed:
            r = a * x + b * y - c * w
            if r == 0:
                continue
            rep.instances_checked += 1
            if r * r * L10 < w2 * nn:
                rep.violations.append(
                    (f"item3 point({x},{y},{w}) line({a},{b},{c})", str(r)))
    L8 = L ** 8
    k = min(1000, L ** 4)
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for idx, (x, y, w) in enumerate(pts):
        buckets.setdefault((k * x // w, k * y // w), []).append(idx)
    pair_count = len(pts) * (len(pts) - 1) // 2
    near_checked = 0
    for (cx, cy), members in buckets.items():
        cand = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cand.extend(buckets.get((cx + dx, cy + dy), []))
        for i in members:
            x1, y1, w1 = pts[i]
            for j in cand:
                if j <= i:
                    continue
                x2, y2, w2 = pts[j]
                ex = x1 * w2 - x2 * w1
                ey = y1 * w2 - y2 * w1
                ok = (ex * ex + ey * ey) * L8 >= (w1 * w2) ** 2
                rep.check(ok, f"item4 points {i},{j}", f"({ex},{ey})")
                near_checked += 1
    rep.instances_checked += pair_count - near_checked


def missed_interval(fix, candidates: Sequence[Point]
                    ) -> Optional[Tuple[int, Point]]:
    """First approach point of the pinhole fixture ``fix`` whose wall
    interval the candidates fail to cover.

    Returns (1-based index, uncovered witness on the wall) or None.  Only
    candidates inside the polygon contribute coverage.
    """
    m = fix.polygon
    wall_a, wall_b = pt(1, 1), pt(1, 11)
    covered: List[Tuple[Fraction, Fraction]] = []
    for c in candidates:
        if not point_in_polygon(m, c):
            continue
        for sg in visible_subsegments(m, c, wall_a, wall_b):
            lo, hi = sorted((sg.a.y, sg.b.y))
            covered.append((lo, hi))
    covered.sort()
    for idx, (lo, hi) in enumerate(fix.wall_intervals, start=1):
        # walk the open interval (lo.y, hi.y) through the covered closed runs
        cursor = lo.y
        for clo, chi in covered:
            if chi <= cursor or clo > hi.y:
                continue
            if clo > cursor:
                break
            cursor = max(cursor, chi)
        if cursor < hi.y:
            witness = Point(Fraction(1), (cursor + hi.y) / 2)
            return idx, witness
    return None
