"""Exact planar arrangement of segments with one witness point per face.

The endpoints come as integers over one common denominator s, so the
construction runs on integers.  Identical segments, in either
orientation, are merged; the rest are split where they meet.  Only pairs
whose bounding boxes meet are compared, and a pair that is not parallel
but shares an endpoint is skipped, since it meets only there.  Split
points are reduced integer triples (X, Y, W), the point (X, Y) / (W s),
which key the nodes.  The nodes are numbered in the order of their
points' keys: the floats X / (W s) sort them, and a run whose floats
cannot tell them apart is sorted again on integers.  One sort of all
half-edges by tail and ``geometry.direction_key`` gives every node's
walls counterclockwise, exact again where two keys tie.  Faces are
traversed with the usual rotate-clockwise half-edge rule (faces lie to
the left of their half-edges).  A face is bounded by its own walk and by
whole other connected components (its holes), so a ray from a vertex of
the walk into the face stays inside it up to its first hit on those
edges; each bounded face's representative is the midpoint of that stretch.
The ray is shot on integers: the walk's triples and those of the other
components are brought over the lcm of their W.  No Point is built: the
representatives stay triples, and the nodes, the edges' key pairs and the
face cycles are built from the triples on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .geometry import (
    GeometryError,
    IntSegment,
    Point,
    Triple,
    direction_key,
    direction_tie_keys,
    sort_ties,
)

Key = Tuple[Fraction, Fraction]


@dataclass
class Arrangement:
    """The subdivision, kept on integers: node i is (X / (W s), Y / (W s))
    for ``triples[i]`` = (X, Y, W), as is ``reps[f]`` inside bounded face f,
    whose nodes ``cycles[f]`` lists.  ``nodes``, ``edges`` and
    ``face_cycles`` are built from them, as Points, on first read."""

    triples: List[Triple]               # in the order of the nodes' keys
    s: int
    edge_nodes: List[Tuple[int, int]]   # node ids (u, v), u < v, sorted
    cycles: List[List[int]]             # bounded faces, outer cycles, CCW
    reps: List[Triple]                  # one interior point per face

    @cached_property
    def nodes(self) -> List[Point]:
        return [_point(t, self.s) for t in self.triples]

    @cached_property
    def edges(self) -> List[Tuple[Key, Key]]:
        nodes = self.nodes
        return [(nodes[u].key(), nodes[v].key()) for u, v in self.edge_nodes]

    @cached_property
    def face_cycles(self) -> List[List[Point]]:
        nodes = self.nodes
        return [[nodes[u] for u in cycle] for cycle in self.cycles]


def _split_points(segs: List[Tuple[Tuple[int, int], Tuple[int, int]]]
                  ) -> List[List[Triple]]:
    """For each segment, every point where it meets a segment (itself too),
    as the triple (X, Y, W) of (X / W, Y / W) with W > 0 and gcd 1."""
    splits = [[a + (1,), b + (1,)] for a, b in segs]
    ends = [a + b for a, b in segs]
    at: Dict[Tuple[int, int], List[int]] = {}   # the segments at each end
    for k, (a, b) in enumerate(segs):
        at.setdefault(a, []).append(k)
        at.setdefault(b, []).append(k)
    boxes = [(min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
             for ax, ay, bx, by in ends]
    order = sorted(range(len(segs)), key=lambda i: boxes[i][0])
    for n, i in enumerate(order):
        x0, x1, y0, y1 = boxes[i]
        ax, ay, bx, by = ends[i]
        ux, uy = bx - ax, by - ay
        shared = {*at[(ax, ay)], *at[(bx, by)]}     # share an end with i
        for j in order[n + 1:]:
            jx0, jx1, jy0, jy1 = boxes[j]
            if jx0 > x1:
                break
            if jy0 > y1 or jy1 < y0:
                continue
            cx, cy, dx, dy = ends[j]
            vx, vy = dx - cx, dy - cy
            den = ux * vy - uy * vx
            if j in shared:
                if den:
                    continue  # not parallel: they meet only at that end
                un = 0
            else:
                fx, fy = cx - ax, cy - ay
                un = fx * uy - fy * ux
            if den == 0:
                if un == 0:  # collinear: each gets the other's ends on it
                    splits[i] += [(qx, qy, 1)
                                  for qx, qy in ((cx, cy), (dx, dy))
                                  if x0 <= qx <= x1 and y0 <= qy <= y1]
                    splits[j] += [(qx, qy, 1)
                                  for qx, qy in ((ax, ay), (bx, by))
                                  if jx0 <= qx <= jx1 and jy0 <= qy <= jy1]
                continue
            tn = fx * vy - fy * vx
            if den < 0:
                den, tn, un = -den, -tn, -un
            if 0 <= tn <= den and 0 <= un <= den:
                # a + (b - a) tn / den
                X, Y = ax * den + ux * tn, ay * den + uy * tn
                g = gcd(X, Y, den)
                p = (X // g, Y // g, den // g)
                splits[i].append(p)
                splits[j].append(p)
    return splits


def _first_hit(ox: int, oy: int, mx: int, my: int,
               segs: Iterable[Tuple[int, int, int, int]]
               ) -> Optional[Tuple[int, int]]:
    """The smallest t > 0 at which (ox, oy) + t (mx, my) meets one of the
    segments (ax, ay, bx, by), as (numerator, denominator), or None.

    A collinear segment is met at the projections of its ends.
    """
    best_n = best_d = 0          # best_d = 0 until a hit
    for ax, ay, bx, by in segs:
        fx, fy = ax - ox, ay - oy
        ex, ey = bx - ax, by - ay
        den = mx * ey - my * ex
        if den:
            tn, un = fx * ey - fy * ex, fx * my - fy * mx
            if den < 0:
                den, tn, un = -den, -tn, -un
            if (tn > 0 and 0 <= un <= den
                    and (not best_d or tn * best_d < best_n * den)):
                best_n, best_d = tn, den
        elif not mx * fy - my * fx:
            dd = mx * mx + my * my
            for n in (fx * mx + fy * my, (bx - ox) * mx + (by - oy) * my):
                if n > 0 and (not best_d or n * best_d < best_n * dd):
                    best_n, best_d = n, dd
    return (best_n, best_d) if best_d else None


def _node_order(tri: List[Triple], s: int) -> List[Triple]:
    """The triples sorted as their points' keys (x, then y) are.

    The floats X / (W s), which are at most the polygon's scale, sort
    them; a run of equal x floats is sorted again on integers, over the
    lcm of its W.
    """
    keyed = sorted([(X / (W * s), Y / (W * s), (X, Y, W)) for X, Y, W in tri])
    out = [t for _, _, t in keyed]
    sort_ties(out, [fx for fx, _, _ in keyed], _common_frame)
    return out


def _common_frame(run: List[Triple]) -> List[Tuple[int, int]]:
    q = lcm(*[W for _, _, W in run])
    return [(X * (q // W), Y * (q // W)) for X, Y, W in run]


def _primitive(d: Tuple[int, int]) -> Tuple[int, int]:
    dx, dy = d
    g = gcd(dx, dy)
    return dx // g, dy // g


def _axis_after(dx: int, dy: int) -> Tuple[int, int]:
    """The first axis direction strictly counterclockwise of (dx, dy)."""
    if dx > 0 and dy >= 0:
        return (0, 1)
    if dy > 0:
        return (-1, 0)
    if dx < 0:
        return (0, -1)
    return (1, 0)


def _point(t: Triple, s: int) -> Point:
    X, Y, W = t
    return Point(Fraction(X, W * s), Fraction(Y, W * s))


def build_arrangement(segments: Sequence[IntSegment], s: int) -> Arrangement:
    """Planar subdivision induced by the segments (assumed nonempty), each
    ((X, Y), (X', Y')) from (X, Y) / s to (X', Y') / s."""
    # triple (X, Y, W) is the point (X, Y) / (W s); each segment once
    segs = sorted({(min(p, q), max(p, q)) for p, q in segments if p != q})
    splits = _split_points(segs)
    # nodes are numbered in key order, so ids compare as keys do
    triples = _node_order(list({t for on in splits for t in on}), s)
    index = {t: i for i, t in enumerate(triples)}
    pieces = set()
    for on in splits:
        # the points of one segment lie along it in key order
        ids = sorted({index[t] for t in on})
        pieces.update(zip(ids, ids[1:]))
    edges = sorted(pieces)

    # half-edges in (tail, head) order, each with its direction; the
    # reverse of a direction has the other half and the same ratio key
    half_edges = sorted(edges + [(v, u) for u, v in edges])
    hid = {h: k for k, h in enumerate(half_edges)}
    dirs: List[Tuple[int, int]] = [(0, 0)] * len(half_edges)
    keyed = []
    for u, v in edges:
        X, Y, W = triples[u]
        X2, Y2, W2 = triples[v]
        dx, dy = X2 * W - X * W2, Y2 * W - Y * W2
        half, f = direction_key(dx, dy)
        k, kr = hid[(u, v)], hid[(v, u)]
        dirs[k], dirs[kr] = (dx, dy), (-dx, -dy)
        keyed += [(u, half, f, k), (v, 1 - half, f, kr)]
    # the half-edges out of each node counterclockwise: one sort by tail
    # and direction key, exact again where two keys of one tail tie
    keyed.sort()
    fan = [k for *_, k in keyed]
    sort_ties(fan, [key[:3] for key in keyed],
              lambda run: direction_tie_keys([dirs[k] for k in run]))
    # the tail's next half-edge counterclockwise, and clockwise
    ccw = [0] * len(fan)
    cw = [0] * len(fan)
    lo = 0
    for hi in range(1, len(fan) + 1):
        if hi == len(fan) or half_edges[hi][0] != half_edges[lo][0]:
            block = fan[lo:hi]
            for a, b in zip(block, block[1:] + block[:1]):
                ccw[a], cw[b] = b, a
            lo = hi
    # the face walk's next half-edge: rotate clockwise at the head node
    succ = [cw[hid[(v, u)]] for u, v in half_edges]

    # connected components, by union-find over the edges
    parent = list(range(len(triples)))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        parent[find(u)] = find(v)
    comp = [find(u) for u in parent]
    # by component: the edges of the other components, as node pairs, and
    # the lcm of their nodes' W
    others: Dict[int, Tuple[List[Tuple[int, int]], int]] = {}

    tx, ty, tw = ([t[c] for t in triples] for c in range(3))
    tail = [u for u, _ in half_edges]
    walked = [False] * len(half_edges)
    cycles: List[List[int]] = []
    reps: List[Triple] = []
    for start in range(len(half_edges)):
        if walked[start]:
            continue
        walk: List[int] = []
        h = start
        while not walked[h]:
            walked[h] = True
            walk.append(h)
            h = succ[h]
        if h != start:
            raise GeometryError(
                "face walk ran into an earlier cycle instead of closing")
        # the walk's nodes over their common denominator q, and twice the
        # signed area they enclose
        cycle = [tail[h] for h in walk]
        q = lcm(*[tw[u] for u in cycle])
        xs = [tx[u] * (q // tw[u]) for u in cycle]
        ys = [ty[u] * (q // tw[u]) for u in cycle]
        xs1, ys1 = xs[1:] + xs[:1], ys[1:] + ys[:1]
        if sum(map(mul, xs, ys1)) <= sum(map(mul, xs1, ys)):
            continue  # outer face or hole boundary
        cycles.append(cycle)
        # representative: from the lexicographically smallest cycle vertex
        # along the bisector of the first gap counterclockwise of its
        # out-wall: up to the next wall, or to an axis strictly between
        # the two; halfway to the ray's first hit
        m = min(walk)
        k = walk.index(m)
        d0 = _primitive(dirs[m])
        d1 = _primitive(dirs[ccw[m]])
        ax, ay = a = _axis_after(*d0)
        # (a wall at pi or more from d0, d0 itself included, is past it)
        if d0[0] * d1[1] - d0[1] * d1[0] <= 0 or ax * d1[1] - ay * d1[0] > 0:
            d1 = a
        mx, my = d0[0] + d1[0], d0[1] + d1[1]
        # the walk's edges and those of the other components over one
        # denominator Q, so node (x, y) is (x, y) / (Q s); the ray is shot
        # on integers
        r = comp[cycle[k]]
        if r not in others:
            ends = [(a, b) for a, b in edges if comp[a] != r]
            others[r] = (ends, lcm(*[tw[a] for e in ends for a in e]))
        ends, wr = others[r]
        Q = lcm(q, wr)
        if Q != q:
            f = Q // q
            xs, ys = [x * f for x in xs], [y * f for y in ys]
            xs1, ys1 = xs[1:] + xs[:1], ys[1:] + ys[:1]
        ox, oy = xs[k], ys[k]
        hit = _first_hit(ox, oy, mx, my, chain(
            zip(xs, ys, xs1, ys1),
            [(tx[a] * (Q // tw[a]), ty[a] * (Q // tw[a]),
              tx[b] * (Q // tw[b]), ty[b] * (Q // tw[b])) for a, b in ends]))
        if hit is None:
            raise GeometryError(f"ray from {_point(triples[cycle[k]], s)} "
                                "into a bounded face meets no edge")
        # node u + (mx, my) t / 2 for the hit's t = n / den in this frame
        n, den = hit
        X, Y, W = 2 * den * ox + n * mx, 2 * den * oy + n * my, 2 * den * Q
        g = gcd(X, Y, W)
        reps.append((X // g, Y // g, W // g))

    return Arrangement(triples=triples, s=s, edge_nodes=edges, cycles=cycles,
                       reps=reps)
