"""Exact planar arrangement of segments with one witness point per face.

All endpoints are cleared to one common denominator, so the construction
runs on integers.  Identical segments, in either orientation, are merged;
the rest are split where they meet.  Only pairs whose bounding boxes meet
are compared, and a pair that is not parallel but shares an endpoint is
skipped, since it meets only there.  Split points are reduced integer
triples, which key the nodes; one Point is built per node.  Faces are
traversed with the usual rotate-clockwise half-edge rule (faces lie to
the left of their half-edges).  A face is bounded by its own walk and by
whole other connected components (its holes), so a ray from a vertex of
the walk into the face stays inside it up to its first hit on those
edges; each bounded face's representative is the midpoint of that stretch.
The ray is shot on integers: the walk's triples and those of the other
components are brought over the lcm of their W, and one Point is built
per representative.  Each edge also records the bounded face on either
side of it and the input segments that contain it, so callers can walk
the faces' dual graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import (
    GeometryError,
    Point,
    cleared,
    sort_directions_ccw,
)

Key = Tuple[Fraction, Fraction]
Triple = Tuple[int, int, int]


@dataclass
class Arrangement:
    nodes: List[Point]
    edges: List[Tuple[Key, Key]]
    face_cycles: List[List[Point]]      # bounded faces, outer cycles, CCW
    representatives: List[Point]        # one interior point per bounded face
    # per edge (u, v): the bounded face left of u -> v and left of v -> u,
    # or -1 where that side's walk bounds no face (the outer walk, or a
    # hole's boundary seen from the face around it)
    edge_faces: List[Tuple[int, int]]
    # per edge: the indices of the input segments that contain it
    edge_segments: List[Tuple[int, ...]]


def _split_points(segs: List[Tuple[Tuple[int, int], Tuple[int, int]]]
                  ) -> List[List[Triple]]:
    """For each segment, every point where it meets a segment (itself too),
    as the triple (X, Y, W) of (X / W, Y / W) with W > 0 and gcd 1."""
    splits = [[a + (1,), b + (1,)] for a, b in segs]
    boxes = [(min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
             for (ax, ay), (bx, by) in segs]
    order = sorted(range(len(segs)), key=lambda i: boxes[i][0])
    for n, i in enumerate(order):
        x0, x1, y0, y1 = boxes[i]
        (ax, ay), (bx, by) = a, b = segs[i]
        ux, uy = bx - ax, by - ay
        for j in order[n + 1:]:
            jx0, jx1, jy0, jy1 = boxes[j]
            if jx0 > x1:
                break
            if jy0 > y1 or jy1 < y0:
                continue
            (cx, cy), (dx, dy) = c, d = segs[j]
            vx, vy, fx, fy = dx - cx, dy - cy, cx - ax, cy - ay
            den, un = ux * vy - uy * vx, fx * uy - fy * ux
            if den == 0:
                if un == 0:  # collinear: each gets the other's ends on it
                    splits[i] += [(qx, qy, 1) for qx, qy in (c, d)
                                  if x0 <= qx <= x1 and y0 <= qy <= y1]
                    splits[j] += [(qx, qy, 1) for qx, qy in (a, b)
                                  if jx0 <= qx <= jx1 and jy0 <= qy <= jy1]
                continue
            if a == c or a == d or b == c or b == d:
                continue  # not parallel: they meet only at the shared end
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
               segs: List[Tuple[int, int, int, int]]
               ) -> Optional[Tuple[int, int]]:
    """The smallest t > 0 at which (ox, oy) + t (mx, my) meets one of the
    segments (ax, ay, bx, by), as (numerator, denominator), or None.

    A collinear segment is met at the projections of its ends.
    """
    best = None
    for ax, ay, bx, by in segs:
        fx, fy = ax - ox, ay - oy
        ex, ey = bx - ax, by - ay
        den = mx * ey - my * ex
        if den == 0:
            if mx * fy - my * fx:
                continue
            dd = mx * mx + my * my
            hits = [(n, dd) for n in (fx * mx + fy * my,
                                      (bx - ox) * mx + (by - oy) * my)]
        else:
            tn, un = fx * ey - fy * ex, fx * my - fy * mx
            if den < 0:
                den, tn, un = -den, -tn, -un
            hits = [(tn, den)] if 0 <= un <= den else []
        for n, d in hits:
            if n > 0 and (best is None or n * best[1] < best[0] * d):
                best = (n, d)
    return best


def build_arrangement(segments: Sequence[Tuple[Point, Point]]) -> Arrangement:
    """Planar subdivision induced by the segments (assumed nonempty)."""
    # endpoints over one denominator s, so triple (X, Y, W) is the point
    # (X, Y) / (W s); each segment once, from its smaller endpoint
    s, cs = cleared(*[c for ab in segments for p in ab for c in (p.x, p.y)])
    ends = iter(zip(cs[0::2], cs[1::2]))
    merged: Dict[Tuple[Tuple[int, int], Tuple[int, int]], Tuple[int, ...]] = {}
    for k, (p, q) in enumerate(zip(ends, ends)):
        if p != q:
            pq = (min(p, q), max(p, q))
            merged[pq] = merged.get(pq, ()) + (k,)
    segs = sorted(merged)
    splits = _split_points(segs)
    points = {t: Point(Fraction(t[0], t[2] * s), Fraction(t[1], t[2] * s))
              for on in splits for t in on}
    # nodes are numbered in key order, so ids compare as keys do
    triples = sorted(points, key=lambda t: points[t].key())
    nodes = [points[t] for t in triples]
    index = {t: i for i, t in enumerate(triples)}
    # each edge's input segments; segments merged above, or collinear ones
    # that overlap, hold disjoint index sets, so concatenation is a union
    owners: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for pq, on in zip(segs, splits):
        # the points of one segment lie along it in key order
        ids = sorted({index[t] for t in on})
        ks = merged[pq]
        for e in zip(ids, ids[1:]):
            owners[e] = owners.get(e, ()) + ks
    edges = sorted(owners)

    # each node's walls counterclockwise, and each neighbour's slot in them
    adj: List[List[int]] = [[] for _ in nodes]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    walls: List[List[Tuple[int, int]]] = []
    ccw: List[List[int]] = []
    slot: Dict[Tuple[int, int], int] = {}
    for u, (X, Y, W) in enumerate(triples):
        by_dir = {}
        for v in adj[u]:
            X2, Y2, W2 = triples[v]  # node v - node u, made primitive
            dx, dy = X2 * W - X * W2, Y2 * W - Y * W2
            g = gcd(dx, dy)
            by_dir[(dx // g, dy // g)] = v
        walls.append(sort_directions_ccw(by_dir))
        ccw.append([by_dir[d] for d in walls[u]])
        for k, v in enumerate(ccw[u]):
            slot[(u, v)] = k

    # connected components, by union-find over the edges
    parent = list(range(len(nodes)))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        parent[find(u)] = find(v)
    # by component root: the edges of the other components, and the lcm
    # of their nodes' W
    others: Dict[int, Tuple[List[Tuple[int, int]], int]] = {}

    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    fans: Dict[int, List[Tuple[int, int]]] = {}  # walls and axes, by node
    half_edges = sorted(edges + [(v, u) for u, v in edges])
    face_of: Dict[Tuple[int, int], int] = {}  # by half-edge, once walked
    face_cycles: List[List[Point]] = []
    reps: List[Point] = []
    for start in half_edges:
        if start in face_of:
            continue
        walk: List[Tuple[int, int]] = []
        h = start
        while h not in face_of:
            face_of[h] = -1
            walk.append(h)
            # next half-edge: rotate clockwise at the head node
            u, v = h
            h = (v, ccw[v][slot[(v, u)] - 1])
        if h != start:
            raise GeometryError(
                "face walk ran into an earlier cycle instead of closing")
        # twice the signed area, over the walk's common denominator
        tri = [triples[u] for u, _ in walk]
        q = lcm(*[t[2] for t in tri])
        xy = [(X * (q // W), Y * (q // W)) for X, Y, W in tri]
        if sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
               in zip(xy, xy[1:] + xy[:1])) <= 0:
            continue  # outer face or hole boundary
        face_of.update(dict.fromkeys(walk, len(face_cycles)))
        face_cycles.append([nodes[u] for u, _ in walk])
        # representative: from the lexicographically smallest cycle vertex
        # along the bisector of the first gap counterclockwise of its
        # out-wall among walls and axes, halfway to the ray's first hit
        u, v = min(walk)
        d0 = walls[u][slot[(u, v)]]
        if u not in fans:
            fans[u] = sort_directions_ccw(walls[u] + axes)
        fan = fans[u]
        d1 = fan[(fan.index(d0) + 1) % len(fan)]
        mx, my = d0[0] + d1[0], d0[1] + d1[1]
        r = find(u)
        if r not in others:
            ends = [(a, b) for a, b in edges if find(a) != r]
            others[r] = (ends, lcm(*[triples[a][2] for e in ends for a in e]))
        ends, wr = others[r]
        # the walk and the other components over one denominator Q, so
        # node k is (px[k], py[k]) / (Q s); the ray is shot on integers
        Q = lcm(q, wr)
        px, py = {}, {}
        for k in [a for a, _ in walk] + [a for e in ends for a in e]:
            X, Y, W = triples[k]
            px[k], py[k] = X * (Q // W), Y * (Q // W)
        hit = _first_hit(px[u], py[u], mx, my,
                         [(px[a], py[a], px[b], py[b])
                          for a, b in walk + ends])
        if hit is None:
            raise GeometryError(
                f"ray from {nodes[u]} into a bounded face meets no edge")
        # node u + (mx, my) t / 2 for the hit's t = n / den in this frame
        n, den = hit
        w = 2 * den * Q * s
        reps.append(Point(Fraction(2 * den * px[u] + n * mx, w),
                          Fraction(2 * den * py[u] + n * my, w)))

    return Arrangement(
        nodes=nodes, edges=[(nodes[u].key(), nodes[v].key()) for u, v in edges],
        face_cycles=face_cycles, representatives=reps,
        edge_faces=[(face_of[(u, v)], face_of[(v, u)]) for u, v in edges],
        edge_segments=[owners[e] for e in edges])
