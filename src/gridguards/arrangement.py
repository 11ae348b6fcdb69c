"""Exact planar arrangement of segments with one witness point per face.

Segments are split where they meet (only pairs whose bounding boxes meet
are compared), giving a planar graph whose faces are traversed with the
usual rotate-clockwise half-edge rule (faces lie to the left of their
half-edges).  A face is bounded by its own walk and by whole other
connected components (its holes), so a ray from a vertex of the walk into
the face stays inside it up to its first hit on those edges; each bounded
face's representative is the midpoint of that stretch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .geometry import (
    GeometryError,
    Point,
    cross,
    point_on_segment,
    polygon_signed_area2,
    primitive_direction,
    ray_segment_params,
    segment_intersection_point,
    sort_directions_ccw,
)

Key = Tuple[Fraction, Fraction]


@dataclass
class Arrangement:
    nodes: List[Point]
    edges: List[Tuple[Key, Key]]
    face_cycles: List[List[Point]]      # bounded faces, outer cycles, CCW
    representatives: List[Point]        # one interior point per bounded face


def _split_points(segs: List[Tuple[Point, Point]]) -> List[List[Point]]:
    """For each segment, every point where it meets a segment (itself too)."""
    splits = [[a, b] for a, b in segs]
    boxes = [(min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y))
             for a, b in segs]
    order = sorted(range(len(segs)), key=lambda i: boxes[i][0])
    for n, i in enumerate(order):
        _, x1, y0, y1 = boxes[i]
        a, b = segs[i]
        for j in order[n + 1:]:
            jx0, _, jy0, jy1 = boxes[j]
            if jx0 > x1:
                break
            if jy0 > y1 or jy1 < y0:
                continue
            c, d = segs[j]
            p = segment_intersection_point(a, b, c, d)
            if p is not None:
                splits[i].append(p)
                splits[j].append(p)
            elif cross(b - a, d - c) == 0:
                # parallel: only a collinear overlap adds split points
                splits[i].extend(q for q in (c, d) if point_on_segment(q, a, b))
                splits[j].extend(q for q in (a, b) if point_on_segment(q, c, d))
    return splits


def build_arrangement(segments: Sequence[Tuple[Point, Point]]) -> Arrangement:
    """Planar subdivision induced by the segments (assumed nonempty)."""
    splits = _split_points([(a, b) for a, b in segments if a != b])
    # nodes are numbered in key order, so ids compare as keys do
    nodes = sorted({p for on in splits for p in on}, key=Point.key)
    index = {p: i for i, p in enumerate(nodes)}
    edge_set = set()
    for on in splits:
        # the points of one segment lie along it in key order
        ids = sorted({index[p] for p in on})
        edge_set.update(zip(ids, ids[1:]))
    edges = sorted(edge_set)

    # each node's walls counterclockwise, and each neighbour's slot in them
    adj: List[List[int]] = [[] for _ in nodes]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    walls: List[List[Tuple[int, int]]] = []
    ccw: List[List[int]] = []
    slot: Dict[Tuple[int, int], int] = {}
    for u, p in enumerate(nodes):
        by_dir = {primitive_direction(nodes[v] - p): v for v in adj[u]}
        walls.append(sort_directions_ccw(by_dir))
        ccw.append([by_dir[d] for d in walls[u]])
        for s, v in enumerate(ccw[u]):
            slot[(u, v)] = s

    # connected components, by union-find over the edges
    parent = list(range(len(nodes)))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        parent[find(u)] = find(v)
    others: Dict[int, List[Tuple[Point, Point]]] = {}  # by component root

    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    half_edges = sorted(edges + [(v, u) for u, v in edges])
    visited = set()
    face_cycles: List[List[Point]] = []
    reps: List[Point] = []
    for start in half_edges:
        if start in visited:
            continue
        walk: List[Tuple[int, int]] = []
        h = start
        while h not in visited:
            visited.add(h)
            walk.append(h)
            # next half-edge: rotate clockwise at the head node
            u, v = h
            h = (v, ccw[v][slot[(v, u)] - 1])
        if h != start:
            raise GeometryError(
                "face walk ran into an earlier cycle instead of closing")
        cycle = [nodes[u] for u, _ in walk]
        if polygon_signed_area2(cycle) <= 0:
            continue  # outer face or hole boundary
        face_cycles.append(cycle)
        # representative: from the lexicographically smallest cycle vertex
        # along the bisector of the first gap counterclockwise of its
        # out-wall among walls and axes, halfway to the ray's first hit
        u, v = min(walk)
        d0 = walls[u][slot[(u, v)]]
        fan = sort_directions_ccw(walls[u] + axes)
        d1 = fan[(fan.index(d0) + 1) % len(fan)]
        mid = Point(Fraction(d0[0] + d1[0]), Fraction(d0[1] + d1[1]))
        r = find(u)
        if r not in others:
            others[r] = [(nodes[a], nodes[b]) for a, b in edges
                         if find(a) != r]
        bounds = [(nodes[a], nodes[b]) for a, b in walk] + others[r]
        hits = [t for a, b in bounds
                for t in ray_segment_params(nodes[u], mid, a, b) if t > 0]
        if not hits:
            raise GeometryError(
                f"ray from {nodes[u]} into a bounded face meets no edge")
        reps.append(nodes[u] + mid.scaled(min(hits) / 2))

    return Arrangement(
        nodes=nodes, edges=[(nodes[u].key(), nodes[v].key()) for u, v in edges],
        face_cycles=face_cycles, representatives=reps)
