"""Exact planar arrangement of segments with one witness point per face.

Segments are split at every node (endpoint or crossing), giving a planar
graph whose faces are traversed with the usual rotate-clockwise half-edge
rule (faces lie to the left of their half-edges).  Each bounded face gets a
representative interior point: a vertex of its outer cycle offset into the
face by less than half the minimum feature clearance, which keeps the
representative strictly inside the face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .geometry import (
    GeometryError,
    Point,
    Scalar,
    cross,
    dist_sq,
    dot,
    point_on_segment,
    polygon_signed_area2,
    primitive_direction,
    segment_intersection_point,
    sort_directions_ccw,
    sqrt_lower_bound,
)

Key = Tuple[Fraction, Fraction]


def _dist_sq_point_segment(p: Point, a: Point, b: Point) -> Scalar:
    ab = b - a
    ap = p - a
    denom = dot(ab, ab)
    t = dot(ap, ab) / denom
    if t <= 0:
        return dist_sq(p, a)
    if t >= 1:
        return dist_sq(p, b)
    c = cross(ab, ap)
    return c * c / denom


@dataclass
class Arrangement:
    nodes: List[Point]
    edges: List[Tuple[Key, Key]]
    face_cycles: List[List[Point]]      # bounded faces, outer cycles, CCW
    representatives: List[Point]        # one interior point per bounded face
    clearance: Scalar                   # offset used for representatives


def build_arrangement(segments: Sequence[Tuple[Point, Point]]) -> Arrangement:
    """Planar subdivision induced by the segments (assumed nonempty)."""
    nodes: Dict[Key, Point] = {}

    def add_node(p: Point) -> None:
        nodes.setdefault(p.key(), p)

    segs = [(a, b) for a, b in segments if a != b]
    for a, b in segs:
        add_node(a)
        add_node(b)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            p = segment_intersection_point(*segs[i], *segs[j])
            if p is not None:
                add_node(p)

    # split each segment at every node lying on it; dedupe sub-edges
    edge_set = set()
    for a, b in segs:
        on = [p for p in nodes.values() if point_on_segment(p, a, b)]
        d = b - a
        on.sort(key=lambda p: dot(p - a, d))
        for u, v in zip(on, on[1:]):
            if u != v:
                edge_set.add(frozenset((u.key(), v.key())))
    edges = sorted((tuple(sorted(e))) for e in edge_set)

    adj: Dict[Key, List[Key]] = {k: [] for k in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    # clearance: half of the smallest positive node-node / node-segment gap
    node_list = sorted(nodes.values(), key=Point.key)
    min_dsq = None
    for i in range(len(node_list)):
        for j in range(i + 1, len(node_list)):
            d = dist_sq(node_list[i], node_list[j])
            if min_dsq is None or d < min_dsq:
                min_dsq = d
    for p in node_list:
        for a, b in segs:
            if point_on_segment(p, a, b):
                continue
            d = _dist_sq_point_segment(p, a, b)
            if 0 < d < min_dsq:
                min_dsq = d
    clearance = sqrt_lower_bound(min_dsq) / 2

    # sorted angular fans per node: wall directions plus the four axes
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    fans: Dict[Key, List[Tuple[int, int]]] = {}
    wall_order: Dict[Key, List[Tuple[int, int]]] = {}
    for k, p in nodes.items():
        walls = [primitive_direction(nodes[nk] - p) for nk in adj[k]]
        wall_order[k] = sort_directions_ccw(walls)
        fans[k] = sort_directions_ccw(walls + axes)

    # half-edge next: rotate clockwise at the head node
    dir_to_neighbor: Dict[Tuple[Key, Tuple[int, int]], Key] = {}
    for k in nodes:
        for nk in adj[k]:
            dir_to_neighbor[(k, primitive_direction(nodes[nk] - nodes[k]))] = nk

    def next_half_edge(u: Key, v: Key) -> Tuple[Key, Key]:
        back = primitive_direction(nodes[u] - nodes[v])
        order = wall_order[v]
        i = order.index(back)
        w_dir = order[i - 1]  # cyclic predecessor = first clockwise
        return (v, dir_to_neighbor[(v, w_dir)])

    half_edges = sorted([(u, v) for u, v in edges] + [(v, u) for u, v in edges])
    visited = set()
    face_cycles: List[List[Point]] = []
    reps: List[Point] = []
    for start in half_edges:
        if start in visited:
            continue
        cycle_keys: List[Tuple[Key, Key]] = []
        h = start
        while h not in visited:
            visited.add(h)
            cycle_keys.append(h)
            h = next_half_edge(*h)
        if h != start:
            raise GeometryError(
                "face walk ran into an earlier cycle instead of closing")
        cycle = [nodes[u] for u, _ in cycle_keys]
        if polygon_signed_area2(cycle) <= 0:
            continue  # outer face or hole boundary
        face_cycles.append(cycle)
        # representative: offset from the lexicographically smallest cycle
        # vertex into the first fan gap counterclockwise of its out-wall
        u, v = min(cycle_keys)
        fan = fans[u]
        d0 = primitive_direction(nodes[v] - nodes[u])
        i = fan.index(d0)
        d1 = fan[(i + 1) % len(fan)]
        mid = Point(Fraction(d0[0] + d1[0]), Fraction(d0[1] + d1[1]))
        t = clearance / (abs(mid.x) + abs(mid.y))
        reps.append(nodes[u] + mid.scaled(t))

    return Arrangement(nodes=node_list, edges=list(edges),
                       face_cycles=face_cycles, representatives=reps,
                       clearance=clearance)
