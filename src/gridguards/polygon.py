"""Validated simple-polygon model with structural queries.

Vertices are positive integers after loading (rational inputs are rescaled
by the lcm of their denominators).  The derived constant L = 20 * M, where M
is the largest coordinate, drives every distance bound downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    DirectedLine,
    Point,
    Scalar,
    dist_sq,
    line_intersection,
    orient,
    point_on_segment,
    polygon_signed_area2,
    pt,
    segments_intersect,
)


class PolygonError(Exception):
    """Base class for polygon validation errors."""


class NotSimple(PolygonError):
    pass


class NonPositiveCoordinates(PolygonError):
    pass


class DuplicateVertex(PolygonError):
    pass


class CollinearTripleConsecutive(PolygonError):
    pass


class PointOutsidePolygon(PolygonError):
    pass


@dataclass(frozen=True)
class PolygonModel:
    """Simple polygon with positive integer vertices in counterclockwise order."""

    vertices: Tuple[Point, ...]
    M: int
    L: int

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> List[Tuple[Point, Point]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def vertex(self, i: int) -> Point:
        return self.vertices[i % len(self.vertices)]


@dataclass(frozen=True)
class Extension:
    """Line through two polygon vertices."""

    line: DirectedLine
    defining_vertices: Tuple[int, int]


@dataclass(frozen=True)
class OppositeReflexPair:
    """Reflex pair whose incident edges lie strictly on opposite sides of their line."""

    r1: int
    r2: int
    line: Extension


def load_polygon(vertex_list: Sequence) -> PolygonModel:
    """Validate and normalize a polygon from raw coordinate pairs or Points."""
    raw = [v if isinstance(v, Point) else pt(v[0], v[1]) for v in vertex_list]
    if len(raw) < 3:
        raise PolygonError("polygon needs at least 3 vertices")

    scale = lcm(*[c.denominator for v in raw for c in (v.x, v.y)])
    verts = [Point(v.x * scale, v.y * scale) for v in raw]

    for v in verts:
        if v.x <= 0 or v.y <= 0:
            raise NonPositiveCoordinates(f"vertex {v} not strictly positive")
    if len(set((v.x, v.y) for v in verts)) != len(verts):
        raise DuplicateVertex("repeated vertex coordinates")

    n = len(verts)
    for i in range(n):
        if orient(verts[i - 1], verts[i], verts[(i + 1) % n]) == 0:
            raise CollinearTripleConsecutive(
                f"consecutive vertices around index {i} are collinear")

    # simplicity: non-adjacent edges must be disjoint
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = verts[j], verts[(j + 1) % n]
            if segments_intersect(a, b, c, d):
                raise NotSimple(f"edges {i} and {j} intersect")

    if polygon_signed_area2(verts) < 0:
        verts.reverse()

    M = max(int(c) for v in verts for c in (v.x, v.y))
    return PolygonModel(vertices=tuple(verts), M=M, L=20 * M)


def point_on_boundary(m: PolygonModel, p: Point) -> bool:
    return any(point_on_segment(p, a, b) for a, b in m.edges())


def point_in_polygon(m: PolygonModel, p: Point) -> bool:
    """Closed-polygon membership: boundary points count as inside."""
    return point_in_cycle(m.vertices, p)


def point_in_cycle(vertices: Sequence[Point], p: Point) -> bool:
    """Membership of p in the closed simple polygon with these vertices.

    Boundary points count as inside.  The interior test is exact even-odd
    ray casting with the half-open vertex rule (no epsilon, no perturbation
    of inputs).
    """
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    if any(point_on_segment(p, a, b) for a, b in edges):
        return True
    inside = False
    for a, b in edges:
        if (a.y > p.y) != (b.y > p.y):
            # x coordinate of the crossing of edge ab with the horizontal at p.y
            x_cross = a.x + (b.x - a.x) * (p.y - a.y) / (b.y - a.y)
            if x_cross > p.x:
                inside = not inside
    return inside


def segment_in_polygon(m: PolygonModel, a: Point, b: Point) -> bool:
    """True iff the closed segment ab lies entirely in the closed polygon."""
    if not point_in_polygon(m, a) or not point_in_polygon(m, b):
        return False
    if a == b:
        return True
    d = b - a
    from .geometry import ray_segment_params
    ts = {Fraction(0), Fraction(1)}
    for c, e in m.edges():
        for t in ray_segment_params(a, d, c, e):
            if 0 <= t <= 1:
                ts.add(t)
    ordered = sorted(ts)
    for t0, t1 in zip(ordered, ordered[1:]):
        mid = a + d.scaled((t0 + t1) / 2)
        if not point_in_polygon(m, mid):
            return False
    return True


def reflex_vertices(m: PolygonModel) -> List[int]:
    """Indices of vertices whose interior angle exceeds pi."""
    vs = m.vertices
    n = m.n
    return [i for i in range(n)
            if orient(vs[i - 1], vs[i], vs[(i + 1) % n]) < 0]


def _line_key(a: Point, b: Point) -> Tuple[int, int, int]:
    """Canonical integer (A, B, C) for the line Ax + By = C through a, b.

    Assumes integer vertex coordinates (guaranteed after load_polygon).
    """
    from math import gcd
    A = int(b.y - a.y)
    B = int(a.x - b.x)
    C = A * int(a.x) + B * int(a.y)
    g = gcd(gcd(abs(A), abs(B)), abs(C))
    A, B, C = A // g, B // g, C // g
    if A < 0 or (A == 0 and B < 0):
        A, B, C = -A, -B, -C
    return (A, B, C)


def extensions(m: PolygonModel) -> List[Extension]:
    """All distinct lines through pairs of vertices (deduplicated)."""
    seen = {}
    out: List[Extension] = []
    n = m.n
    for i in range(n):
        for j in range(i + 1, n):
            key = _line_key(m.vertices[i], m.vertices[j])
            if key in seen:
                continue
            seen[key] = True
            out.append(Extension(
                line=DirectedLine(m.vertices[i], m.vertices[j]),
                defining_vertices=(i, j)))
    return out


def opposite_reflex_pairs(m: PolygonModel) -> List[OppositeReflexPair]:
    """Reflex pairs with incident edges strictly on opposite sides of their line
    and the connecting segment inside the polygon."""
    refl = reflex_vertices(m)
    out: List[OppositeReflexPair] = []
    n = m.n
    for ii, i in enumerate(refl):
        for j in refl[ii + 1:]:
            ri, rj = m.vertices[i], m.vertices[j]
            ell = DirectedLine(ri, rj)
            side_i = {ell.side_of(m.vertices[i - 1]),
                      ell.side_of(m.vertices[(i + 1) % n])}
            side_j = {ell.side_of(m.vertices[j - 1]),
                      ell.side_of(m.vertices[(j + 1) % n])}
            if 0 in side_i or 0 in side_j:
                continue
            if len(side_i) != 1 or len(side_j) != 1 or side_i == side_j:
                continue
            if not segment_in_polygon(m, ri, rj):
                continue
            out.append(OppositeReflexPair(
                r1=i, r2=j,
                line=Extension(line=ell, defining_vertices=(i, j))))
    return out


@dataclass
class GeneralPositionReport:
    collinear_triples: List[Tuple[int, int, int]] = field(default_factory=list)
    concurrent_extension_triples: List[Tuple[Point, Tuple]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.collinear_triples and not self.concurrent_extension_triples


def check_general_position(m: PolygonModel) -> GeneralPositionReport:
    """Report collinear vertex triples and extension triples concurrent at a
    non-vertex point of the polygon."""
    report = GeneralPositionReport()
    n = m.n
    vs = m.vertices
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(vs[i], vs[j], vs[k]) == 0:
                    report.collinear_triples.append((i, j, k))

    exts = extensions(m)
    vertex_set = set((v.x, v.y) for v in vs)
    meets = {}
    for i in range(len(exts)):
        for j in range(i + 1, len(exts)):
            p = line_intersection(exts[i].line, exts[j].line)
            if not isinstance(p, Point):
                continue
            key = (p.x, p.y)
            meets.setdefault(key, set()).update([i, j])
    for (x, y), idxs in meets.items():
        if len(idxs) < 3:
            continue
        p = Point(x, y)
        if (x, y) in vertex_set:
            continue
        if point_in_polygon(m, p):
            report.concurrent_extension_triples.append(
                (p, tuple(sorted(idxs))))
    return report


def triangulate(m: PolygonModel) -> List[Tuple[Point, Point, Point]]:
    """Ear-clipping triangulation with exact predicates."""
    verts = list(m.vertices)
    tris: List[Tuple[Point, Point, Point]] = []
    guard = 0
    while len(verts) > 3:
        guard += 1
        if guard > 10 * m.n * m.n:
            raise PolygonError("triangulation failed to converge")
        n = len(verts)
        clipped = False
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if orient(a, b, c) <= 0:
                continue
            # ear test: no other vertex inside the candidate triangle
            ok = True
            for q in verts:
                if q in (a, b, c):
                    continue
                if (orient(a, b, q) >= 0 and orient(b, c, q) >= 0
                        and orient(c, a, q) >= 0):
                    ok = False
                    break
            if ok:
                tris.append((a, b, c))
                del verts[i]
                clipped = True
                break
        if not clipped:
            raise PolygonError("no ear found; polygon not simple?")
    tris.append((verts[0], verts[1], verts[2]))
    return tris
