"""Exact visibility: point-to-point tests, visibility polygons, star triangles.

Visibility is closed: a segment that grazes the boundary still counts, since
the whole pipeline reasons about closed regions.  The visibility polygon is
computed by an angular sweep over wedges between consecutive critical
directions (all vertex directions plus the four axes); inside each open wedge
the blocking edge is constant, so one exact mid-ray shot per wedge suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    Cone,
    DegenerateConeError,
    DirectedLine,
    GeometryError,
    Point,
    Ray,
    Scalar,
    Segment,
    cross,
    dist_sq,
    dot,
    orient,
    point_on_segment,
    primitive_direction,
    pt,
    ray_segment_params,
    sort_directions_ccw,
)
from .polygon import (
    PointOutsidePolygon,
    PolygonModel,
    point_in_cycle,
    point_in_polygon,
    point_on_boundary,
    segment_in_polygon,
)


@dataclass(frozen=True)
class VisibilityPolygon:
    """Star-shaped region visible from ``viewpoint``, counterclockwise."""

    viewpoint: Point
    boundary: Tuple[Point, ...]
    window_edges: Tuple[int, ...]

    def edges(self) -> List[Tuple[Point, Point]]:
        b = self.boundary
        return [(b[i], b[(i + 1) % len(b)]) for i in range(len(b))]

    def area(self) -> Scalar:
        from .geometry import polygon_area
        return polygon_area(self.boundary)


@dataclass(frozen=True)
class StarTriangle:
    apex: Point
    u: Point
    v: Point
    triangle: Tuple[Point, Point, Point]


@dataclass(frozen=True)
class GridCone:
    """Union of rays from ``apex`` through the visible part of seg(u, v)."""

    apex: Point
    u: Point
    v: Point
    subsegments: Tuple[Segment, ...]

    @property
    def empty(self) -> bool:
        return not self.subsegments

    def contains(self, p: Point) -> bool:
        if p == self.apex:
            return True
        w = p - self.apex
        for s in self.subsegments:
            da = s.a - self.apex
            db = s.b - self.apex
            c = cross(da, db)
            if c < 0:
                da, db = db, da
                c = -c
            if c == 0:
                # apex collinear with the subsegment: the cone is a single ray
                if cross(da, w) == 0 and dot(da, w) > 0:
                    return True
                continue
            if cross(da, w) >= 0 and cross(w, db) >= 0:
                return True
        return False


def sees(m: PolygonModel, x: Point, y: Point) -> bool:
    """True iff the closed segment xy stays inside the closed polygon."""
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    if not point_in_polygon(m, y):
        raise PointOutsidePolygon(f"{y} outside polygon")
    return segment_in_polygon(m, x, y)


def overlay_segments(m: PolygonModel, polygons: Sequence[VisibilityPolygon]
                     ) -> List[Tuple[Point, Point]]:
    """Polygon edges plus every window chord of every visibility polygon."""
    segs = list(m.edges())
    for vp in polygons:
        es = vp.edges()
        segs.extend(es[i] for i in vp.window_edges)
    return segs


def sees_from_polygon(m: PolygonModel, vp: VisibilityPolygon,
                      y: Point) -> bool:
    """``sees(m, vp.viewpoint, y)`` for y in P, decided from ``vp``.

    A point of the closed visibility polygon is seen.  A point outside it
    can still be seen along a ray from the viewpoint through a polygon
    vertex: beyond a pinhole between two reflex vertices the visible set
    goes on as a segment of zero width, which the polygon leaves out.  Only
    points on such rays are handed to ``sees``; every other point outside
    the polygon is not seen.
    """
    if point_in_cycle(vp.boundary, y):
        return True
    x = vp.viewpoint
    d = y - x
    for v in m.vertices:
        w = v - x
        if cross(w, d) == 0 and dot(w, d) > 0:
            return sees(m, x, y)
    return False


def _ray_line_param(x: Point, d: Point, a: Point, b: Point) -> Scalar:
    """t with x + t*d on line(a, b); caller guarantees non-parallel."""
    e = b - a
    denom = cross(d, e)
    return cross(a - x, e) / denom


def _visible_extent(m: PolygonModel, x: Point,
                    d: Point) -> Tuple[Scalar, Optional[Tuple[Point, Point]]]:
    """Furthest t with seg(x, x + t*d) inside P, plus the blocking edge."""
    ts = {Fraction(0)}
    for a, b in m.edges():
        for t in ray_segment_params(x, d, a, b):
            if t >= 0:
                ts.add(t)
    ordered = sorted(ts)
    t_exit = ordered[-1]
    for t0, t1 in zip(ordered, ordered[1:]):
        probe = x + d.scaled((t0 + t1) / 2)
        if not point_in_polygon(m, probe):
            t_exit = t0
            break
    if t_exit == 0:
        return Fraction(0), None
    q = x + d.scaled(t_exit)
    blocking = None
    for a, b in m.edges():
        if cross(d, b - a) == 0:
            continue
        if point_on_segment(q, a, b):
            if blocking is not None:
                raise GeometryError(
                    "ambiguous blocking edge; mid-ray hit a vertex")
            blocking = (a, b)
    if blocking is None:
        raise GeometryError("exit point not on any transversal edge")
    return t_exit, blocking


def visibility_polygon(m: PolygonModel, x: Point) -> VisibilityPolygon:
    """Exact visibility polygon of x inside the closed polygon."""
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")

    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for v in m.vertices:
        if v != x:
            dirs.add(primitive_direction(v - x))
    order = sort_directions_ccw(dirs)
    k = len(order)

    pts: List[Point] = []

    def push(p: Point) -> None:
        if not pts or pts[-1] != p:
            pts.append(p)

    for i in range(k):
        d1 = order[i]
        d2 = order[(i + 1) % k]
        mid = pt(d1[0] + d2[0], d1[1] + d2[1])
        t_star, edge = _visible_extent(m, x, mid)
        if edge is None:
            push(x)
            continue
        a, b = edge
        v1 = x + pt(*d1).scaled(_ray_line_param(x, pt(*d1), a, b))
        v2 = x + pt(*d2).scaled(_ray_line_param(x, pt(*d2), a, b))
        push(v1)
        push(v2)

    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    # drop collinear middle vertices (neighbors taken from the raw cycle,
    # which is correct for collinear runs along a single line)
    n = len(pts)
    boundary = tuple(
        pts[i] for i in range(n)
        if orient(pts[i - 1], pts[i], pts[(i + 1) % n]) != 0)
    if len(boundary) < 3:
        raise GeometryError("degenerate visibility region")

    def on_polygon_edge(a: Point, b: Point) -> bool:
        return any(point_on_segment(a, p, q) and point_on_segment(b, p, q)
                   for p, q in m.edges())

    nb = len(boundary)
    windows = tuple(i for i in range(nb)
                    if not on_polygon_edge(boundary[i], boundary[(i + 1) % nb]))
    return VisibilityPolygon(viewpoint=x, boundary=boundary,
                             window_edges=windows)


def _visible_vertex_on_ray(m: PolygonModel, x: Point, p: Point) -> Point:
    """Nearest polygon vertex on ray(x, p) visible from x, defaulting to p."""
    d = p - x
    best = None
    for w in m.vertices:
        vw = w - x
        if vw == pt(0, 0) or cross(d, vw) != 0 or dot(d, vw) <= 0:
            continue
        if sees(m, x, w):
            if best is None or dist_sq(x, w) < dist_sq(x, best):
                best = w
    return best if best is not None else p


def star_triangles(m: PolygonModel, x: Point) -> List[StarTriangle]:
    """Fan decomposition of Vis(x) into triangles with apex x.

    Triangles partition the visibility region up to shared edges; u and v
    are the visible polygon vertices on the bounding rays of each fan piece.
    """
    vp = visibility_polygon(m, x)
    out: List[StarTriangle] = []
    b = vp.boundary
    nb = len(b)
    for i in range(nb):
        a, c = b[i], b[(i + 1) % nb]
        if orient(x, a, c) == 0:
            continue
        out.append(StarTriangle(
            apex=x,
            u=_visible_vertex_on_ray(m, x, a),
            v=_visible_vertex_on_ray(m, x, c),
            triangle=(x, a, c)))
    return out


def cone_of(x: Point, u: Point, v: Point) -> Cone:
    """Convex cone with apex x bounded by ray(x, u) and ray(x, v)."""
    if x == u or x == v or u == v:
        raise DegenerateConeError("cone needs three distinct points")
    if orient(x, u, v) == 0:
        raise DegenerateConeError("apex collinear with u and v")
    return Cone(apex=x, boundary_ray_1=Ray(x, u), boundary_ray_2=Ray(x, v))


def visible_subsegments(m: PolygonModel, g: Point, u: Point,
                        v: Point) -> List[Segment]:
    """Maximal closed sub-segments of seg(u, v) visible from g.

    Breakpoints are placed wherever the swept segment g-w(t) passes a polygon
    vertex or seg(u, v) crosses an edge; visibility is constant in between.
    """
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
        for t in ray_segment_params(u, d, a, b):
            if 0 <= t <= 1:
                ts.add(t)
    ordered = sorted(ts)
    flags = []
    for t0, t1 in zip(ordered, ordered[1:]):
        probe = u + d.scaled((t0 + t1) / 2)
        ok = point_in_polygon(m, probe) and segment_in_polygon(m, g, probe)
        flags.append((t0, t1, ok))
    out: List[Segment] = []
    run_start = None
    for t0, t1, ok in flags + [(None, None, False)]:
        if ok and run_start is None:
            run_start = t0
        elif not ok and run_start is not None:
            a = u + d.scaled(run_start)
            b = u + d.scaled(prev_t1)
            out.append(Segment(a, b))
            run_start = None
        prev_t1 = t1
    return out


def grid_cone(m: PolygonModel, g: Point, u: Point, v: Point) -> GridCone:
    """Cone of g toward the visible part of seg(u, v)."""
    subs = visible_subsegments(m, g, u, v) if u != v else []
    return GridCone(apex=g, u=u, v=v, subsegments=tuple(subs))
