"""Exact visibility: segment tests, visibility polygons, visible sub-segments.

Visibility is closed: a segment that grazes the boundary still counts, since
the whole pipeline reasons about closed regions.  The visibility polygon is
computed by an angular sweep over wedges between consecutive critical
directions (all vertex directions plus the four axes); inside each open wedge
the blocking edge is constant, so one exact mid-ray shot per wedge suffices.
The visible part of a polygon edge is read off the same polygon's
boundary rather than swept separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    GeometryError,
    Point,
    Segment,
    cleared,
    cross,
    dot,
    sort_directions_ccw,
)
from .polygon import (
    PointOutsidePolygon,
    PolygonModel,
    _in_int_cycle,
    _segment_inside,
    point_in_polygon,
)


@dataclass(frozen=True)
class VisibilityPolygon:
    """Star-shaped region visible from one point, counterclockwise."""

    boundary: Tuple[Point, ...]
    window_edges: Tuple[int, ...]

    def edges(self) -> List[Tuple[Point, Point]]:
        b = self.boundary
        return [(b[i], b[(i + 1) % len(b)]) for i in range(len(b))]


def sees(m: PolygonModel, x: Point, y: Point) -> bool:
    """True iff the closed segment xy stays inside the closed polygon.

    Raises PointOutsidePolygon when x, or else y, lies outside it.
    """
    return _segment_inside(m, x, y)


def overlay_segments(m: PolygonModel, polygons: Sequence[VisibilityPolygon]
                     ) -> List[Tuple[Point, Point]]:
    """Polygon edges plus every window chord of every visibility polygon."""
    segs = list(m.edges())
    for vp in polygons:
        es = vp.edges()
        segs.extend(es[i] for i in vp.window_edges)
    return segs


def _blocking_edge(m: PolygonModel, X: int, Y: int, w: int,
                   rel: List[Tuple[int, int]], mx: int,
                   my: int) -> Optional[int]:
    """Index of the edge through which the ray from x in direction (mx, my)
    leaves P, or None when it leaves P at x itself.

    x is (X / w, Y / w), ``rel[i]`` is w * (vertex i - x), and edge i runs
    from vertex i - 1 to vertex i.  The ray passes through no vertex, so it
    meets edges only transversally at interior points: the smallest
    positive hit is where it leaves P, and its edge is the blocking edge.
    """
    best = None          # (s_num, s_den, edge) of the smallest positive hit
    tie = False
    at_x = False         # some edge contains x: x is on the boundary
    ax, ay = rel[-1]
    for i, (bx, by) in enumerate(rel):
        ex, ey = bx - ax, by - ay
        den = mx * ey - my * ex
        un = ax * my - ay * mx
        if den == 0:
            if un == 0:
                # collinear: an edge ending at x behind it only touches x
                reach = max(ax * mx + ay * my, bx * mx + by * my)
                if reach > 0:
                    raise GeometryError(
                        "exit point not on any transversal edge")
                at_x = at_x or reach == 0
        else:
            sn = ax * ey - ay * ex
            if den < 0:
                den, sn, un = -den, -sn, -un
            if sn >= 0 and 0 <= un <= den:
                if sn == 0:
                    at_x = True
                elif best is None or sn * best[1] < best[0] * den:
                    best, tie = (sn, den, i), False
                elif sn * best[1] == best[0] * den:
                    tie = True
        ax, ay = bx, by
    if best is None:
        return None
    if at_x:
        # no edge crosses the open stretch from x to the first hit, so one
        # probe at its middle tells whether the ray leaves P at x already
        sn, sd, _ = best
        q = 2 * sd * w
        probe = Point(Fraction(2 * sd * X + sn * mx, q),
                      Fraction(2 * sd * Y + sn * my, q))
        if not point_in_polygon(m, probe):
            return None
    if tie:
        raise GeometryError("ambiguous blocking edge; mid-ray hit a vertex")
    return best[2]


Triple = Tuple[int, int, int]


def _ray_meets_line(d: Tuple[int, int], a: Tuple[int, int],
                    b: Tuple[int, int]) -> Triple:
    """Where the ray from x in the primitive direction d meets line(a, b),
    to which it is not parallel, as the reduced triple (hx, hy, hw) with
    hw > 0 of w * (point - x) = (hx / hw, hy / hw); a and b are
    w * (vertex - x).
    """
    dx, dy = d
    ex, ey = b[0] - a[0], b[1] - a[1]
    den = dx * ey - dy * ex
    sn = a[0] * ey - a[1] * ex
    g = gcd(sn, den) if den > 0 else -gcd(sn, den)  # d primitive: reduces
    return (dx * sn // g, dy * sn // g, den // g)


def _edges_through(rel: List[Tuple[int, int]], p: Triple) -> int:
    """Bitmask of the polygon edges whose closed segment holds p (edge i
    from vertex i - 1 to vertex i, ``rel`` as in ``_blocking_edge``)."""
    hx, hy, hw = p
    return sum(1 << i for i, ((ax, ay), (bx, by))
               in enumerate(zip(rel[-1:] + rel[:-1], rel))
               if min(ax, bx) * hw <= hx <= max(ax, bx) * hw
               and min(ay, by) * hw <= hy <= max(ay, by) * hw
               and (bx - ax) * (hy - ay * hw) == (by - ay) * (hx - ax * hw))


def visibility_polygon(m: PolygonModel, x: Point) -> VisibilityPolygon:
    """Exact visibility polygon of x inside the closed polygon."""
    # x and the vertices scaled to integers; rel[i] = w * (vertex i - x)
    w, (X, Y) = cleared(x.x, x.y)
    xs, ys = m.scaled(w)
    if not _in_int_cycle(xs, ys, X, Y):
        raise PointOutsidePolygon(f"{x} outside polygon")
    rel = [(vx - X, vy - Y) for vx, vy in zip(xs, ys)]

    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for rx, ry in rel:
        if rx or ry:
            g = gcd(rx, ry)
            dirs.add((rx // g, ry // g))
    order = sort_directions_ccw(dirs)

    # the boundary as triples of w * (point - x), x itself being (0, 0, 1)
    pts: List[Triple] = []
    for d1, d2 in zip(order, order[1:] + order[:1]):
        edge = _blocking_edge(m, X, Y, w, rel, d1[0] + d2[0], d1[1] + d2[1])
        hits = [(0, 0, 1)] if edge is None else [
            _ray_meets_line(d, rel[edge - 1], rel[edge]) for d in (d1, d2)]
        for p in hits:
            if not pts or pts[-1] != p:
                pts.append(p)

    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    # drop collinear middle vertices (neighbors taken from the raw cycle,
    # which is correct for collinear runs along a single line); with every
    # hw > 0 the determinant has the sign of orient
    kept = [q for p, q, r in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])
            if p[0] * (q[1] * r[2] - r[1] * q[2])
            - p[1] * (q[0] * r[2] - r[0] * q[2])
            + p[2] * (q[0] * r[1] - r[0] * q[1])]
    if len(kept) < 3:
        raise GeometryError("degenerate visibility region")

    # a boundary edge is a window unless one polygon edge holds both ends
    on = [_edges_through(rel, p) for p in kept]
    nb = len(kept)
    windows = tuple(i for i in range(nb) if not on[i] & on[(i + 1) % nb])
    boundary = tuple(Point(Fraction(X * hw + hx, w * hw),
                           Fraction(Y * hw + hy, w * hw))
                     for hx, hy, hw in kept)
    return VisibilityPolygon(boundary=boundary, window_edges=windows)


def visible_subsegments(m: PolygonModel, g: Point, u: Point,
                        v: Point) -> List[Segment]:
    """The maximal closed sub-segments of the polygon edge uv visible from
    g, oriented from u to v.

    Vis(g) lies in P and uv on its boundary, so the visible part of uv is
    where uv meets the boundary of Vis(g): the boundary edges of
    ``visibility_polygon(m, g)``, window chords included, that lie on uv's
    line, clipped to uv.  P has no holes, so if g sees two points of uv it
    sees the triangle they span with g: the visible part is one segment or
    nothing.  Raises ValueError when uv is not an edge of P.
    """
    edges = m.edges()
    if (u, v) not in edges and (v, u) not in edges:
        raise ValueError(f"{u}-{v} is not an edge of the polygon")
    d = v - u
    dd = dot(d, d)
    runs = []
    for p, q in visibility_polygon(m, g).edges():
        if cross(d, p - u) == 0 and cross(d, q - u) == 0:
            t0, t1 = sorted((dot(p - u, d) / dd, dot(q - u, d) / dd))
            t0, t1 = max(t0, 0), min(t1, 1)
            if t0 < t1:
                runs.append((t0, t1))
    if not runs:
        return []
    lo = min(t0 for t0, _ in runs)
    hi = max(t1 for _, t1 in runs)
    return [Segment(u + d.scaled(lo), u + d.scaled(hi))]
