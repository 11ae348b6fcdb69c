"""Exact visibility: segment tests, visibility polygons, visible sub-segments.

Visibility is closed: a segment that grazes the boundary still counts, since
the whole pipeline reasons about closed regions.  The visibility polygon is
computed by an angular sweep over wedges between consecutive critical
directions: the directions from the viewpoint to the vertices, plus (1, 0)
where the boundary starts.  The blocking edge changes only at a vertex
direction, so inside each open wedge it is constant and one exact mid-ray
shot per wedge finds it; a gap of pi or more, which has no mid-ray, is split
by quarter turns.  A viewpoint on the boundary decides a wedge that leaves P
at once by the cone of P at the viewpoint, without a shot.  Each boundary
point is where a wedge's edge meets its bounding ray, so it lies on that
edge, and on the neighbouring edge too when it is the edge's end vertex; a
boundary edge is a window chord unless one polygon edge holds both its ends.
The polygon is kept in the viewpoint's integer frame, as reduced triples,
cleared once over the lcm of their denominators when first used, and
membership, the overlay and the visible part of a polygon edge are read
off them: the module builds no boundary Point.  Membership (``holds``)
moves the query point into that frame and runs P's own even-odd loop,
``polygon._in_int_cycle``, on the cleared boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    GeometryError,
    IntSegment,
    Point,
    Segment,
    Triple,
    cleared,
    sort_directions_ccw,
)
from .polygon import (
    PointOutsidePolygon,
    PolygonModel,
    _in_int_cycle,
    _segment_inside,
)


@dataclass(frozen=True)
class VisibilityPolygon:
    """Star-shaped region visible from one point x = (X / w, Y / w).

    ``triples`` are its boundary points p, counterclockwise, each as the
    reduced triple (hx, hy, hw) with hw > 0 of w * (p - x) = (hx / hw,
    hy / hw); boundary edge i runs from point i to point i + 1, and
    ``window_edges`` are the indices of the window chords among them.
    """

    w: int
    X: int
    Y: int
    triples: Tuple[Triple, ...]
    window_edges: Tuple[int, ...]

    @cached_property
    def _cleared(self) -> Tuple[int, List[int], List[int]]:
        """(q, xs, ys): the boundary as the integer points (xs, ys) / q."""
        q = lcm(*[hw for _, _, hw in self.triples])
        return (q, [hx * (q // hw) for hx, _, hw in self.triples],
                [hy * (q // hw) for _, hy, hw in self.triples])

    def holds(self, px: int, py: int, d: int) -> bool:
        """Whether (px / d, py / d), d > 0, lies in the closed polygon:
        ``polygon._in_int_cycle`` on the cleared boundary, with the point
        in the polygon's frame over q d."""
        q, xs, ys = self._cleared
        return _in_int_cycle(xs, ys, (self.w * px - self.X * d) * q,
                             (self.w * py - self.Y * d) * q, d)


def sees(m: PolygonModel, x: Point, y: Point) -> bool:
    """True iff the closed segment xy stays inside the closed polygon.

    Raises PointOutsidePolygon when x, or else y, lies outside it.
    """
    return _segment_inside(m, x, y)


def overlay_segments(m: PolygonModel, polygons: Sequence[VisibilityPolygon]
                     ) -> Tuple[List[IntSegment], int]:
    """Polygon edges plus every window chord of every visibility polygon,
    as (segments, s), their ends over the lcm s of the chord ends' reduced
    denominators."""
    ends: List[Triple] = []     # the chord ends' absolute triples
    for vp in polygons:
        tri = vp.triples + vp.triples[:1]
        for hx, hy, hw in (t for i in vp.window_edges for t in tri[i:i + 2]):
            x, y, d = vp.X * hw + hx, vp.Y * hw + hy, vp.w * hw
            g = gcd(x, y, d)
            ends.append((x // g, y // g, d // g))
    s = lcm(*[d for _, _, d in ends])
    xs, ys = m.scaled(s)
    pts = iter([(x * (s // d), y * (s // d)) for x, y, d in ends])
    return (list(zip(zip(xs, ys), zip(xs[1:] + xs[:1], ys[1:] + ys[:1])))
            + list(zip(pts, pts)), s)


# An edge record (i, ax, ay, bx, by, c): edge i runs from vertex i - 1 to
# vertex i, at w * (vertex - x) = (ax, ay) and (bx, by), and
# c = (ax, ay) x (bx, by) is not 0: the edge's line misses x.
EdgeRecord = Tuple[int, int, int, int, int, int]
# The cone of P at a boundary viewpoint x: (nx, ny) and (px, py) point from
# x along the boundary forwards and backwards, and P near x is the
# counterclockwise angle from the first to the second, reflex or not.
Cone = Tuple[int, int, int, int, bool]


def _blocking_edge(edges: Sequence[EdgeRecord], cone: Optional[Cone],
                   mx: int, my: int) -> Optional[EdgeRecord]:
    """The edge through which the ray from x in direction (mx, my) leaves
    P, or None when it leaves P at x itself.

    The ray passes through no vertex.  If x is on the boundary, the ray
    leaves at x exactly when it starts outside the cone of P at x.  Else it
    meets edges only transversally at interior points, and the first such
    hit is where it leaves P; an edge whose line holds x is met, if at
    all, only at x or along a vertex direction, so ``edges`` leaves it out.
    """
    if cone is not None:
        nx, ny, px, py, reflex = cone
        after, before = nx * my - ny * mx > 0, mx * py - my * px > 0
        if not (after or before if reflex else after and before):
            return None
    best = None
    best_n = best_d = 0      # the hit's ray parameter is best_n / best_d
    tie = False
    for e in edges:
        _, ax, ay, bx, by, c = e
        # the ray meets the closed edge iff it lies in the angle the edge
        # spans from x, which is less than pi and turns with the sign of c
        ua, ub = ax * my - ay * mx, mx * by - my * bx
        if c > 0:
            if ua < 0 or ub < 0:
                continue
            sn, sd = c, ua + ub
        else:
            if ua > 0 or ub > 0:
                continue
            sn, sd = -c, -ua - ub
        if best is None or sn * best_d < best_n * sd:
            best, best_n, best_d, tie = e, sn, sd, False
        elif sn * best_d == best_n * sd:
            tie = True
    if best is None:
        raise GeometryError("ray from inside the polygon meets no edge")
    if tie:
        raise GeometryError("ambiguous blocking edge; mid-ray hit a vertex")
    return best


def _hit(d: Tuple[int, int], e: EdgeRecord) -> Triple:
    """Where the ray from x in the primitive direction d meets the line of
    edge e, to which it is not parallel, as a reduced triple."""
    dx, dy = d
    _, ax, ay, bx, by, c = e
    den = dx * (by - ay) - dy * (bx - ax)
    g = gcd(c, den) if den > 0 else -gcd(c, den)  # d primitive: reduces
    return (dx * c // g, dy * c // g, den // g)


def visibility_polygon(m: PolygonModel, x: Point) -> VisibilityPolygon:
    """Exact visibility polygon of x inside the closed polygon."""
    # x and the vertices scaled to integers; rel[i] = w * (vertex i - x)
    w, (X, Y) = cleared(x.x, x.y)
    xs, ys = m.scaled(w)
    if not _in_int_cycle(xs, ys, X, Y, 1):
        raise PointOutsidePolygon(f"{x} outside polygon")
    rel = [(vx - X, vy - Y) for vx, vy in zip(xs, ys)]
    n = len(rel)

    dirs = {(1, 0)}
    edges: List[EdgeRecord] = []
    cone: Optional[Cone] = None
    on_x = 0                 # bitmask of the polygon edges that hold x
    ax, ay = rel[-1]
    for i, (bx, by) in enumerate(rel):
        if bx or by:
            g = gcd(bx, by)
            dirs.add((bx // g, by // g))
        else:                # x is vertex i, on edges i and i + 1
            on_x = 1 << i | 1 << (i + 1) % n
            (nx, ny), (px, py) = rel[(i + 1) % n], rel[i - 1]
            cone = (nx, ny, px, py, nx * py - ny * px < 0)
        c = ax * by - ay * bx
        if c:
            edges.append((i, ax, ay, bx, by, c))
        elif ax * bx + ay * by < 0:      # x lies inside edge i
            on_x = 1 << i
            cone = (bx, by, ax, ay, False)
        ax, ay = bx, by

    rays = []
    order = sort_directions_ccw(dirs)
    for d1, d2 in zip(order, order[1:] + order[:1]):
        rays.append(d1)
        while d1[0] * d2[1] - d1[1] * d2[0] <= 0:    # a gap of pi or more
            d1 = (-d1[1], d1[0])
            rays.append(d1)

    # the boundary as triples of w * (point - x), x itself being (0, 0, 1),
    # each with the bitmask of the polygon edges that hold it
    pts: List[Triple] = []
    on: List[int] = []
    prev = None
    for d1, d2 in zip(rays, rays[1:] + rays[:1]):
        e = _blocking_edge(edges, cone, d1[0] + d2[0], d1[1] + d2[1])
        if e is None:
            hits = [((0, 0, 1), on_x)]
        else:
            # a hit on d1 along the previous wedge's edge is already there
            i, ax, ay, bx, by, _ = e
            hits = []
            for d in (d2,) if e is prev else (d1, d2):
                p = _hit(d, e)
                mask = 1 << i
                if p == (ax, ay, 1):
                    mask |= 1 << (i - 1) % n
                elif p == (bx, by, 1):
                    mask |= 1 << (i + 1) % n
                hits.append((p, mask))
        prev = e
        for p, mask in hits:
            if not pts or pts[-1] != p:
                pts.append(p)
                on.append(mask)

    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
        on.pop()
    # drop collinear middle vertices (neighbors taken from the raw cycle,
    # which is correct for collinear runs along a single line); with every
    # hw > 0 the determinant has the sign of orient
    keep = [k for k, (p, q, r) in enumerate(zip(pts[-1:] + pts[:-1], pts,
                                                pts[1:] + pts[:1]))
            if p[0] * (q[1] * r[2] - r[1] * q[2])
            - p[1] * (q[0] * r[2] - r[0] * q[2])
            + p[2] * (q[0] * r[1] - r[0] * q[1])]
    nb = len(keep)
    if nb < 3:
        raise GeometryError("degenerate visibility region")
    # a boundary edge is a window unless one polygon edge holds both ends
    windows = tuple(j for j in range(nb)
                    if not on[keep[j]] & on[keep[(j + 1) % nb]])
    return VisibilityPolygon(w=w, X=X, Y=Y,
                             triples=tuple(pts[k] for k in keep),
                             window_edges=windows)


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

    The test runs in the polygon's frame: u is a vertex, so w * (u - g) is
    an integer point, and the boundary points come over the lcm q of their
    denominators; a point's parameter along uv is then an integer over
    q * w * |v - u|^2.  Points are built only for the returned segment.
    """
    edges = m.edges()
    if (u, v) not in edges and (v, u) not in edges:
        raise ValueError(f"{u}-{v} is not an edge of the polygon")
    vp = visibility_polygon(m, g)
    w = vp.w
    q, xs, ys = vp._cleared
    ux, uy = (int(u.x) * w - vp.X) * q, (int(u.y) * w - vp.Y) * q
    dx, dy = int(v.x - u.x), int(v.y - u.y)
    # each boundary point's parameter along uv, None off uv's line
    ts = [(x - ux) * dx + (y - uy) * dy if dx * (y - uy) == dy * (x - ux)
          else None for x, y in zip(xs, ys)]
    top = q * w * (dx * dx + dy * dy)       # the parameter of v
    runs = [(max(min(s, t), 0), min(max(s, t), top))
            for s, t in zip(ts, ts[1:] + ts[:1])
            if s is not None and t is not None]
    runs = [(s, t) for s, t in runs if s < t]
    if not runs:
        return []
    d = v - u
    return [Segment(u + d.scaled(Fraction(min(s for s, _ in runs), top)),
                    u + d.scaled(Fraction(max(t for _, t in runs), top)))]
