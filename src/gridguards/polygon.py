"""Validated simple-polygon model with structural queries.

``load_polygon``, the model's only constructor, rescales rational inputs
by the lcm of their denominators and keeps the integer vertices as ``xs``
and ``ys``; it validates on them, simplicity by ``first_crossing``, the
scan the random generator's untangling shares.  The structural queries
work on the same integers: reflex vertices, opposite pairs and the ear
clipping of ``triangulate`` turn by ``_turn``, the extension lines are
canonical integer triples (A, B, C), and ``line_meets`` gives their
meeting points as reduced homogeneous triples, for the general-position
check here and for the distance bounds.  Membership has one even-odd
loop, ``_in_int_cycle``, which tests a point (px / d, py / d) against an
integer cycle and scales the cycle by d as it reads it; it serves P, with
the query's own denominator, and every visibility polygon
(``VisibilityPolygon.holds``).  The derived constant L = 20 * M,
where M is the largest coordinate, drives every distance bound
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .geometry import Point, cleared, pt


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
    """Simple polygon with positive integer vertices in counterclockwise
    order; ``xs`` and ``ys`` are the vertices' coordinates as ints."""

    vertices: Tuple[Point, ...]
    xs: Tuple[int, ...]
    ys: Tuple[int, ...]
    M: int
    L: int

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> List[Tuple[Point, Point]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def scaled(self, d: int) -> Tuple[Sequence[int], Sequence[int]]:
        """The vertex coordinates times d, a query's denominator."""
        if d == 1:
            return self.xs, self.ys
        return [x * d for x in self.xs], [y * d for y in self.ys]


@dataclass(frozen=True)
class OppositeReflexPair:
    """Reflex pair whose incident edges lie strictly on opposite sides of their line."""

    r1: int
    r2: int


def _turn(xs: Sequence[int], ys: Sequence[int], i: int, j: int,
          k: int) -> int:
    """``orient`` of the vertices i, j and k of an integer cycle: +1 for a
    left turn, -1 for a right turn, 0 when collinear."""
    c = ((xs[j] - xs[i]) * (ys[k] - ys[i])
         - (ys[j] - ys[i]) * (xs[k] - xs[i]))
    return (c > 0) - (c < 0)


def _segments_meet(xs: Sequence[int], ys: Sequence[int], a: int, b: int,
                   c: int, d: int) -> bool:
    """True iff the closed segments v_a v_b and v_c v_d share a point: they
    cross properly, or an end of one lies on the other."""
    o1, o2 = _turn(xs, ys, a, b, c), _turn(xs, ys, a, b, d)
    o3, o4 = _turn(xs, ys, c, d, a), _turn(xs, ys, c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    # an end p on the line of segment ef lies on it iff it is in its box
    return any(o == 0 and min(xs[e], xs[f]) <= xs[p] <= max(xs[e], xs[f])
               and min(ys[e], ys[f]) <= ys[p] <= max(ys[e], ys[f])
               for o, p, e, f in ((o1, c, a, b), (o2, d, a, b),
                                  (o3, a, c, d), (o4, b, c, d)))


def first_crossing(xs: Sequence[int],
                   ys: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i < j, of non-adjacent edges of the integer
    cycle that share a point, scanning i and then j upward, or None when
    the cycle is simple.  Edge i runs from vertex i to vertex i + 1."""
    n = len(xs)
    for i in range(n):
        # edge n - 1 is adjacent to edge 0
        for j in range(i + 2, n - 1 if i == 0 else n):
            if _segments_meet(xs, ys, i, (i + 1) % n, j, (j + 1) % n):
                return i, j
    return None


def load_polygon(vertex_list: Sequence) -> PolygonModel:
    """Validate and normalize a polygon from raw coordinate pairs or Points."""
    raw = [v if isinstance(v, Point) else pt(v[0], v[1]) for v in vertex_list]
    if len(raw) < 3:
        raise PolygonError("polygon needs at least 3 vertices")

    _, cs = cleared(*[c for v in raw for c in (v.x, v.y)])
    xs, ys = cs[0::2], cs[1::2]
    n = len(xs)

    for x, y in zip(xs, ys):
        if x <= 0 or y <= 0:
            raise NonPositiveCoordinates(
                f"vertex {Point(x, y)} not strictly positive")
    if len(set(zip(xs, ys))) != n:
        raise DuplicateVertex("repeated vertex coordinates")

    for i in range(n):
        if _turn(xs, ys, i - 1, i, (i + 1) % n) == 0:
            raise CollinearTripleConsecutive(
                f"consecutive vertices around index {i} are collinear")

    crossing = first_crossing(xs, ys)
    if crossing is not None:
        raise NotSimple("edges %d and %d intersect" % crossing)

    # twice the signed (shoelace) area is negative for a clockwise cycle
    if sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(n)) < 0:
        xs.reverse()
        ys.reverse()

    M = max(max(xs), max(ys))
    return PolygonModel(vertices=tuple(map(Point, xs, ys)), xs=tuple(xs),
                        ys=tuple(ys), M=M, L=20 * M)


def point_in_polygon(m: PolygonModel, p: Point) -> bool:
    """Closed-polygon membership: boundary points count as inside."""
    d, (px, py) = cleared(p.x, p.y)
    return _in_int_cycle(m.xs, m.ys, px, py, d)


def _in_int_cycle(xs: Sequence[int], ys: Sequence[int], px: int, py: int,
                  d: int) -> bool:
    """Membership of (px / d, py / d), d > 0, in the closed simple polygon
    with these integer vertices; boundary points count as inside.

    Exact even-odd ray casting with the half-open vertex rule, on the
    vertices scaled by d as the loop reads them: no epsilon, no
    perturbation of inputs.
    """
    inside = False
    ax, ay = xs[-1] * d, ys[-1] * d
    for bx, by in zip(xs, ys):
        bx, by = bx * d, by * d
        # c = (a - p) x (b - a): zero iff p is on the line of edge ab
        c = (ax - px) * (by - ay) - (ay - py) * (bx - ax)
        if (c == 0 and min(ax, bx) <= px <= max(ax, bx)
                and min(ay, by) <= py <= max(ay, by)):
            return True
        if (ay > py) != (by > py) and (c > 0) == (by > ay):
            # the edge crosses the horizontal through p right of p
            inside = not inside
        ax, ay = bx, by
    return inside


def segment_in_polygon(m: PolygonModel, a: Point, b: Point) -> bool:
    """True iff the closed segment ab lies entirely in the closed polygon."""
    try:
        return _segment_inside(m, a, b)
    except PointOutsidePolygon:
        return False


def _segment_inside(m: PolygonModel, a: Point, b: Point) -> bool:
    """True iff the closed segment ab lies in the closed polygon; raises
    PointOutsidePolygon naming the first endpoint outside it.

    a and b are scaled once to integers, and the vertices by the same
    denominator.  Every point where ab meets an edge is a + t (b - a) with
    t an integer ratio; between consecutive such t the segment is either
    inside or outside, so it stays in P iff every gap's midpoint does.
    With all t over one common denominator q, each midpoint is an integer
    point over 2 q.
    """
    d, (ox, oy, bx, by) = cleared(a.x, a.y, b.x, b.y)
    xs, ys = m.scaled(d)
    for p, px, py in ((a, ox, oy), (b, bx, by)):
        if not _in_int_cycle(xs, ys, px, py, 1):
            raise PointOutsidePolygon(f"{p} outside polygon")
    dx, dy = bx - ox, by - oy
    if not (dx or dy):
        return True
    ts = [(0, 1), (1, 1)]   # (numerator, denominator) of each t in [0, 1]
    fx, fy = xs[-1] - ox, ys[-1] - oy
    for gx, gy in zip(xs, ys):
        gx, gy = gx - ox, gy - oy   # the edge f -> g, relative to a
        ex, ey = gx - fx, gy - fy
        den = dx * ey - dy * ex
        # a parallel edge adds nothing: no two consecutive edges are
        # collinear, so the edges on either side of a collinear one cross
        # the segment's line at its ends and add those parameters
        if den:
            tn, un = fx * ey - fy * ex, fx * dy - fy * dx
            if den < 0:
                den, tn, un = -den, -tn, -un
            if 0 <= tn <= den and 0 <= un <= den:
                ts.append((tn, den))
        fx, fy = gx, gy
    q = lcm(*[t // gcd(n, t) for n, t in ts])
    ns = sorted({n * q // t for n, t in ts})
    w = 2 * q
    return all(_in_int_cycle(xs, ys, w * ox + (n0 + n1) * dx,
                             w * oy + (n0 + n1) * dy, w)
               for n0, n1 in zip(ns, ns[1:]))


def reflex_vertices(m: PolygonModel) -> List[int]:
    """Indices of vertices whose interior angle exceeds pi."""
    n = m.n
    return [i for i in range(n)
            if _turn(m.xs, m.ys, i - 1, i, (i + 1) % n) < 0]


Line = Tuple[int, int, int]


def extensions(m: PolygonModel) -> List[Line]:
    """The distinct lines through pairs of vertices, as canonical integer
    (A, B, C) of A x + B y = C: the gcd of the three is 1, and A > 0, or
    A = 0 and B > 0.  In the order of each line's first vertex pair."""
    xs, ys, n = m.xs, m.ys, m.n
    lines: Dict[Line, None] = {}
    for i in range(n):
        for j in range(i + 1, n):
            A, B = ys[j] - ys[i], xs[i] - xs[j]
            C = A * xs[i] + B * ys[i]
            g = gcd(A, B, C)
            if A < 0 or (A == 0 and B < 0):
                g = -g
            lines.setdefault((A // g, B // g, C // g))
    return list(lines)


def line_meets(lines: Sequence[Line]) -> Dict[Line, Set[int]]:
    """Where the integer lines meet, with the indices of the lines through
    each meeting point.

    Each point is the reduced homogeneous triple (X, Y, W), the exact
    rational (X / W, Y / W) with W > 0 and gcd 1, in the order of the
    first pair of lines that meets there; parallel lines meet nowhere.
    """
    meets: Dict[Line, Set[int]] = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            w = a1 * b2 - a2 * b1
            if w == 0:
                continue
            x = c1 * b2 - c2 * b1
            y = a1 * c2 - a2 * c1
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(x, y, w)
            meets.setdefault((x // g, y // g, w // g), set()).update((i, j))
    return meets


def opposite_reflex_pairs(m: PolygonModel) -> List[OppositeReflexPair]:
    """Reflex pairs with incident edges strictly on opposite sides of their line
    and the connecting segment inside the polygon."""
    refl = reflex_vertices(m)
    out: List[OppositeReflexPair] = []
    n, xs, ys = m.n, m.xs, m.ys
    for ii, i in enumerate(refl):
        for j in refl[ii + 1:]:
            # the sides of the line from vertex i to vertex j
            side_i = {_turn(xs, ys, i, j, i - 1),
                      _turn(xs, ys, i, j, (i + 1) % n)}
            side_j = {_turn(xs, ys, i, j, j - 1),
                      _turn(xs, ys, i, j, (j + 1) % n)}
            if 0 in side_i or 0 in side_j:
                continue
            if len(side_i) != 1 or len(side_j) != 1 or side_i == side_j:
                continue
            if not segment_in_polygon(m, m.vertices[i], m.vertices[j]):
                continue
            out.append(OppositeReflexPair(r1=i, r2=j))
    return out


@dataclass
class GeneralPositionReport:
    collinear_triples: List[Tuple[int, int, int]] = field(default_factory=list)
    concurrent_extension_triples: List[Tuple[Point, Tuple]] = field(
        default_factory=list)


def check_general_position(m: PolygonModel) -> GeneralPositionReport:
    """Report collinear vertex triples and extension triples concurrent at a
    non-vertex point of the polygon."""
    report = GeneralPositionReport()
    xs, ys, n = m.xs, m.ys, m.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if _turn(xs, ys, i, j, k) == 0:
                    report.collinear_triples.append((i, j, k))

    vertex_set = set(zip(xs, ys))
    for (x, y, w), idxs in line_meets(extensions(m)).items():
        # a vertex is an integer point: W = 1
        if len(idxs) < 3 or (w == 1 and (x, y) in vertex_set):
            continue
        if _in_int_cycle(xs, ys, x, y, w):
            report.concurrent_extension_triples.append(
                (Point(Fraction(x, w), Fraction(y, w)), tuple(sorted(idxs))))
    return report


def triangulate(m: PolygonModel) -> List[Tuple[Point, Point, Point]]:
    """Ear-clipping triangulation on the vertex indices: each pass clips
    the first convex corner whose closed triangle holds no other vertex
    left."""
    vs, xs, ys = m.vertices, m.xs, m.ys
    left = list(range(m.n))
    tris: List[Tuple[Point, Point, Point]] = []
    while len(left) > 3:
        k = len(left)
        for i in range(k):
            a, b, c = left[i - 1], left[i], left[(i + 1) % k]
            if _turn(xs, ys, a, b, c) > 0 and not any(
                    _turn(xs, ys, a, b, q) >= 0 and _turn(xs, ys, b, c, q) >= 0
                    and _turn(xs, ys, c, a, q) >= 0
                    for q in left if q not in (a, b, c)):
                tris.append((vs[a], vs[b], vs[c]))
                del left[i]
                break
        else:
            raise PolygonError("no ear found; polygon not simple?")
    a, b, c = left
    tris.append((vs[a], vs[b], vs[c]))
    return tris
