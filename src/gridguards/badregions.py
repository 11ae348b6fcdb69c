"""Slope-s bad regions around opposite reflex pairs.

A bad region of a pair (r1, r2) is the union of two open convex wedges, one
per reflex vertex, opening outward along the supporting line ell(r1, r2)
with angular half-width of slope s on both sides of the line.  Embiggened
regions move each apex inward along seg(r1, r2) so the wedges also cover a
neighborhood of the reflex vertices themselves.

Every decision is on integers: each wedge boundary and each triangle edge
is a closed half-plane a X + b Y + c W >= 0 with integer coefficients,
cleared from the rational apex, direction and slope.  A region builds its
wedges' half-planes once.  Membership clears the point once to (X, Y) / W
and tests it against P and against both half-planes of each wedge with
strict inequalities: a wedge's angle 2 atan(s) is below pi, so the two
open half-planes meet in exactly the open wedge.  The overlap check and
the drawn outline clip the polygon's bounding box with one
Sutherland-Hodgman routine on reduced homogeneous triples (X, Y, W),
W > 0.  Points are built only for a returned outline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import List, Tuple

from .geometry import Point, Scalar, Triple, cleared
from .polygon import (
    OppositeReflexPair,
    PointOutsidePolygon,
    PolygonModel,
    _in_int_cycle,
    opposite_reflex_pairs,
    triangulate,
)


@dataclass(frozen=True)
class Wedge:
    """Open cone {x : along > 0 and |perp| < s * along} measured from apex.

    ``outward`` points from the pair's other vertex toward this wedge's
    reflex vertex, i.e. away from the segment seg(r1, r2).
    """

    apex: Point
    outward: Point
    s: Scalar


@dataclass(frozen=True)
class BadRegion:
    model: PolygonModel
    pair: OppositeReflexPair
    wedges: Tuple[Wedge, Wedge]
    apex_offsets: Tuple[Point, Point]
    # each wedge's two half-planes (``_wedge_halfplanes``)
    halfplanes: Tuple[List[HalfPlane], List[HalfPlane]]


def _offset_apex(r_i: Point, r_j: Point, dist_bound: Scalar) -> Point:
    """Point on seg(r_i, r_j) near r_i at distance in [bound/sqrt2, bound].

    Rational surrogate for the exact-distance point: the step along the
    segment is dist_bound / (|dx| + |dy|), which bounds the Euclidean norm
    between bound/sqrt(2) and bound.
    """
    d = r_j - r_i
    t = dist_bound / (abs(d.x) + abs(d.y))
    return r_i + d.scaled(t)


def bad_region(m: PolygonModel, pair: OppositeReflexPair, s: Scalar,
               embiggened: bool = False) -> BadRegion:
    """Construct the (embiggened) s-bad region of an opposite reflex pair."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("slope must be positive")
    r1 = m.vertices[pair.r1]
    r2 = m.vertices[pair.r2]
    inv_l2 = Fraction(1, m.L) ** 2
    if embiggened:
        a1 = _offset_apex(r1, r2, inv_l2)
        a2 = _offset_apex(r2, r1, inv_l2)
    else:
        a1, a2 = r1, r2
    w1 = Wedge(apex=a1, outward=r1 - r2, s=s)
    w2 = Wedge(apex=a2, outward=r2 - r1, s=s)
    return BadRegion(model=m, pair=pair, wedges=(w1, w2),
                     apex_offsets=(a1, a2),
                     halfplanes=(_wedge_halfplanes(w1), _wedge_halfplanes(w2)))


def in_bad_region(region: BadRegion, x: Point) -> bool:
    """Exact open membership of x (inside P) in either wedge: x lies
    strictly inside both half-planes of one."""
    d, (X, Y) = cleared(x.x, x.y)
    m = region.model
    if not _in_int_cycle(m.xs, m.ys, X, Y, d):
        raise PointOutsidePolygon(f"{x} outside polygon")
    return any(a * X + b * Y + c * d > 0 and e * X + f * Y + g * d > 0
               for (a, b, c), (e, f, g) in region.halfplanes)


@dataclass
class TripleIntersectionReport:
    pair_count: int
    triples: List[Tuple[int, int, int]] = field(default_factory=list)


# a closed half-plane a X + b Y + c W >= 0 of the points (X / W, Y / W)
HalfPlane = Tuple[int, int, int]


def _left_of(ax: int, ay: int, aw: int, dx: int, dy: int) -> HalfPlane:
    """The closed half-plane left of the line through (ax / aw, ay / aw)
    with direction (dx, dy); aw > 0."""
    return (-dy * aw, dx * aw, dy * ax - dx * ay)


def _wedge_halfplanes(w: Wedge) -> List[HalfPlane]:
    """Two closed half-planes whose intersection is the wedge's closure:
    left of the boundary ray that turns the outward direction d clockwise
    by atan(s), and right of the one that turns it counterclockwise."""
    aw, (ax, ay) = cleared(w.apex.x, w.apex.y)
    _, (dx, dy) = cleared(w.outward.x, w.outward.y)
    p, q = w.s.numerator, w.s.denominator
    dn = _left_of(ax, ay, aw, q * dx + p * dy, q * dy - p * dx)
    a, b, c = _left_of(ax, ay, aw, q * dx - p * dy, q * dy + p * dx)
    return [dn, (-a, -b, -c)]


def _triangle_halfplanes(tri: Tuple[Point, Point, Point]) -> List[HalfPlane]:
    """The closed half-planes left of the triangle's three edges."""
    d, cs = cleared(*[c for v in tri for c in (v.x, v.y)])
    xs, ys = cs[0::2], cs[1::2]
    return [_left_of(xs[i - 1], ys[i - 1], d, xs[i] - xs[i - 1],
                     ys[i] - ys[i - 1]) for i in (1, 2, 0)]


def _clip(poly: List[Triple], hs: List[HalfPlane]) -> List[Triple]:
    """Sutherland-Hodgman: the strictly convex polygon cut by each closed
    half-plane in turn; [] as soon as fewer than three vertices are left.

    A cut keeps the polygon strictly convex: a crossing lies inside an
    edge whose ends are off the line, so it repeats no vertex and is not
    collinear with its two neighbours.  Three vertices or more therefore
    always enclose positive area.
    """
    for a, b, c in hs:
        if len(poly) < 3:
            return []
        vals = [a * X + b * Y + c * W for X, Y, W in poly]
        out: List[Triple] = []
        n = len(poly)
        for i in range(n):
            v, v2 = vals[i], vals[(i + 1) % n]
            if v >= 0:
                out.append(poly[i])
            if v * v2 < 0:
                out.append(_crossing(poly[i], v, poly[(i + 1) % n], v2))
        poly = out
    return poly if len(poly) >= 3 else []


def _crossing(t1: Triple, v1: int, t2: Triple, v2: int) -> Triple:
    """Where the segment from t1 to t2 crosses the line of a half-plane on
    which they take the values v1 and v2 of opposite signs."""
    X, Y, W = (v1 * b - v2 * a for a, b in zip(t1, t2))
    if W < 0:
        X, Y, W = -X, -Y, -W
    g = gcd(X, Y, W)
    return X // g, Y // g, W // g


def _box(m: PolygonModel) -> List[Triple]:
    x0, y0, x1, y1 = min(m.xs), min(m.ys), max(m.xs), max(m.ys)
    return [(x0, y0, 1), (x1, y0, 1), (x1, y1, 1), (x0, y1, 1)]


def wedge_outline(m: PolygonModel, w: Wedge) -> List[Point]:
    """The closed wedge cut to the polygon's bounding box, in clipping
    order, or [] when fewer than three vertices are left."""
    return [Point(Fraction(X, W), Fraction(Y, W))
            for X, Y, W in _clip(_box(m), _wedge_halfplanes(w))]


def _wedges_overlap_interior(box: List[Triple], hs: List[HalfPlane],
                             tris: List[List[HalfPlane]]) -> bool:
    """True iff the open wedges of the half-planes ``hs`` and the interior
    of P share a point.

    The closed intersection has positive area iff the open one is
    nonempty, and a clip with vertices left has positive area, so closed
    clipping decides exactly.
    """
    poly = _clip(box, hs)
    return any(_clip(poly, t) for t in tris)


def check_no_triple_intersection(m: PolygonModel,
                                 s: Scalar) -> TripleIntersectionReport:
    """Search for an interior point shared by three distinct s-bad regions."""
    pairs = opposite_reflex_pairs(m)
    regions = [bad_region(m, p, s) for p in pairs]
    report = TripleIntersectionReport(pair_count=len(pairs))
    if len(regions) < 3:
        return report
    box = _box(m)
    tris = [_triangle_halfplanes(t) for t in triangulate(m)]
    planes = [r.halfplanes for r in regions]
    for i, j, l in combinations(range(len(regions)), 3):
        if any(_wedges_overlap_interior(box, hi + hj + hl, tris)
               for hi, hj, hl in product(planes[i], planes[j], planes[l])):
            report.triples.append((i, j, l))
    return report
