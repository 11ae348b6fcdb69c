"""Slope-s bad regions around opposite reflex pairs.

A bad region of a pair (r1, r2) is the union of two open convex wedges, one
per reflex vertex, opening outward along the supporting line ell(r1, r2)
with angular half-width of slope s on both sides of the line.  Embiggened
regions move each apex inward along seg(r1, r2) so the wedges also cover a
neighborhood of the reflex vertices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import List, Tuple

from .geometry import (
    DirectedLine,
    Point,
    Scalar,
    clip_convex_by_halfplane,
    convex_intersection,
    cross,
    dot,
    polygon_area,
    pt,
)
from .polygon import (
    OppositeReflexPair,
    PointOutsidePolygon,
    PolygonModel,
    opposite_reflex_pairs,
    point_in_polygon,
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

    def contains(self, x: Point) -> bool:
        w = x - self.apex
        along = dot(self.outward, w)
        if along <= 0:
            return False
        # |cross| / |d| < s * along / |d|  simplifies to  |cross| < s * along
        return abs(cross(self.outward, w)) < self.s * along


@dataclass(frozen=True)
class BadRegion:
    model: PolygonModel
    pair: OppositeReflexPair
    wedges: Tuple[Wedge, Wedge]
    apex_offsets: Tuple[Point, Point]


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
                     apex_offsets=(a1, a2))


def in_bad_region(region: BadRegion, x: Point) -> bool:
    """Exact open membership of x (inside P) in either wedge."""
    if not point_in_polygon(region.model, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    return any(w.contains(x) for w in region.wedges)


@dataclass
class TripleIntersectionReport:
    pair_count: int
    triples: List[Tuple[int, int, int]] = field(default_factory=list)


def _wedge_halfplanes(w: Wedge) -> List[Tuple[DirectedLine, int]]:
    """Two half-planes whose open intersection is the wedge."""
    d = w.outward
    # boundary directions of the cone: d rotated by +/- atan(s)
    up = Point(d.x - w.s * d.y, d.y + w.s * d.x)
    dn = Point(d.x + w.s * d.y, d.y - w.s * d.x)
    # keep strictly left of (apex -> apex+dn) and strictly right of up
    return [(DirectedLine(w.apex, w.apex + dn), +1),
            (DirectedLine(w.apex, w.apex + up), -1)]


def _wedge_clip_box(m: PolygonModel, w: Wedge) -> List[Point]:
    x0, y0, x1, y1 = min(m.xs), min(m.ys), max(m.xs), max(m.ys)
    box = [pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)]
    poly = box
    for ell, side in _wedge_halfplanes(w):
        poly = clip_convex_by_halfplane(poly, ell, side)
        if len(poly) < 3:
            return []
    return poly


def _wedges_overlap_interior(m: PolygonModel, ws: List[Wedge],
                             tris) -> bool:
    """True iff the open wedges and the interior of P share a point.

    The closed clipped intersection has positive area iff the open one is
    nonempty, so closed clipping plus an area test decides exactly.
    """
    poly = _wedge_clip_box(m, ws[0])
    for w in ws[1:]:
        if len(poly) < 3:
            return False
        for ell, side in _wedge_halfplanes(w):
            poly = clip_convex_by_halfplane(poly, ell, side)
    if len(poly) < 3:
        return False
    for tri in tris:
        inter = convex_intersection(poly, list(tri))
        if inter and polygon_area(inter) > 0:
            return True
    return False


def check_no_triple_intersection(m: PolygonModel,
                                 s: Scalar) -> TripleIntersectionReport:
    """Search for an interior point shared by three distinct s-bad regions."""
    pairs = opposite_reflex_pairs(m)
    regions = [bad_region(m, p, s) for p in pairs]
    report = TripleIntersectionReport(pair_count=len(pairs))
    if len(regions) < 3:
        return report
    tris = triangulate(m)
    k = len(regions)
    for i, j, l in combinations(range(k), 3):
        found = False
        for wi, wj, wl in product(regions[i].wedges, regions[j].wedges,
                                  regions[l].wedges):
            if _wedges_overlap_interior(m, [wi, wj, wl], tris):
                found = True
                break
        if found:
            report.triples.append((i, j, l))
    return report
