"""Grid of width L^-E, rounding, surrounding grid points, guard replacement.

The grid is never enumerated: membership and rounding are arithmetic on
exact rationals.  ``grid_replacement`` turns an arbitrary covering guard set
into a nearby covering guard set supported on the grid plus a few reflex
vertices, with at most nine output guards per input guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import List, Optional, Sequence, Tuple, Union

from .badregions import bad_region, in_bad_region
from .geometry import Point, Scalar, dist_sq, pt, segments_intersect
from .polygon import (
    PointOutsidePolygon,
    PolygonModel,
    opposite_reflex_pairs,
    point_in_polygon,
)
from .visibility import overlay_segments, sees, visibility_polygon


class NoGridPointNearby(Exception):
    """No grid point inside the polygon within the search budget."""


class InputGuardOutsidePolygon(Exception):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Square grid of width L^-E anchored at the origin."""

    E: int
    L: int

    def __post_init__(self):
        if self.E < 1:
            raise ValueError("grid exponent must be >= 1")

    @property
    def w(self) -> Scalar:
        return Fraction(1, self.L ** self.E)

    def on_grid(self, p: Point) -> bool:
        w = self.w
        return (p.x / w).denominator == 1 and (p.y / w).denominator == 1


CASE_INTERIOR = "Interior"
CASE_BOUNDARY = "Boundary"
CASE_CORNER = "Corner"


@dataclass(frozen=True)
class SurroundingGrid:
    center: Point
    case: str
    points: Tuple[Point, ...]
    starred: Optional[Point]
    inscribed_triangle: Tuple[Point, Point, Point]

    def all_points(self) -> Tuple[Point, ...]:
        if self.starred is not None and self.starred not in self.points:
            return self.points + (self.starred,)
        return self.points


@dataclass(frozen=True)
class GuardSet:
    guards: Tuple[Point, ...]
    provenance: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.guards)


PROV_ORIGINAL = "Original"
PROV_ALPHA_GRID = "AlphaGrid"
PROV_STAR_VERTEX = "StarVertex"
PROV_BAD_REGION_VERTEX = "BadRegionVertex"
PROV_SOLVER_GREEDY = "SolverGreedy"


def guard_set(points: Sequence[Point], tag: str = PROV_ORIGINAL) -> GuardSet:
    return GuardSet(guards=tuple(points), provenance=(tag,) * len(points))


_RING_CAP = 64


def round_to_grid(spec: GridSpec, m: PolygonModel, x: Point) -> Point:
    """Nearest in-polygon grid point; ties take the lexicographic smallest.

    Searches the four cell corners first, then expanding rings of grid
    points, raising NoGridPointNearby past the ring budget.
    """
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    w = spec.w
    u = x.x / w
    v = x.y / w
    iu, iv = floor(u), floor(v)

    def grid_pt(i: int, j: int) -> Point:
        return Point(i * w, j * w)

    best: Optional[Tuple[Scalar, Tuple[Fraction, Fraction], Point]] = None

    def consider(i: int, j: int) -> None:
        nonlocal best
        g = grid_pt(i, j)
        if not point_in_polygon(m, g):
            return
        cand = (dist_sq(x, g), g.key(), g)
        if best is None or cand[:2] < best[:2]:
            best = cand

    for ring in range(_RING_CAP):
        lo_i, hi_i = iu - ring, iu + 1 + ring
        lo_j, hi_j = iv - ring, iv + 1 + ring
        if ring == 0:
            cells = [(i, j) for i in (lo_i, hi_i) for j in (lo_j, hi_j)]
        else:
            cells = ([(i, lo_j) for i in range(lo_i, hi_i + 1)]
                     + [(i, hi_j) for i in range(lo_i, hi_i + 1)]
                     + [(lo_i, j) for j in range(lo_j + 1, hi_j)]
                     + [(hi_i, j) for j in range(lo_j + 1, hi_j)])
        for i, j in cells:
            consider(i, j)
        if best is not None:
            # a farther ring cannot beat the current best once the ring's
            # nearest possible point is farther than the best distance
            ring_min = (ring * w) ** 2
            if best[0] <= ring_min:
                return best[2]
    if best is not None:
        return best[2]
    raise NoGridPointNearby(f"no in-polygon grid point within "
                            f"{_RING_CAP} rings of {x}")


def _triangle(x: Point, alpha: Scalar) -> Tuple[Point, Point, Point]:
    """Isoceles stand-in for the inscribed triangle: apex up, base horizontal.

    All vertices are within distance alpha of x and x is strictly interior.
    """
    a = Fraction(alpha)
    return (x + pt(0, a),
            x + Point(-3 * a / 4, -a / 2),
            x + Point(3 * a / 4, -a / 2))


def surrounding_grid(spec: GridSpec, m: PolygonModel, x: Point,
                     alpha: Scalar) -> SurroundingGrid:
    """Grid points surrounding x at scale alpha, case-split on the boundary."""
    alpha = Fraction(alpha)
    if not (0 < alpha <= Fraction(1, m.L ** 2)):
        raise ValueError("alpha must be in (0, L^-2]")
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")

    tri = _triangle(x, alpha)
    tri_edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]

    def in_triangle(p: Point) -> bool:
        from .geometry import orient
        return (orient(tri[0], tri[1], p) >= 0
                and orient(tri[1], tri[2], p) >= 0
                and orient(tri[2], tri[0], p) >= 0)

    enclosed = [v for v in m.vertices if in_triangle(v)]
    crossing = any(segments_intersect(a, b, c, d)
                   for a, b in m.edges() for c, d in tri_edges)
    inside_edge_end = any(in_triangle(a) for a, _ in m.edges())

    if enclosed:
        case = CASE_CORNER
    elif crossing or inside_edge_end:
        case = CASE_BOUNDARY
    else:
        case = CASE_INTERIOR

    defining: List[Point] = [v for v in tri if point_in_polygon(m, v)]
    if case != CASE_INTERIOR:
        from .geometry import segment_intersection_point
        for a, b in m.edges():
            for c, d in tri_edges:
                p = segment_intersection_point(a, b, c, d)
                if p is not None:
                    defining.append(p)
    points: List[Point] = []
    for p in defining:
        g = round_to_grid(spec, m, p)
        if g not in points:
            points.append(g)
    if case == CASE_CORNER:
        for v in enclosed:
            if v not in points:
                points.append(v)  # polygon vertices lie on the grid

    starred = None
    limit = Fraction(1, m.L) ** 2  # squared L^-1
    best = None
    for i, r in enumerate(m.vertices):
        d = dist_sq(x, r)
        if d <= limit and (best is None or (d, i) < best[:2]):
            best = (d, i, r)
    if best is not None:
        starred = best[2]

    return SurroundingGrid(center=x, case=case, points=tuple(points),
                           starred=starred, inscribed_triangle=tri)


def grid_replacement(spec: GridSpec, m: PolygonModel, opt: GuardSet,
                     alpha: Scalar, s: Scalar) -> GuardSet:
    """Replace each guard by surrounding grid points plus bad-region vertices.

    Guards already on the grid are kept verbatim.  For every bad region
    containing a guard, the region's reflex vertex nearest to the guard is
    added (tie: lower vertex index).
    """
    alpha = Fraction(alpha)
    s = Fraction(s)
    pairs = opposite_reflex_pairs(m)
    regions = [bad_region(m, p, s) for p in pairs]
    out: List[Point] = []
    prov: List[str] = []

    def emit(p: Point, tag: str) -> None:
        if p not in out:
            out.append(p)
            prov.append(tag)

    for x in opt.guards:
        if not point_in_polygon(m, x):
            raise InputGuardOutsidePolygon(f"guard {x} outside polygon")
        if spec.on_grid(x):
            emit(x, PROV_ORIGINAL)
            continue
        sg = surrounding_grid(spec, m, x, alpha)
        for p in sg.points:
            emit(p, PROV_ALPHA_GRID)
        if sg.starred is not None:
            emit(sg.starred, PROV_STAR_VERTEX)
        for reg in regions:
            if in_bad_region(reg, x):
                cands = sorted(
                    (dist_sq(x, m.vertices[i]), i)
                    for i in (reg.pair.r1, reg.pair.r2))
                emit(m.vertices[cands[0][1]], PROV_BAD_REGION_VERTEX)
    return GuardSet(guards=tuple(out), provenance=tuple(prov))


@dataclass(frozen=True)
class Covered:
    pass


@dataclass(frozen=True)
class Uncovered:
    witness: Point


CoverageResult = Union[Covered, Uncovered]


def verify_coverage(m: PolygonModel, g: GuardSet) -> CoverageResult:
    """Exact coverage decision via one witness per face of the visibility
    overlay (visibility is constant on each open face)."""
    from .arrangement import build_arrangement
    if not g.guards:
        return Uncovered(witness=m.vertices[0])
    arr = build_arrangement(
        overlay_segments(m, [visibility_polygon(m, x) for x in g.guards]))
    for wpt in arr.representatives:
        if not any(sees(m, x, wpt) for x in g.guards):
            return Uncovered(witness=wpt)
    return Covered()
