"""Grid of width L^-E: rounding, surrounding points, replacement, coverage.

The grid is never enumerated.  Its points are integer indices (i, j) over
the one denominator D = L^E, and the polygon's vertices are integers, so
rounding works on the lattice: x is cleared once to (X, Y) / d, the
polygon is scaled by D, and the squared distance to (i, j) / D is the
integer (X D - i d)^2 + (Y D - j d)^2 over (d D)^2.  The search tests the
four cell corners, then square rings of indices around them, each ring in
(distance, i, j) order, which is the order of (distance, ``Point.key()``).
It stops after ring r once the best distance is below ((r + 1) d)^2: every
point outside rings 0..r is at least (r + 1) w from x, so none can win,
and an exact tie at that distance is still searched.  ``surrounding_grid``
likewise decides on x, its triangle and the polygon scaled once by one
denominator, and rounds its defining points, (X, Y, W) in P, on one
polygon scaled by D.  ``grid_replacement`` turns an arbitrary covering
guard set into a nearby covering guard set supported on the grid plus a
few reflex vertices, with at most nine output guards per input guard.
``verify_coverage`` decides on integers too: one witness triple per face
of the guards' overlay, tested for membership in their own polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .arrangement import _point, build_arrangement
from .badregions import bad_region, in_bad_region
from .geometry import GeometryError, Point, Scalar, cleared, dist_sq
from .polygon import (
    PointOutsidePolygon,
    PolygonModel,
    _in_int_cycle,
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
PROV_SOLVER_NET = "SolverNet"
PROV_SOLVER_GREEDY = "SolverGreedy"


def guard_set(points: Sequence[Point], tag: str = PROV_ORIGINAL) -> GuardSet:
    return GuardSet(guards=tuple(points), provenance=(tag,) * len(points))


_RING_CAP = 64


def round_to_grid(spec: GridSpec, m: PolygonModel, x: Point) -> Point:
    """Nearest in-polygon grid point; ties take the lexicographic smallest.

    Searches the four cell corners first, then expanding rings of grid
    points, raising NoGridPointNearby past the ring budget.  Works on
    lattice indices (see the module docstring); only the result is built
    as a Point.
    """
    if not point_in_polygon(m, x):
        raise PointOutsidePolygon(f"{x} outside polygon")
    D = spec.L ** spec.E
    d, (X, Y) = cleared(x.x, x.y)
    i, j = _nearest_index(D, m.scaled(D), X, Y, d)
    return Point(Fraction(i, D), Fraction(j, D))


def _nearest_index(D: int, scaled: Tuple[Sequence[int], Sequence[int]],
                   X: int, Y: int, d: int) -> Tuple[int, int]:
    """The lattice index (i, j) of ``round_to_grid``'s point for
    (X / d, Y / d) in P, on the polygon ``scaled`` by D."""
    xs, ys = scaled
    X, Y = X * D, Y * D
    iu, iv = X // d, Y // d
    best = None  # (squared distance times (d D)^2, i, j)
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
        for cand in sorted(((X - i * d) ** 2 + (Y - j * d) ** 2, i, j)
                           for i, j in cells):
            if best is not None and cand >= best:
                break
            if _in_int_cycle(xs, ys, cand[1], cand[2], 1):
                best = cand
                break
        # every grid point outside rings 0..ring is at least (ring + 1) w
        # from x, so only a tie at exactly that distance could still win
        if best is not None and best[0] < ((ring + 1) * d) ** 2:
            break
    else:
        if best is None:
            x = Point(Fraction(X, d * D), Fraction(Y, d * D))
            raise NoGridPointNearby(f"no in-polygon grid point within "
                                    f"{_RING_CAP} rings of {x}")
    return best[1], best[2]


def surrounding_grid(spec: GridSpec, m: PolygonModel, x: Point,
                     alpha: Scalar) -> SurroundingGrid:
    """Grid points surrounding x at scale alpha, case-split on the boundary.

    x, alpha / 4 and the polygon are scaled once by one denominator, so
    the triangle is integer; containment, the edge crossings and the
    starred vertex are then decided on integers.
    """
    alpha = Fraction(alpha)
    if not (0 < alpha <= Fraction(1, m.L ** 2)):
        raise ValueError("alpha must be in (0, L^-2]")
    d, (X, Y, Q) = cleared(x.x, x.y, alpha / 4)
    xs, ys = m.scaled(d)
    if not _in_int_cycle(xs, ys, X, Y, 1):
        raise PointOutsidePolygon(f"{x} outside polygon")
    # isoceles stand-in for the inscribed triangle, apex up and base
    # horizontal, around x and with corners within alpha = 4 Q / d of x
    corners = [(X, Y + 4 * Q), (X - 3 * Q, Y - 2 * Q), (X + 3 * Q, Y - 2 * Q)]
    tri_edges = list(zip(corners, corners[1:] + corners[:1]))

    def in_triangle(px: int, py: int) -> bool:
        return all((bx - ax) * (py - ay) >= (by - ay) * (px - ax)
                   for (ax, ay), (bx, by) in tri_edges)

    enclosed = [v for v, px, py in zip(m.vertices, xs, ys)
                if in_triangle(px, py)]
    defining = [(px, py, d) for px, py in corners
                if _in_int_cycle(xs, ys, px, py, 1)]
    # each edge against each triangle side: a shared point makes the case
    # at least Boundary, and a unique one is a defining point.  Parallel
    # pairs need no test: if an edge overlaps a side, either a triangle
    # vertex lies on the edge, and the other side through that vertex meets
    # the edge there, or a polygon vertex lies on the side and is enclosed.
    crossing = False
    for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        for (cx, cy), (ex, ey) in tri_edges:
            if (max(ax, bx) < min(cx, ex) or max(cx, ex) < min(ax, bx)
                    or max(ay, by) < min(cy, ey)
                    or max(cy, ey) < min(ay, by)):
                continue
            ux, uy = bx - ax, by - ay
            vx, vy = ex - cx, ey - cy
            fx, fy = cx - ax, cy - ay
            denom = ux * vy - uy * vx
            if denom == 0:
                continue
            tn = fx * vy - fy * vx
            un = fx * uy - fy * ux
            if denom < 0:
                denom, tn, un = -denom, -tn, -un
            if 0 <= tn <= denom and 0 <= un <= denom:
                crossing = True
                defining.append((ax * denom + ux * tn, ay * denom + uy * tn,
                                 d * denom))
    if enclosed:
        case = CASE_CORNER
    elif crossing:
        case = CASE_BOUNDARY
    else:
        case = CASE_INTERIOR

    # each defining (X, Y, W) is in P: a corner in P or on its boundary
    D = spec.L ** spec.E
    grid = m.scaled(D)
    points: List[Point] = []
    for px, py, w in defining:
        i, j = _nearest_index(D, grid, px, py, w)
        g = Point(Fraction(i, D), Fraction(j, D))
        if g not in points:
            points.append(g)
    for v in enclosed:
        if v not in points:
            points.append(v)  # polygon vertices lie on the grid

    # the nearest vertex within L^-1, lower index on ties: in the scaled
    # frame |v - x|^2 <= L^-2 reads L^2 |dv - dx|^2 <= d^2
    near = [(dd, i) for i, dd in enumerate(
        (px - X) ** 2 + (py - Y) ** 2 for px, py in zip(xs, ys))
        if dd * m.L ** 2 <= d * d]
    starred = m.vertices[min(near)[1]] if near else None

    return SurroundingGrid(center=x, case=case, points=tuple(points),
                           starred=starred)


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
    """Exact coverage decision via one witness per face of the overlay of
    the guards' visibility polygons.  Each open face lies wholly inside or
    outside every polygon, so it is covered iff its witness's triple lies
    in some guard's closed polygon (``VisibilityPolygon.holds``).  Each
    witness, in face order, asks first the polygon that held the previous
    one (move-to-front), which changes no verdict.  ``sees`` admits more
    only on a line through a pinhole, so a guard that sees an uncovered
    witness is a contradiction and raises GeometryError."""
    if not g.guards:
        return Uncovered(witness=m.vertices[0])
    polygons = [visibility_polygon(m, x) for x in g.guards]
    arr = build_arrangement(*overlay_segments(m, polygons))
    for X, Y, W in arr.reps:
        for i, vp in enumerate(polygons):
            if vp.holds(X, Y, W * arr.s):
                polygons.insert(0, polygons.pop(i))
                break
        else:
            wpt = _point((X, Y, W), arr.s)
            if any(sees(m, x, wpt) for x in g.guards):
                raise GeometryError(f"a guard sees uncovered witness {wpt}")
            return Uncovered(witness=wpt)
    return Covered()
