"""Fixture generators: combs, channels, spike-pair polygons, random polygons.

All generators return validated PolygonModel instances with positive integer
coordinates.  Random generation is seeded and untangles a random vertex
permutation with 2-opt moves until the polygon is simple, on the same
integer crossing scan that ``load_polygon`` validates with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .geometry import Point
from .polygon import PolygonModel, PolygonError, first_crossing, load_polygon


class GenerationBudgetExceeded(Exception):
    pass


def comb(prongs: int) -> PolygonModel:
    """Comb with ``prongs`` upward towers of width 1 and height 4 over a
    base strip of height 1.

    Any guard set needs one guard per tower, so the optimum is ``prongs``.
    """
    if prongs < 1:
        raise ValueError("need at least one prong")
    k = prongs
    verts: List[Tuple[int, int]] = [(1, 1), (2 * k, 1), (2 * k, 6)]
    for i in range(k - 1, 0, -1):
        verts += [(2 * i + 1, 6), (2 * i + 1, 2), (2 * i, 2), (2 * i, 6)]
    verts.append((1, 6))
    return load_polygon(verts)


def channel() -> PolygonModel:
    """Wide room with one leaning spike pair forming a single opposite pair.

    The supporting line of the pair is x = 6; the bottom spike leans right
    and the top spike leans left, so the incident edges separate strictly.
    """
    return load_polygon([
        (1, 1), (7, 1), (6, 3), (8, 1), (12, 1),
        (12, 10), (5, 10), (6, 8), (4, 10), (1, 10)])


def counterexample_polygon() -> PolygonModel:
    """Two leaning spikes forming a pinhole at height y = 6.

    The bottom spike apex (11, 6) and top spike apex (13, 6) are an opposite
    reflex pair; the left wall x = 1 is visible from the right part only
    through the slit between the apexes.
    """
    return load_polygon([
        (1, 1), (10, 1), (11, 6), (12, 1), (21, 1),
        (21, 11), (14, 11), (13, 6), (12, 11), (1, 11)])


def spike_pairs(apexes: List[Tuple[Tuple[int, int], Tuple[int, int]]],
                box: Tuple[int, int, int, int]) -> PolygonModel:
    """Rectangle with one leaning spike pair per ((bx, by), (tx, ty)) entry.

    Bottom spikes grow from the bottom edge leaning right (apex at (bx, by),
    base at x in [bx+1, bx+2]); top spikes grow from the top edge leaning
    left (base at x in [tx-2, tx-1]).  Apexes must be given left to right.
    """
    x0, y0, x1, y1 = box
    verts: List[Tuple[int, int]] = [(x0, y0)]
    for (bx, by), _ in apexes:
        verts += [(bx + 1, y0), (bx, by), (bx + 2, y0)]
    verts += [(x1, y0), (x1, y1)]
    for _, (tx, ty) in reversed(apexes):
        verts += [(tx - 1, y1), (tx, ty), (tx - 2, y1)]
    verts.append((x0, y1))
    return load_polygon(verts)


def triple_pairs() -> PolygonModel:
    """Jittered three-spike-pair room in general position with 8 pairs.

    Coordinates were searched so that no three vertices are collinear and
    no three extensions are concurrent at an interior non-vertex point
    while keeping at least three opposite reflex pairs.
    """
    return load_polygon([
        (16, 6), (82, 10), (79, 73), (86, 9), (202, 8), (201, 71),
        (206, 14), (322, 17), (322, 66), (326, 10), (411, 17), (403, 206),
        (318, 214), (319, 146), (314, 213), (198, 201), (200, 153),
        (194, 214), (78, 203), (79, 150), (74, 212), (11, 211)])


def concurrent_pairs() -> PolygonModel:
    """Three spike pairs whose supporting lines all pass through (105, 20).

    Deliberately violates general position: the pair lines x = 105,
    y = 2x - 190 and y = -2x + 230 are concurrent at an interior
    non-vertex point beyond the bottom apexes, so all three bad regions
    overlap there once the slope is inflated.
    """
    return spike_pairs(
        [((100, 30), (80, 70)), ((105, 30), (105, 70)),
         ((110, 30), (130, 70))],
        box=(1, 1, 160, 100))


def blocking_fixture() -> Tuple[PolygonModel, Point]:
    """Pinhole polygon with a third reflex vertex plus a tuned viewpoint.

    The extra spike apex q = (3, 8) lies just outside the visibility cone
    of the returned point x through the pinhole (11,6)-(13,6) but inside
    the cone of the grid point below x at grid width L^-3, so q blocks a
    sliver of that grid point's view near the apex (13, 6).
    """
    m = load_polygon([
        (1, 1), (10, 1), (11, 6), (12, 1), (21, 1), (21, 11), (14, 11),
        (13, 6), (12, 11), (4, 11), (3, 8), (2, 11), (1, 11)])
    w = Fraction(1, m.L ** 3)
    # x sits w/10 above the line through q and (13, 6); the grid rounds
    # its neighborhood to the grid point 3w/10 below, past that line
    x = Point(17 - w, Fraction(26, 5) + 3 * w / 10)
    return m, x


def random_points(rng: random.Random, n: int, m: int) -> List[Tuple[int, int]]:
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(1, m), rng.randint(1, m)))
    return sorted(pts)


# crossing scans per call, over all samples: a sample whose 2-opt moves
# repeat a state never untangles and is dropped at once, so the budget is
# spent only on moves that can still succeed, and a hopeless call (such as
# nine vertices on the full 3 x 3 lattice) fails within about a second
_BUDGET = 10000


def random_polygon(n: int, m: int, seed: int) -> PolygonModel:
    """Random simple polygon with n vertices in [1, m]^2 via 2-opt untangling."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if n > m * m:
        raise ValueError(f"cannot draw {n} distinct vertices from the "
                         f"{m * m} points of [1, {m}]^2")
    rng = random.Random(seed)
    budget = [_BUDGET]
    while True:
        verts = random_points(rng, n, m)
        rng.shuffle(verts)
        xs, ys = [x for x, _ in verts], [y for _, y in verts]
        if not _untangle(xs, ys, budget):
            continue
        try:
            model = load_polygon(list(zip(xs, ys)))
        except PolygonError:
            continue
        return model


def _untangle(xs: List[int], ys: List[int], budget: List[int]) -> bool:
    """2-opt: reverse the span between the first two crossing edges, in
    place; True once the cycle has no crossing, False once the moves
    return to an earlier cycle (Brent's cycle detection), since they are
    deterministic and would repeat forever.  Each crossing scan takes one
    from ``budget[0]``; GenerationBudgetExceeded once it is spent."""
    seen = (xs[:], ys[:])
    lap = steps = 1
    while True:
        if budget[0] <= 0:
            raise GenerationBudgetExceeded(
                f"no valid polygon after {_BUDGET} crossing scans")
        budget[0] -= 1
        crossing = first_crossing(xs, ys)
        if crossing is None:
            return True
        i, j = crossing
        xs[i + 1:j + 1] = reversed(xs[i + 1:j + 1])
        ys[i + 1:j + 1] = reversed(ys[i + 1:j + 1])
        if xs == seen[0] and ys == seen[1]:
            return False
        if steps == lap:
            seen, lap, steps = (xs[:], ys[:]), 2 * lap, 0
        steps += 1
