"""Guard-placement solvers over grid candidates and arrangement witnesses.

The witnesses are one point per face of the overlay of the polygon's edges
with every candidate's window chords; each face lies in the polygon.  A
candidate covers a face exactly when the face lies in its visibility
polygon, so its bitmask holds the witnesses in its closed visibility
polygon, and every solver below is finite set cover over those bitmasks.
Each candidate's visibility polygon is computed once and gives both its
chords and its bitmask.  Every returned cover is certified afterwards by an
independent verify_coverage run, which decides visibility with ``sees``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import List, Optional, Sequence, Tuple

from .arrangement import build_arrangement
from .geometry import Point
from .grid import (
    Covered,
    GuardSet,
    PROV_SOLVER_GREEDY,
    guard_set,
    verify_coverage,
)
from .polygon import PolygonModel, point_in_cycle, point_in_polygon
from .visibility import (
    VisibilityPolygon,
    overlay_segments,
    sees,  # noqa: F401  kept bound: perfbench's --selfcheck wraps solver.sees
    visibility_polygon,
)


class InfeasibleWitness(Exception):
    """Some witness point is seen by no candidate."""


class RoundLimitExceeded(Exception):
    """The round budget ran out before a covering net was found."""


class CombinatoricsBudgetExceeded(Exception):
    pass


class NoneWithin:
    """brute_force_optimum found no cover within the size limit."""

    def __repr__(self):
        return "NoneWithin"


NONE_WITHIN = NoneWithin()

STRATEGY_FULL = "FullCellSample"
STRATEGY_ADAPTIVE = "AdaptiveRefine"

WEIGHT_DOUBLING_CAP = 10 ** 6


@dataclass(frozen=True)
class WitnessSet:
    points: Tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SolveConfig:
    candidate_strategy: str = STRATEGY_FULL
    max_rounds: int = 200
    rng_seed: int = 0


@dataclass(frozen=True)
class SolveResult:
    guards: GuardSet
    witness_count: int
    rounds: int
    certified: bool


def build_witnesses(m: PolygonModel,
                    polygons: Sequence[VisibilityPolygon]) -> WitnessSet:
    """One representative per face of the overlay of the polygon with the
    window chords of the candidates' visibility polygons."""
    arr = build_arrangement(overlay_segments(m, polygons))
    return WitnessSet(points=tuple(arr.representatives))


def _masks(polygons: Sequence[VisibilityPolygon],
           witnesses: WitnessSet) -> List[int]:
    """Per-candidate bitmask of the witnesses in its closed visibility
    polygon."""
    masks = []
    for vp in polygons:
        mask = 0
        for i, w in enumerate(witnesses.points):
            if point_in_cycle(vp.boundary, w):
                mask |= 1 << i
        masks.append(mask)
    return masks


def _full_mask(masks: List[int], witnesses: WitnessSet) -> int:
    """The mask of all witnesses; raises if some witness is seen by none."""
    full = (1 << len(witnesses)) - 1
    seen_any = 0
    for mk in masks:
        seen_any |= mk
    if seen_any != full:
        missing = next(i for i in range(len(witnesses))
                       if not (seen_any >> i) & 1)
        raise InfeasibleWitness(
            f"witness {witnesses.points[missing]} seen by no candidate")
    return full


def _greedy(masks: List[int], full: int) -> List[int]:
    """Indices picked by greedy set cover, in the order picked."""
    chosen: List[int] = []
    covered = 0
    while covered != full:
        best_i = max(range(len(masks)),
                     key=lambda i: (masks[i] & ~covered).bit_count())
        # max() keeps the first of equal keys; candidates are pre-sorted, so
        # the tie goes to the lexicographically smallest candidate
        if masks[best_i] & ~covered == 0:
            raise InfeasibleWitness("greedy stalled with uncovered witnesses")
        chosen.append(best_i)
        covered |= masks[best_i]
    return chosen


def greedy_cover(m: PolygonModel, candidates: Sequence[Point],
                 witnesses: WitnessSet) -> SolveResult:
    """Classic greedy set cover; ties broken by lexicographic point order."""
    cands = sorted(set(candidates), key=Point.key)
    masks = _masks([visibility_polygon(m, c) for c in cands], witnesses)
    chosen = _greedy(masks, _full_mask(masks, witnesses))
    gs = guard_set([cands[i] for i in chosen], PROV_SOLVER_GREEDY)
    return SolveResult(guards=gs, witness_count=len(witnesses),
                       rounds=len(chosen),
                       certified=isinstance(verify_coverage(m, gs), Covered))


def brute_force_optimum(m: PolygonModel, candidates: Sequence[Point],
                        witnesses: WitnessSet, k_max: int):
    """Smallest covering subset of the candidates, or NoneWithin."""
    cands = sorted(set(candidates), key=Point.key)
    n = len(cands)
    total = sum(math.comb(n, k) for k in range(1, k_max + 1))
    if total > 10 ** 7:
        raise CombinatoricsBudgetExceeded(
            f"{total} subsets exceed the 1e7 budget")
    masks = _masks([visibility_polygon(m, c) for c in cands], witnesses)
    full = (1 << len(witnesses)) - 1
    for k in range(1, k_max + 1):
        for combo in combinations(range(n), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return guard_set([cands[i] for i in combo], PROV_SOLVER_GREEDY)
    return NONE_WITHIN


def default_candidates(m: PolygonModel) -> List[Point]:
    """Unit-cell center grid points inside P plus all polygon vertices.

    Cell centers are on the grid for every exponent since L = 20M is even.
    """
    out = list(m.vertices)
    xs = [int(v.x) for v in m.vertices]
    ys = [int(v.y) for v in m.vertices]
    half = Fraction(1, 2)
    for i in range(min(xs), max(xs) + 1):
        for j in range(min(ys), max(ys) + 1):
            c = Point(i + half, j + half)
            if point_in_polygon(m, c):
                out.append(c)
    return sorted(set(out), key=Point.key)


def _prune(chosen: List[int], masks: List[int], full: int) -> List[int]:
    """Drop redundant guards, scanning in deterministic order."""
    kept = list(chosen)
    changed = True
    while changed:
        changed = False
        for i in list(kept):
            rest = 0
            for j in kept:
                if j != i:
                    rest |= masks[j]
            if rest == full:
                kept.remove(i)
                changed = True
                break
    return kept


def eh_solve(m: PolygonModel, cfg: SolveConfig,
             candidates: Optional[Sequence[Point]] = None) -> SolveResult:
    """Iterative-reweighting set cover over grid candidates.

    Guess-and-double on the cover size k; each round samples a weighted net
    of O(k log k) candidates and doubles the weights of every candidate
    seeing the first uncovered witness.  The result is the smaller of the
    pruned net cover and the greedy cover of the same masks, certified once.
    """
    if candidates is None:
        if cfg.candidate_strategy == STRATEGY_FULL:
            cands = default_candidates(m)
        else:
            cands = sorted(set(m.vertices), key=Point.key)
    else:
        cands = sorted(set(candidates), key=Point.key)
    polygons = [visibility_polygon(m, c) for c in cands]
    witnesses = build_witnesses(m, polygons)
    masks = _masks(polygons, witnesses)
    full = _full_mask(masks, witnesses)
    n = len(cands)

    rng = random.Random(cfg.rng_seed)
    rounds = 0
    solution: Optional[List[int]] = None
    k = 1
    while solution is None and k <= n:
        weights = [1] * n
        net_size = max(1, min(n, 4 * k * max(1, math.ceil(math.log2(k + 1)))))
        attempts = max(1, 8 * k * max(1, math.ceil(math.log2(n + 1))))
        for _ in range(attempts):
            if rounds >= cfg.max_rounds:
                raise RoundLimitExceeded(
                    f"round budget {cfg.max_rounds} exhausted at k={k}")
            rounds += 1
            if net_size >= n:
                net = list(range(n))
            else:
                net = _weighted_sample(rng, weights, net_size)
            acc = 0
            for i in net:
                acc |= masks[i]
            if acc == full:
                solution = sorted(set(net))
                break
            uncovered = next(i for i in range(len(witnesses))
                             if not (acc >> i) & 1)
            bit = 1 << uncovered
            for i in range(n):
                if masks[i] & bit and weights[i] < WEIGHT_DOUBLING_CAP:
                    weights[i] *= 2
        else:
            k *= 2

    if solution is None:
        raise RoundLimitExceeded("no covering net found")

    solution = _prune(solution, masks, full)
    greedy = _greedy(masks, full)
    chosen = greedy if len(greedy) < len(solution) else solution
    gs = guard_set([cands[i] for i in chosen], PROV_SOLVER_GREEDY)
    return SolveResult(guards=gs, witness_count=len(witnesses),
                       rounds=rounds,
                       certified=isinstance(verify_coverage(m, gs), Covered))


def _weighted_sample(rng: random.Random, weights: List[int],
                     size: int) -> List[int]:
    """Sample candidate indices with probability proportional to weight."""
    prefix = list(accumulate(weights))
    total = prefix[-1]
    # weights are positive, so bisect_right finds the first i with
    # r < prefix[i], the index a linear scan of the weights would stop at
    return [bisect_right(prefix, rng.randrange(total)) for _ in range(size)]
