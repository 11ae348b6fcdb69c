"""Guard-placement solver over grid candidates and lazily grown witnesses.

Set cover runs on a small witness set that the certifier grows.  The
witnesses start at the polygon's vertices.  Closed visibility is
symmetric, so a candidate sees a witness exactly when it lies in the
witness's visibility polygon.  The candidates are cleared to integers
over one denominator once per solve; each witness's visibility polygon is
computed once, ``VisibilityPolygon.holds`` on each cleared candidate
gives the row of candidates that see it, and the row's bits are ORed into
the candidates' bitmasks as the witness's bit.  No candidate's visibility
polygon is built.  Reweighting rounds, a prune and a greedy pass choose a
cover of the witnesses, and ``grid.verify_coverage`` certifies it on the
guards' own visibility polygons.  If it names a point that the cover leaves
unseen, that point becomes the next witness, with one visibility polygon
and one membership test per candidate, and the search runs again with a
fresh round budget.  The chosen cover sees every earlier witness and misses the new
one, so no cover goes to the certifier twice, and the loop ends at a
cover of P or when one search runs out of rounds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .geometry import Point, cleared
from .grid import (
    Covered,
    GuardSet,
    PROV_SOLVER_GREEDY,
    PROV_SOLVER_NET,
    guard_set,
    verify_coverage,
)
from .polygon import PolygonModel, _in_int_cycle
from .visibility import (
    sees,  # noqa: F401  kept bound: perfbench's --selfcheck wraps solver.sees
    visibility_polygon,
)


class InfeasibleWitness(Exception):
    """Some witness point is seen by no candidate."""


class RoundLimitExceeded(Exception):
    """A search ran out of its round budget before a covering net was
    found."""


class CellBudgetExceeded(Exception):
    """The bounding box has more unit cells than ``CELL_BUDGET``."""


STRATEGY_FULL = "FullCellSample"
STRATEGY_VERTICES = "Vertices"

WEIGHT_DOUBLING_CAP = 10 ** 6
# the unit cells default_candidates may walk; triple_pairs() has 83 809
CELL_BUDGET = 10 ** 6


@dataclass(frozen=True)
class SolveConfig:
    candidate_strategy: str = STRATEGY_FULL
    # the reweighting rounds of each search; the certifier starts a new
    # search, with a new budget, for each witness it adds
    max_rounds: int = 200
    rng_seed: int = 0


@dataclass(frozen=True)
class SolveResult:
    guards: GuardSet
    witness_count: int
    rounds: int


def _greedy(masks: Sequence[int], full: int) -> List[int]:
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


def default_candidates(m: PolygonModel) -> List[Point]:
    """Unit-cell center grid points inside P plus all polygon vertices.

    Cell centers are on the grid for every exponent since L = 20M is even.
    Raises CellBudgetExceeded, before the walk, past ``CELL_BUDGET`` cells.
    """
    cells = (max(m.xs) - min(m.xs) + 1) * (max(m.ys) - min(m.ys) + 1)
    if cells > CELL_BUDGET:
        raise CellBudgetExceeded(f"the candidate grid has {cells} unit "
                                 f"cells, over the budget of {CELL_BUDGET}")
    out = list(m.vertices)
    # the polygon doubled, so the centre of cell (i, j) is (2i + 1, 2j + 1)
    x2, y2 = m.scaled(2)
    half = Fraction(1, 2)
    for i in range(min(m.xs), max(m.xs) + 1):
        for j in range(min(m.ys), max(m.ys) + 1):
            if _in_int_cycle(x2, y2, 2 * i + 1, 2 * j + 1, 1):
                out.append(Point(i + half, j + half))
    return sorted(set(out), key=Point.key)


def _prune(chosen: List[int], masks: Sequence[int], full: int) -> List[int]:
    """Drop redundant guards in one pass, in the given order.

    Dropping a guard only shrinks what the others cover, so a guard kept
    once stays needed, and one pass keeps what rescanning from the start
    after every drop would keep.
    """
    kept = list(chosen)
    for i in chosen:
        rest = 0
        for j in kept:
            if j != i:
                rest |= masks[j]
        if rest == full:
            kept.remove(i)
    return kept


def _add_witness(m: PolygonModel, w: Point,
                 points: Sequence[Tuple[int, int]], d: int,
                 masks: List[int], bit: int) -> None:
    """Set ``bit`` in the mask of every candidate (x / d, y / d), given as
    its ``points`` (x, y), that sees w.

    Closed visibility is symmetric, so these are the candidates in w's
    closed visibility polygon: one polygon per witness, and one membership
    test per candidate.  Raises InfeasibleWitness if no candidate sees w.
    """
    vp = visibility_polygon(m, w)
    row = [i for i, (x, y) in enumerate(points) if vp.holds(x, y, d)]
    if not row:
        raise InfeasibleWitness(f"witness {w} seen by no candidate")
    flag = 1 << bit
    for i in row:
        masks[i] |= flag


def eh_solve(m: PolygonModel, cfg: SolveConfig) -> SolveResult:
    """Iterative-reweighting set cover over the configured candidates: the
    cell centres and vertices of ``default_candidates``, or the vertices.

    Each search covers the current witnesses: guess-and-double on the
    cover size k, where each round samples a weighted net of O(k log k)
    candidates and doubles the weights of every candidate seeing the first
    uncovered witness; the smaller of the pruned net cover and the greedy
    cover goes to ``verify_coverage``.  A witness it names is added and a
    new search runs.  Raises InfeasibleWitness if no candidate sees some
    witness, and RoundLimitExceeded once one search has run ``max_rounds``
    rounds; ``rounds`` in the result counts the rounds of every search.
    """
    if cfg.candidate_strategy == STRATEGY_FULL:
        candidates = default_candidates(m)
    else:
        candidates = sorted(m.vertices, key=Point.key)
    d, cs = cleared(*[c for p in candidates for c in (p.x, p.y)])
    points = list(zip(cs[0::2], cs[1::2]))
    masks = [0] * len(candidates)
    for bit, v in enumerate(m.vertices):
        _add_witness(m, v, points, d, masks, bit)
    witness_count = len(m.vertices)
    rng = random.Random(cfg.rng_seed)
    rounds = 0
    while True:
        full = (1 << witness_count) - 1
        chosen, tag, used = _search(masks, full, rng, cfg.max_rounds)
        rounds += used
        guards = guard_set([candidates[i] for i in chosen], tag)
        verdict = verify_coverage(m, guards)
        if isinstance(verdict, Covered):
            return SolveResult(guards=guards, witness_count=witness_count,
                               rounds=rounds)
        _add_witness(m, verdict.witness, points, d, masks, witness_count)
        witness_count += 1


def _search(masks: Sequence[int], full: int, rng: random.Random,
            max_rounds: int) -> Tuple[List[int], str, int]:
    """A cover of every witness, as (candidate indices, the guard tag of the
    search that chose them, the rounds this search ran), by guess-and-double
    on k within ``max_rounds`` rounds; every witness has a seer."""
    n = len(masks)
    solution: Optional[List[int]] = None
    rounds = 0
    k = 1
    # ends: once net_size reaches n the net is every candidate, which covers
    # every witness because each has a seer
    while solution is None:
        weights = [1] * n
        net_size = max(1, min(n, 4 * k * max(1, math.ceil(math.log2(k + 1)))))
        attempts = max(1, 8 * k * max(1, math.ceil(math.log2(n + 1))))
        for _ in range(attempts):
            if rounds >= max_rounds:
                raise RoundLimitExceeded(
                    f"round budget {max_rounds} per search exhausted "
                    f"at k={k}")
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
            # the lowest witness the net misses
            bit = ~acc & (acc + 1)
            for i in range(n):
                if masks[i] & bit and weights[i] < WEIGHT_DOUBLING_CAP:
                    weights[i] *= 2
        else:
            k *= 2

    solution = _prune(solution, masks, full)
    greedy = _greedy(masks, full)
    if len(greedy) < len(solution):
        return greedy, PROV_SOLVER_GREEDY, rounds
    return solution, PROV_SOLVER_NET, rounds


def _weighted_sample(rng: random.Random, weights: List[int],
                     size: int) -> List[int]:
    """Sample candidate indices with probability proportional to weight."""
    prefix = list(accumulate(weights))
    total = prefix[-1]
    # weights are positive, so bisect_right finds the first i with
    # r < prefix[i], the index a linear scan of the weights would stop at
    return [bisect_right(prefix, rng.randrange(total)) for _ in range(size)]
