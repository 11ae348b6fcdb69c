"""Guard-placement solvers over grid candidates and arrangement witnesses.

The witnesses are one point per face of the overlay of the polygon's edges
with every candidate's window chords; each face lies in the polygon.  A
candidate covers a face exactly when the face lies in its visibility
polygon, so its bitmask holds the witnesses in its closed visibility
polygon, and every solver below is finite set cover over those bitmasks.
Every edge of a visibility polygon is in the overlay, so crossing an
overlay edge inside P flips membership exactly for the candidates whose
window chords contain it (the edge's owners): one face's seers are found
by membership, decided on each polygon's integer triples by
``in_visibility_polygon``, and every other face's by a breadth-first walk
over the faces that XORs in the owners of each edge it crosses.
``cover_instance`` is the one place that instance is built: it computes
each candidate's visibility polygon once, which gives both its chords and
its bitmask, and checks that every witness is seen.  The solvers only read
it.  Every returned SolveResult is certified afterwards by an independent
verify_coverage run, which decides visibility with ``sees``.
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
from .geometry import GeometryError, Point
from .grid import (
    Covered,
    GuardSet,
    PROV_SOLVER_EXACT,
    PROV_SOLVER_GREEDY,
    PROV_SOLVER_NET,
    guard_set,
    verify_coverage,
)
from .polygon import PolygonModel, _in_int_cycle
from .visibility import (
    VisibilityPolygon,
    in_visibility_polygon,
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


STRATEGY_FULL = "FullCellSample"
STRATEGY_VERTICES = "Vertices"

WEIGHT_DOUBLING_CAP = 10 ** 6


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


@dataclass(frozen=True)
class CoverInstance:
    """Finite set cover: candidates sorted by key, one witness per overlay
    face, and per candidate the bitmask of the witnesses it covers."""

    candidates: Tuple[Point, ...]
    witnesses: Tuple[Point, ...]
    masks: Tuple[int, ...]

    @property
    def full(self) -> int:
        """The mask of all witnesses."""
        return (1 << len(self.witnesses)) - 1


def build_witnesses(m: PolygonModel, polygons: Sequence[VisibilityPolygon]
                    ) -> Tuple[Tuple[Point, int], ...]:
    """One (representative, seers) pair per face of the overlay of the
    polygon with the window chords of the candidates' visibility polygons,
    in face order; seers is the bitmask of the polygons that hold the face.

    Face 0's seers come from membership of its representative in every
    polygon, tested on the polygon's triples.  The walk then crosses each
    edge with a bounded face on both sides and XORs in the bits of the
    edge's owners; an overlay segment at or past the polygon's edges is a
    window chord of one polygon, in ``overlay_segments`` order.  Raises
    GeometryError if a face is reached with two different seer sets or not
    at all.
    """
    arr = build_arrangement(overlay_segments(m, polygons))
    bits = [0] * m.n + [1 << i for i, vp in enumerate(polygons)
                        for _ in vp.window_edges]
    across: List[List[Tuple[int, int]]] = [[] for _ in arr.representatives]
    for (f, g), ks in zip(arr.edge_faces, arr.edge_segments):
        if f >= 0 and g >= 0:
            flip = 0
            for k in ks:
                flip ^= bits[k]
            across[f].append((g, flip))
            across[g].append((f, flip))
    rep = arr.representatives[0]
    seers: List[Optional[int]] = [None] * len(across)
    seers[0] = sum(1 << i for i, vp in enumerate(polygons)
                   if in_visibility_polygon(vp, rep))
    queue = [0]
    for f in queue:
        for g, flip in across[f]:
            s = seers[f] ^ flip
            if seers[g] is None:
                seers[g] = s
                queue.append(g)
            elif seers[g] != s:
                raise GeometryError(
                    f"face {g} reached with two different seer sets")
    if len(queue) != len(across):
        raise GeometryError(
            f"{len(across) - len(queue)} faces not reached from face 0")
    return tuple(zip(arr.representatives, seers))


def cover_instance(m: PolygonModel,
                   candidates: Sequence[Point]) -> CoverInstance:
    """The set-cover instance of the candidates' own visibility overlay.

    Each candidate's visibility polygon is computed once and gives both its
    window chords and its bitmask: the witnesses in the closed polygon.
    Raises InfeasibleWitness if some witness is seen by no candidate.
    """
    cands = tuple(sorted(set(candidates), key=Point.key))
    faces = build_witnesses(m, [visibility_polygon(m, c) for c in cands])
    missing = next((w for w, seers in faces if not seers), None)
    if missing is not None:
        raise InfeasibleWitness(f"witness {missing} seen by no candidate")
    # the seers as binary digits, last face first: candidate c's digits are
    # every n-th one from n - 1 - c, most significant first
    n = len(cands)
    digits = "".join(format(seers, f"0{n}b") for _, seers in reversed(faces))
    return CoverInstance(cands, tuple(w for w, _ in faces),
                         tuple(int(digits[n - 1 - c::n], 2) for c in range(n)))


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


def _certified(m: PolygonModel, inst: CoverInstance, chosen: Sequence[int],
               rounds: int, tag: str) -> SolveResult:
    """The chosen candidates as a guard set tagged with the search that
    chose them, certified by verify_coverage."""
    gs = guard_set([inst.candidates[i] for i in chosen], tag)
    return SolveResult(guards=gs, witness_count=len(inst.witnesses),
                       rounds=rounds,
                       certified=isinstance(verify_coverage(m, gs), Covered))


def greedy_cover(m: PolygonModel, inst: CoverInstance) -> SolveResult:
    """Classic greedy set cover; ties broken by lexicographic point order."""
    chosen = _greedy(inst.masks, inst.full)
    return _certified(m, inst, chosen, len(chosen), PROV_SOLVER_GREEDY)


def brute_force_optimum(inst: CoverInstance,
                        k_max: int) -> Optional[GuardSet]:
    """Smallest covering subset of the candidates, or None if every cover
    has more than k_max guards."""
    n = len(inst.candidates)
    total = sum(math.comb(n, k) for k in range(1, k_max + 1))
    if total > 10 ** 7:
        raise CombinatoricsBudgetExceeded(
            f"{total} subsets exceed the 1e7 budget")
    masks = inst.masks
    full = inst.full
    for k in range(1, k_max + 1):
        for combo in combinations(range(n), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            if acc == full:
                return guard_set([inst.candidates[i] for i in combo],
                                 PROV_SOLVER_EXACT)
    return None


def default_candidates(m: PolygonModel) -> List[Point]:
    """Unit-cell center grid points inside P plus all polygon vertices.

    Cell centers are on the grid for every exponent since L = 20M is even.
    """
    out = list(m.vertices)
    # the polygon doubled, so the centre of cell (i, j) is (2i + 1, 2j + 1)
    x2, y2 = m.scaled(2)
    half = Fraction(1, 2)
    for i in range(min(m.xs), max(m.xs) + 1):
        for j in range(min(m.ys), max(m.ys) + 1):
            if _in_int_cycle(x2, y2, 2 * i + 1, 2 * j + 1):
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


def eh_solve(m: PolygonModel, cfg: SolveConfig) -> SolveResult:
    """Iterative-reweighting set cover over the configured candidates: the
    cell centres and vertices of ``default_candidates``, or the vertices.

    Guess-and-double on the cover size k; each round samples a weighted net
    of O(k log k) candidates and doubles the weights of every candidate
    seeing the first uncovered witness.  The result is the smaller of the
    pruned net cover and the greedy cover of the same masks, certified once.
    """
    if cfg.candidate_strategy == STRATEGY_FULL:
        candidates = default_candidates(m)
    else:
        candidates = m.vertices
    inst = cover_instance(m, candidates)
    masks = inst.masks
    full = inst.full
    n = len(inst.candidates)

    rng = random.Random(cfg.rng_seed)
    rounds = 0
    solution: Optional[List[int]] = None
    k = 1
    # ends: once net_size reaches n the net is every candidate, which covers
    # every witness because cover_instance found a seer for each
    while solution is None:
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
            uncovered = next(i for i in range(len(inst.witnesses))
                             if not (acc >> i) & 1)
            bit = 1 << uncovered
            for i in range(n):
                if masks[i] & bit and weights[i] < WEIGHT_DOUBLING_CAP:
                    weights[i] *= 2
        else:
            k *= 2

    solution = _prune(solution, masks, full)
    greedy = _greedy(masks, full)
    if len(greedy) < len(solution):
        return _certified(m, inst, greedy, rounds, PROV_SOLVER_GREEDY)
    return _certified(m, inst, solution, rounds, PROV_SOLVER_NET)


def _weighted_sample(rng: random.Random, weights: List[int],
                     size: int) -> List[int]:
    """Sample candidate indices with probability proportional to weight."""
    prefix = list(accumulate(weights))
    total = prefix[-1]
    # weights are positive, so bisect_right finds the first i with
    # r < prefix[i], the index a linear scan of the weights would stop at
    return [bisect_right(prefix, rng.randrange(total)) for _ in range(size)]
