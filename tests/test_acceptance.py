"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single pass/fail line,
and enforces its runtime budget.  All comparisons are exact (rational
arithmetic, zero tolerance).
"""

import io
import json
import time
from fractions import Fraction

from gridguards.badregions import bad_region, check_no_triple_intersection, in_bad_region
from gridguards.cli import main
from gridguards.generate import (
    channel,
    comb,
    concurrent_pairs,
    counterexample_polygon,
    random_polygon,
    triple_pairs,
)
from gridguards.geometry import Point, pt
from gridguards.grid import (
    Covered,
    GridSpec,
    grid_replacement,
    verify_coverage,
)
from gridguards.lemmas import (
    _interior_points,
    build_counterexample,
    check_distance_lemma,
    check_local_visibility,
)
from gridguards.polygon import (
    check_general_position,
    load_polygon,
    opposite_reflex_pairs,
    point_in_polygon,
)
from gridguards.solver import (
    NoneWithin,
    STRATEGY_ADAPTIVE,
    SolveConfig,
    brute_force_optimum,
    build_witnesses,
    default_candidates,
    eh_solve,
    greedy_cover,
)
from gridguards.visibility import visibility_polygon

from oracles import visibility_area_oracle


class Budget:
    """Context manager asserting wall-clock runtime stays under the limit."""

    def __init__(self, criterion: int, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds \
            else "FAIL"
        print(f"criterion {self.criterion}: {verdict} "
              f"({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded {self.seconds}s "
                f"budget: {elapsed:.1f}s")
        return False


def test_criterion_1_distance_bounds_on_random_polygons():
    """100 random polygons: separation items 1-6 exhaustive, item 7 on
    1000 sampled line pairs (10 per polygon), all exact."""
    with Budget(1, 60):
        item7_total = 0
        for seed in range(100):
            n = 6 + (seed % 9)          # n in 6..14
            m = random_polygon(n, 50, seed=seed)
            rep = check_distance_lemma(m, item7_samples=10, seed=seed)
            assert rep.status == "Verified", rep.violations[:3]
            item7_total += 10
        assert item7_total == 1000


def _offgrid_candidates(m):
    """In-polygon lattice-offset points guaranteed off every L^-E grid."""
    L = m.L
    q = next(d for d in (3, 7, 11) if L % d)
    xs = [int(v.x) for v in m.vertices]
    ys = [int(v.y) for v in m.vertices]
    off = Fraction(1, q)
    out = []
    for i in range(min(xs), max(xs) + 1):
        for j in range(min(ys), max(ys) + 1):
            c = Point(i + off, j + off)
            if point_in_polygon(m, c):
                out.append(c)
    return out


def test_criterion_2_grid_replacement_bound_and_coverage():
    """>= 20 general-position fixtures: replace each brute-force optimum
    (k <= 3, off-grid guards) by grid guards with |G| <= 9k, still covering."""
    with Budget(2, 300):
        done = 0
        seed = 0
        while done < 20:
            assert seed < 400, "fixture search exhausted"
            n = 6 + (seed % 3)
            m = random_polygon(n, 10, seed=seed)
            seed += 1
            if not check_general_position(m).ok:
                continue
            cands = _offgrid_candidates(m)
            if not cands:
                continue
            witnesses = build_witnesses(
                m, [visibility_polygon(m, c) for c in cands])
            opt = brute_force_optimum(m, cands, witnesses, k_max=3)
            if isinstance(opt, NoneWithin):
                continue
            L = m.L
            s = Fraction(9, 10 * L ** 9)
            alpha = s / (16 * L)
            spec = GridSpec(E=11, L=L)
            assert all(not spec.on_grid(g) for g in opt.guards)
            replaced = grid_replacement(spec, m, opt, alpha=alpha, s=s)
            assert len(replaced) <= 9 * len(opt)
            assert isinstance(verify_coverage(m, replaced), Covered)
            done += 1
        assert done == 20


def test_criterion_3_counterexample_regression():
    """The pinhole fixture: 5 disjoint wall intervals, no approach point
    sees the target, and local visibility fails at a3 for its own grid."""
    with Budget(3, 30):
        fix = build_counterexample(5)
        m = fix.polygon
        assert len(fix.wall_intervals) == 5
        ys = [(lo.y, hi.y) for lo, hi in fix.wall_intervals]
        for (lo1, _), (_, hi2) in zip(ys, ys[1:]):
            assert hi2 < lo1          # pairwise disjoint, ordered downward
        from gridguards.visibility import sees
        for a in fix.approach_points:
            assert not sees(m, a, fix.pinhole_target)
        a3 = fix.approach_points[2]
        s = Fraction(1, 20 * m.L)
        rep = check_local_visibility(m, a3, s / (16 * m.L), s,
                                     grid_exponent=1)
        assert rep.status == "Violated"


def test_criterion_4_local_visibility_outside_bad_regions():
    """50 sampled points per fixture, all outside every s-bad region, with
    16 L alpha <= s <= L^-3: containment Vis(x) in union Vis(g) exact."""
    with Budget(4, 300):
        import random
        for fixture in (channel(), counterexample_polygon(), comb(3)):
            m = fixture
            L = m.L
            s = Fraction(16, L ** 6)
            alpha = s / (16 * L)
            assert 16 * L * alpha <= s <= Fraction(1, L ** 3)
            regions = [bad_region(m, p, s)
                       for p in opposite_reflex_pairs(m)]
            rng = random.Random(4)
            accepted = 0
            for x in _interior_points(m, 120, rng):
                if any(in_bad_region(r, x) for r in regions):
                    continue
                rep = check_local_visibility(m, x, alpha, s,
                                             grid_exponent=11)
                assert rep.status == "Verified", (x, rep.violations[:1])
                accepted += 1
                if accepted == 50:
                    break
            assert accepted == 50


def test_criterion_5_no_triple_bad_region_intersections():
    """Clean fixture: empty triple report at theorem-regime slope; the
    concurrency-violating fixture reports a triple at inflated slope."""
    with Budget(5, 120):
        clean = triple_pairs()
        assert check_general_position(clean).ok
        assert len(opposite_reflex_pairs(clean)) >= 3
        report = check_no_triple_intersection(
            clean, Fraction(1, clean.L ** 9))
        assert report.empty

        dirty = concurrent_pairs()
        bad = check_no_triple_intersection(dirty, Fraction(1, 16))
        assert bad.triples == [(2, 4, 6)]


def test_criterion_6_solver_soundness_and_quality():
    """Certified covers everywhere; greedy within (1 + ln W) of the known
    optimum; both solvers hit exactly 3 on the 3-prong comb."""
    import math
    with Budget(6, 300):
        square = load_polygon([(1, 1), (9, 1), (9, 9), (1, 9)])
        m3 = comb(3)

        for m, cfg in ((square, SolveConfig(rng_seed=0)),
                       (m3, SolveConfig(rng_seed=0)),
                       (channel(), SolveConfig(
                           candidate_strategy=STRATEGY_ADAPTIVE,
                           rng_seed=0))):
            result = eh_solve(m, cfg)
            assert result.certified

        cands = default_candidates(m3)
        witnesses = build_witnesses(
            m3, [visibility_polygon(m3, c) for c in cands])
        greedy = greedy_cover(m3, cands, witnesses)
        assert greedy.certified

        base = [c for c in cands if c.y == Fraction(3, 2)]
        opt = brute_force_optimum(m3, base, witnesses, k_max=3)
        assert not isinstance(opt, NoneWithin)
        assert len(opt) == 3
        w = len(witnesses)
        assert len(greedy.guards) <= (1 + math.log(w)) * len(opt)
        assert len(greedy.guards) == 3
        assert len(eh_solve(m3, SolveConfig(rng_seed=0)).guards) == 3


def test_criterion_7_visibility_oracle_equivalence():
    """200 random (polygon, viewpoint) pairs: the visibility polygon's
    exact area equals the independent per-edge clip oracle's area."""
    with Budget(7, 180):
        import random
        checked = 0
        seed = 0
        while checked < 200:
            n = 6 + (seed % 5)
            m = random_polygon(n, 20, seed=seed)
            rng = random.Random(seed)
            seed += 1
            for x in _interior_points(m, 3, rng):
                vp = visibility_polygon(m, x)
                assert vp.area() == visibility_area_oracle(
                    list(m.vertices), x)
                checked += 1
                if checked == 200:
                    break
        assert checked == 200


def test_criterion_8_solver_output_byte_identical(tmp_path):
    """cmd_solve twice with the same seed: byte-identical JSON."""
    with Budget(8, 60):
        poly = tmp_path / "square.txt"
        poly.write_text("1 1\n9 1\n9 9\n1 9\n")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["solve", str(poly), "--seed", "13",
                         "-o", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        json.loads(outs[0])  # well-formed
