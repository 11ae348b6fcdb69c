"""Set-cover solvers over arrangement witnesses: greedy, brute force, nets."""

from collections import Counter
from fractions import Fraction

import pytest
from gridguards.generate import channel, comb
from gridguards.geometry import Point, cross, dot, pt
from gridguards.grid import Covered, guard_set, verify_coverage
from gridguards.polygon import load_polygon, point_in_cycle
from gridguards.solver import (
    NONE_WITHIN,
    STRATEGY_ADAPTIVE,
    STRATEGY_FULL,
    CombinatoricsBudgetExceeded,
    InfeasibleWitness,
    NoneWithin,
    RoundLimitExceeded,
    SolveConfig,
    brute_force_optimum,
    build_witnesses,
    default_candidates,
    eh_solve,
    greedy_cover,
)
from gridguards.visibility import visibility_polygon


def square():
    return load_polygon([(1, 1), (9, 1), (9, 9), (1, 9)])


def witnesses_of(m, cands):
    return build_witnesses(m, [visibility_polygon(m, c) for c in cands])


def test_default_candidates_square():
    m = square()
    cands = default_candidates(m)
    assert pt(1, 1) in cands                       # vertices included
    assert Point(Fraction(3, 2), Fraction(3, 2)) in cands  # cell centers
    assert all(c == sorted(set(cands), key=Point.key)[i]
               for i, c in enumerate(cands))       # sorted, deduplicated


def test_greedy_square_one_guard():
    m = square()
    cands = default_candidates(m)
    witnesses = witnesses_of(m, cands)
    result = greedy_cover(m, cands, witnesses)
    assert len(result.guards) == 1
    assert result.certified


def test_greedy_comb3_three_guards():
    m = comb(3)
    cands = default_candidates(m)
    witnesses = witnesses_of(m, cands)
    result = greedy_cover(m, cands, witnesses)
    assert len(result.guards) == 3
    assert result.certified


def test_brute_force_comb3_optimum_is_three():
    m = comb(3)
    # keep the subset lattice small: only base-strip cell centers
    cands = [c for c in default_candidates(m) if c.y == Fraction(3, 2)]
    assert len(cands) == 5
    witnesses = witnesses_of(m, default_candidates(m))
    best = brute_force_optimum(m, cands, witnesses, k_max=3)
    assert not isinstance(best, NoneWithin)
    assert len(best.guards) == 3
    assert isinstance(verify_coverage(m, best), Covered)
    # two guards cannot cover three prongs
    assert brute_force_optimum(m, cands, witnesses, k_max=2) is NONE_WITHIN


def test_brute_force_budget_guard():
    m = square()
    cands = default_candidates(m)
    witnesses = witnesses_of(m, cands)
    with pytest.raises(CombinatoricsBudgetExceeded):
        brute_force_optimum(m, cands, witnesses, k_max=len(cands))


def test_infeasible_witness_raised():
    m = comb(3)
    # a single base corner cannot see into every prong
    witnesses = witnesses_of(m, default_candidates(m))
    with pytest.raises(InfeasibleWitness):
        greedy_cover(m, [m.vertices[0]], witnesses)


def test_eh_solve_square():
    m = square()
    result = eh_solve(m, SolveConfig(rng_seed=7))
    assert result.certified
    assert len(result.guards) == 1
    assert result.witness_count >= 1


def test_eh_solve_comb3():
    m = comb(3)
    result = eh_solve(m, SolveConfig(rng_seed=3))
    assert result.certified
    assert len(result.guards) == 3


def test_eh_solve_deterministic_under_seed():
    m = channel()
    cands = list(m.vertices) + [pt(2, 5), pt(10, 5), pt(6, 2), pt(6, 9)]
    a = eh_solve(m, SolveConfig(rng_seed=11), candidates=cands)
    b = eh_solve(m, SolveConfig(rng_seed=11), candidates=cands)
    assert a.certified and b.certified
    assert a.guards == b.guards
    assert a.rounds == b.rounds


def test_eh_solve_adaptive_strategy_uses_vertices():
    m = channel()
    result = eh_solve(m, SolveConfig(candidate_strategy=STRATEGY_ADAPTIVE,
                                     rng_seed=0))
    assert result.certified
    assert all(g in m.vertices for g in result.guards.guards)


def test_eh_solve_round_budget():
    m = comb(3)
    with pytest.raises(RoundLimitExceeded):
        eh_solve(m, SolveConfig(max_rounds=1, rng_seed=0))


def test_eh_solve_infeasible_candidates():
    m = comb(3)
    with pytest.raises(InfeasibleWitness):
        eh_solve(m, SolveConfig(), candidates=[m.vertices[0]])


def test_witnesses_are_inside_polygon():
    m = channel()
    ws = witnesses_of(m, default_candidates(m))
    from gridguards.polygon import point_in_polygon
    assert len(ws) > 0
    assert all(point_in_polygon(m, p) for p in ws.points)


def test_eh_solve_call_counts(monkeypatch):
    """One solve computes each candidate's visibility polygon once, builds
    two arrangements (witnesses, certification) and calls sees() from the
    mask pass only for witnesses outside a candidate's visibility polygon on
    a ray from the candidate through a polygon vertex."""
    from gridguards import arrangement, grid, solver, visibility

    m = comb(3)
    cands = default_candidates(m)
    polygons = [visibility_polygon(m, c) for c in cands]
    witnesses = build_witnesses(m, polygons).points
    fallbacks = sum(
        1 for vp in polygons for w in witnesses
        if not point_in_cycle(vp.boundary, w)
        and any(cross(v - vp.viewpoint, w - vp.viewpoint) == 0
                and dot(v - vp.viewpoint, w - vp.viewpoint) > 0
                for v in m.vertices))
    assert fallbacks > 0

    calls = Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count(solver, "visibility_polygon")
    count(grid, "visibility_polygon")
    count(solver, "build_arrangement")
    count(arrangement, "build_arrangement")  # imported by verify_coverage
    # sees_from_polygon calls visibility's own binding; verify_coverage
    # calls grid's, which stays uncounted
    count(visibility, "sees")
    result = eh_solve(m, SolveConfig(rng_seed=0))
    assert result.certified and len(result.guards) == 3
    assert calls["visibility_polygon"] == len(cands) + len(result.guards)
    assert calls["build_arrangement"] == 2
    assert calls["sees"] == fallbacks
