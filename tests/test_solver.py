"""The lazy-witness solver, checked against the full-face reference
instance of oracles.py: greedy, brute force, nets."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards.arrangement import build_arrangement
from gridguards.generate import (
    blocking_fixture,
    channel,
    comb,
    counterexample_polygon,
    random_polygon,
)
from gridguards.geometry import Point, cleared, pt
from gridguards.grid import Covered, verify_coverage
from gridguards.polygon import load_polygon, point_in_polygon
from gridguards.solver import (
    STRATEGY_FULL,
    STRATEGY_VERTICES,
    InfeasibleWitness,
    RoundLimitExceeded,
    SolveConfig,
    _add_witness,
    default_candidates,
    eh_solve,
)
from gridguards.visibility import (
    overlay_segments,
    sees,
    visibility_polygon,
)

from oracles import (
    CombinatoricsBudgetExceeded,
    brute_force_optimum,
    full_instance,
    greedy_cover,
    in_visibility_polygon,
    masks_ref,
    representatives,
)


def square():
    return load_polygon([(1, 1), (9, 1), (9, 9), (1, 9)])


def overlay_witnesses(m, views):
    """One point per face of the views' visibility overlay: the witnesses
    verify_coverage asks about when the views are the guards."""
    return representatives(build_arrangement(*overlay_segments(
        m, [visibility_polygon(m, c) for c in views])))


def test_default_candidates_square():
    m = square()
    cands = default_candidates(m)
    assert pt(1, 1) in cands                       # vertices included
    assert Point(Fraction(3, 2), Fraction(3, 2)) in cands  # cell centers
    assert all(c == sorted(set(cands), key=Point.key)[i]
               for i, c in enumerate(cands))       # sorted, deduplicated


@given(st.integers(4, 10), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_default_candidates_match_point_in_polygon(n, seed):
    """The cell centres tested on the doubled integer polygon are those
    point_in_polygon keeps, in the same order."""
    m = random_polygon(n, 12, seed=seed)
    xs = [int(v.x) for v in m.vertices]
    ys = [int(v.y) for v in m.vertices]
    half = Fraction(1, 2)
    centres = [Point(i + half, j + half)
               for i in range(min(xs), max(xs) + 1)
               for j in range(min(ys), max(ys) + 1)]
    expected = set(m.vertices) | {c for c in centres if point_in_polygon(m, c)}
    assert default_candidates(m) == sorted(expected, key=Point.key)


def test_greedy_square_one_guard():
    m = square()
    result, verdict = greedy_cover(m, full_instance(m, default_candidates(m)))
    assert len(result.guards) == 1
    assert isinstance(verdict, Covered)


def test_greedy_comb3_three_guards():
    m = comb(3)
    result, verdict = greedy_cover(m, full_instance(m, default_candidates(m)))
    assert len(result.guards) == 3
    assert isinstance(verdict, Covered)


def test_brute_force_comb3_optimum_is_three():
    m = comb(3)
    # keep the subset lattice small: only base-strip cell centers
    cands = [c for c in default_candidates(m) if c.y == Fraction(3, 2)]
    assert len(cands) == 5
    inst = full_instance(m, cands)
    best = brute_force_optimum(inst, k_max=3)
    assert best is not None
    assert len(best.guards) == 3
    assert isinstance(verify_coverage(m, best), Covered)
    # two guards cannot cover three prongs
    assert brute_force_optimum(inst, k_max=2) is None


def test_brute_force_budget_guard():
    m = square()
    inst = full_instance(m, default_candidates(m))
    with pytest.raises(CombinatoricsBudgetExceeded):
        brute_force_optimum(inst, k_max=len(inst.candidates))


@pytest.mark.parametrize("fixture", [lambda: comb(2), lambda: comb(3),
                                     channel],
                         ids=["comb2", "comb3", "channel"])
def test_brute_force_cover_is_a_cover(fixture):
    """The instance's witnesses come from its own candidates' overlay, so a
    set that covers them covers P; the solver reaches the same size."""
    m = fixture()
    best = brute_force_optimum(full_instance(m, default_candidates(m)), 3)
    assert best is not None
    assert isinstance(verify_coverage(m, best), Covered)
    assert len(best) == len(eh_solve(m, SolveConfig(rng_seed=0)).guards)


def test_guards_tagged_by_their_search():
    """Every guard names the search that chose it: eh_solve's pruned net,
    the greedy cover (which eh_solve keeps when it is smaller), or the
    exact search of the tests' oracle."""
    m = comb(3)
    inst = full_instance(m, default_candidates(m))
    assert greedy_cover(m, inst)[0].guards.provenance == ("SolverGreedy",) * 3
    for fixture, seed, tag in ((comb(3), 3, "SolverNet"),
                               (comb(2), 0, "SolverGreedy")):
        result = eh_solve(fixture, SolveConfig(rng_seed=seed))
        assert result.guards.provenance == (tag,) * len(result.guards)
    cands = [c for c in default_candidates(m) if c.y == Fraction(3, 2)]
    best = brute_force_optimum(full_instance(m, cands), k_max=3)
    assert best.provenance == ("SolverExact",) * 3


def test_infeasible_witness_raised(monkeypatch):
    """A vertex, one of the starting witnesses, that no candidate sees
    (here the only candidate is a base corner) is refused before any
    search."""
    from gridguards import solver

    m = comb(3)
    monkeypatch.setattr(solver, "default_candidates",
                        lambda m: [m.vertices[0]])
    with pytest.raises(InfeasibleWitness, match="seen by no candidate"):
        eh_solve(m, SolveConfig(rng_seed=0))


def test_eh_solve_infeasible_candidates(monkeypatch):
    """The top-left corners of comb 3's prongs see every vertex but not
    all of P: the certifier names a point none of them sees, and the
    solver refuses it instead of searching on."""
    from gridguards import solver

    m = comb(3)
    corners = [pt(1, 6), pt(3, 6), pt(5, 6)]
    seen = 0
    for c in corners:
        seen |= in_visibility_polygon(visibility_polygon(m, c), m.vertices)
    assert seen == (1 << m.n) - 1
    certified = []
    inner = solver.verify_coverage

    def recording(m, g):
        certified.append(inner(m, g))
        return certified[-1]
    monkeypatch.setattr(solver, "default_candidates", lambda m: corners)
    monkeypatch.setattr(solver, "verify_coverage", recording)
    with pytest.raises(InfeasibleWitness, match="seen by no candidate"):
        eh_solve(m, SolveConfig(rng_seed=0))
    assert certified and not isinstance(certified[-1], Covered)


def test_eh_solve_square():
    m = square()
    result = eh_solve(m, SolveConfig(rng_seed=7))
    assert len(result.guards) == 1
    assert result.witness_count >= 1


def test_eh_solve_comb3():
    m = comb(3)
    result = eh_solve(m, SolveConfig(rng_seed=3))
    assert len(result.guards) == 3


def test_eh_solve_deterministic_under_seed():
    m = channel()
    cfg = SolveConfig(candidate_strategy=STRATEGY_VERTICES, rng_seed=11)
    a = eh_solve(m, cfg)
    b = eh_solve(m, cfg)
    assert a.guards == b.guards
    assert a.rounds == b.rounds


def test_eh_solve_adaptive_strategy_uses_vertices():
    m = channel()
    result = eh_solve(m, SolveConfig(candidate_strategy=STRATEGY_VERTICES,
                                     rng_seed=0))
    assert all(g in m.vertices for g in result.guards.guards)


def test_eh_solve_round_budget():
    m = comb(3)
    with pytest.raises(RoundLimitExceeded):
        eh_solve(m, SolveConfig(max_rounds=1, rng_seed=0))


@pytest.mark.parametrize("seed, k, rounds", [(2, 4, 242), (4, 5, 704)])
def test_round_budget_bounds_each_search(seed, k, rounds):
    """These solves run more than max_rounds rounds over their certifier
    searches, but no one search runs out, so they finish."""
    m = random_polygon(20, 30, seed=seed)
    result = eh_solve(m, SolveConfig(rng_seed=0))
    assert len(result.guards) == k
    assert result.rounds == rounds > SolveConfig().max_rounds
    assert isinstance(verify_coverage(m, result.guards), Covered)


@given(st.integers(5, 8), st.integers(0, 10 ** 6),
       st.sampled_from([STRATEGY_FULL, STRATEGY_VERTICES]),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_lazy_cover_covers_every_face(n, seed, strategy, rng_seed):
    """Each cover eh_solve returns also covers every face of the full
    reference instance over the same candidates."""
    m = random_polygon(n, 8, seed=seed)
    result = eh_solve(m, SolveConfig(candidate_strategy=strategy,
                                     rng_seed=rng_seed))
    cands = default_candidates(m) if strategy == STRATEGY_FULL else m.vertices
    inst = full_instance(m, cands)
    covered = 0
    for g in result.guards.guards:
        covered |= inst.masks[inst.candidates.index(g)]
    assert covered == inst.full
    assert result.witness_count >= len(m.vertices)


def place(m, rng):
    """The benchmark's placement of ``m``: a seeded symmetry of the square
    grid (swap, flip x, flip y) and a shift by 0-3 on each axis."""
    xs = [int(v.x) for v in m.vertices]
    ys = [int(v.y) for v in m.vertices]
    cx, cy = min(xs) + max(xs), min(ys) + max(ys)
    swap, flip_x, flip_y = (rng.random() < 0.5 for _ in range(3))
    dx, dy = rng.randint(0, 3), rng.randint(0, 3)
    out = []
    for x, y in zip(xs, ys):
        if flip_x:
            x = cx - x
        if flip_y:
            y = cy - y
        if swap:
            x, y = y, x
        out.append((x + dx, y + dy))
    return load_polygon(out)


def placed_comb2(seed):
    """The benchmark solve workload's comb 2 at this seed: placed after
    comb 1, from one generator."""
    rng = random.Random(seed)
    place(comb(1), rng)
    return place(comb(2), rng)


@pytest.mark.parametrize("fixture, seed", [
    *[(lambda s=s: placed_comb2(s), s) for s in (27, 157, 216, 278, 915)],
    (lambda: random_polygon(8, 12, seed=11), 0),
    (lambda: blocking_fixture()[0], 0)],
    ids=["comb2-27", "comb2-157", "comb2-216", "comb2-278", "comb2-915",
         "random-8-12-11", "blocking"])
def test_eh_solve_finds_two_guards(fixture, seed):
    """Inputs where the full-face solver returned 3 guards: the placed
    comb 2 of the benchmark at five seeds, whose optimum is 2, a small
    random polygon and the blocking fixture."""
    m = fixture()
    result = eh_solve(m, SolveConfig(rng_seed=seed))
    assert len(result.guards) == 2
    assert isinstance(verify_coverage(m, result.guards), Covered)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=25, deadline=None)
def test_witnesses_are_inside_polygon(n, seed, data):
    """Every overlay face lies in P: its boundary is in the overlay and
    every window chord lies in closed P, so no certifier witness needs a
    filter."""
    m = random_polygon(n, 8, seed=seed)
    views = data.draw(st.lists(st.sampled_from(default_candidates(m)),
                               min_size=1, max_size=8, unique=True))
    ws = overlay_witnesses(m, views)
    assert len(ws) > 0
    assert all(point_in_polygon(m, p) for p in ws)


@pytest.mark.parametrize("fixture", [
    channel, counterexample_polygon, lambda: blocking_fixture()[0]],
    ids=["channel", "deshpande", "blocking"])
def test_witnesses_are_inside_fixture_polygons(fixture):
    m = fixture()
    ws = overlay_witnesses(m, default_candidates(m))
    assert len(ws) > 0
    assert all(point_in_polygon(m, p) for p in ws)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=25, deadline=None)
def test_masks_match_reference(n, seed, data):
    """Batched membership on a visibility polygon's triples gives each
    candidate the mask that one test per witness on its boundary Points
    gives: for the vertices, the overlay's face witnesses and points with
    other denominators, mixed in one call."""
    m = random_polygon(n, 8, seed=seed)
    views = data.draw(st.lists(st.sampled_from(default_candidates(m)),
                               min_size=1, max_size=8, unique=True))
    ws = list(m.vertices) + overlay_witnesses(m, views)
    ws = data.draw(st.permutations(ws))
    assert [in_visibility_polygon(visibility_polygon(m, c), ws)
            for c in views] == list(masks_ref(m, views, ws))


@pytest.mark.parametrize("fixture", [
    lambda: comb(3), channel, counterexample_polygon,
    lambda: blocking_fixture()[0]],
    ids=["comb3", "channel", "deshpande", "blocking"])
def test_masks_match_reference_on_fixtures(fixture):
    m = fixture()
    inst = full_instance(m, default_candidates(m))
    assert tuple(in_visibility_polygon(visibility_polygon(m, c),
                                       inst.witnesses)
                 for c in inst.candidates) == inst.masks


def witness_side_masks(m, candidates, witnesses):
    """The candidates' masks as eh_solve builds them: the candidates
    cleared over one denominator, then each witness's row of seers, from
    the witness's own visibility polygon, ORed in as that witness's bit."""
    d, cs = cleared(*[c for p in candidates for c in (p.x, p.y)])
    points = list(zip(cs[0::2], cs[1::2]))
    masks = [0] * len(candidates)
    for bit, w in enumerate(witnesses):
        _add_witness(m, w, points, d, masks, bit)
    return masks


def assert_visibility_symmetric(m, candidates, witnesses):
    """Closed visibility is symmetric, so the witness-side rows, turned
    into candidate masks, equal the candidate-side masks: batched on each
    candidate's visibility polygon, and one test per pair in masks_ref."""
    masks = witness_side_masks(m, candidates, witnesses)
    assert masks == [in_visibility_polygon(visibility_polygon(m, c),
                                           witnesses) for c in candidates]
    assert tuple(masks) == masks_ref(m, candidates, witnesses)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=25, deadline=None)
def test_witness_rows_match_reference(n, seed, data):
    """The vertices, on the boundary, and the face points of the overlay
    of a few candidates' visibility polygons."""
    m = random_polygon(n, 8, seed=seed)
    cands = default_candidates(m)
    views = data.draw(st.lists(st.sampled_from(cands),
                               min_size=1, max_size=8, unique=True))
    assert_visibility_symmetric(
        m, cands, list(m.vertices) + overlay_witnesses(m, views))


# points on deshpande's line y = 6, which passes through both apexes of its
# pinhole: those on opposite sides see each other along a sightline of zero
# width, which sees() admits and neither one's visibility polygon holds
PINHOLE_LINE = [pt(1, 6), pt(5, 6), pt(17, 6), pt(20, 6)]


@pytest.mark.parametrize("fixture, extra", [
    (lambda: comb(3), []), (channel, []),
    (counterexample_polygon, PINHOLE_LINE),
    (lambda: blocking_fixture()[0], [])],
    ids=["comb3", "channel", "deshpande", "blocking"])
def test_witness_rows_match_reference_on_fixtures(fixture, extra):
    """The vertices, the extra points as candidates and witnesses both,
    and the faces of the overlay of the vertices and every sixth
    candidate."""
    m = fixture()
    cands = default_candidates(m) + extra
    views = list(m.vertices) + cands[::6]
    assert all(sees(m, a, b) for a in extra[:2] for b in extra[2:])
    assert_visibility_symmetric(
        m, cands, list(m.vertices) + extra + overlay_witnesses(m, views))


@pytest.mark.parametrize("fixture, witnesses, k", [
    (counterexample_polygon, 10, 2),
    (lambda: blocking_fixture()[0], 13, 2)],
    ids=["deshpande", "blocking"])
def test_eh_solve_large_fixtures(fixture, witnesses, k):
    result = eh_solve(fixture(), SolveConfig(rng_seed=0))
    assert result.witness_count == witnesses
    assert len(result.guards) == k


def test_eh_solve_call_counts(monkeypatch):
    """One solve clears its candidates once and computes one visibility
    polygon per witness and none per candidate; each certifier call
    computes its guards' polygons and builds one arrangement.  The solver
    calls sees() nowhere, and the certifier only to confirm an uncovered
    witness, once per guard."""
    from gridguards import grid, solver, visibility

    # a solve whose first cover misses a point, so the certifier runs twice
    m = random_polygon(8, 12, seed=11)
    calls = Counter()
    certified = []

    def count(module, name, key=None):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls[key or name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count(solver, "visibility_polygon")
    count(grid, "visibility_polygon")
    count(grid, "build_arrangement")  # verify_coverage's binding
    count(grid, "sees", "grid.sees")  # verify_coverage's binding
    count(solver, "sees")
    count(visibility, "sees")
    count(solver, "cleared", "solver.cleared")
    inner = solver.verify_coverage

    def recording(m, g):
        before = calls["grid.sees"]
        verdict = inner(m, g)
        certified.append((len(g), type(verdict).__name__,
                          calls["grid.sees"] - before))
        return verdict
    monkeypatch.setattr(solver, "verify_coverage", recording)
    result = eh_solve(m, SolveConfig(rng_seed=0))
    assert len(result.guards) == 2
    assert certified == [(2, "Uncovered", 2), (2, "Covered", 0)]
    assert result.witness_count == len(m.vertices) + 1 == 9
    assert calls["visibility_polygon"] == (
        result.witness_count + sum(n for n, _, _ in certified)) == 13
    assert calls["build_arrangement"] == len(certified)
    assert calls["sees"] == 0
    assert calls["solver.cleared"] == 1
