"""Set-cover solvers over arrangement witnesses: greedy, brute force, nets."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridguards.generate import (
    blocking_fixture,
    channel,
    comb,
    counterexample_polygon,
    random_polygon,
)
from gridguards.geometry import GeometryError, Point, pt
from gridguards.grid import Covered, guard_set, verify_coverage
from gridguards.polygon import load_polygon, point_in_polygon
from gridguards.solver import (
    STRATEGY_FULL,
    STRATEGY_VERTICES,
    CombinatoricsBudgetExceeded,
    CoverInstance,
    InfeasibleWitness,
    RoundLimitExceeded,
    SolveConfig,
    brute_force_optimum,
    build_witnesses,
    cover_instance,
    default_candidates,
    eh_solve,
    greedy_cover,
)
from gridguards.visibility import visibility_polygon

from oracles import masks_ref


def square():
    return load_polygon([(1, 1), (9, 1), (9, 9), (1, 9)])


def witnesses_of(m, cands):
    return tuple(w for w, _ in build_witnesses(
        m, [visibility_polygon(m, c) for c in cands]))


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
    result = greedy_cover(m, cover_instance(m, default_candidates(m)))
    assert len(result.guards) == 1
    assert result.certified


def test_greedy_comb3_three_guards():
    m = comb(3)
    result = greedy_cover(m, cover_instance(m, default_candidates(m)))
    assert len(result.guards) == 3
    assert result.certified


def test_brute_force_comb3_optimum_is_three():
    m = comb(3)
    # keep the subset lattice small: only base-strip cell centers
    cands = [c for c in default_candidates(m) if c.y == Fraction(3, 2)]
    assert len(cands) == 5
    inst = cover_instance(m, cands)
    best = brute_force_optimum(inst, k_max=3)
    assert best is not None
    assert len(best.guards) == 3
    assert isinstance(verify_coverage(m, best), Covered)
    # two guards cannot cover three prongs
    assert brute_force_optimum(inst, k_max=2) is None


def test_brute_force_budget_guard():
    m = square()
    inst = cover_instance(m, default_candidates(m))
    with pytest.raises(CombinatoricsBudgetExceeded):
        brute_force_optimum(inst, k_max=len(inst.candidates))


@pytest.mark.parametrize("fixture", [lambda: comb(2), lambda: comb(3),
                                     channel],
                         ids=["comb2", "comb3", "channel"])
def test_brute_force_cover_is_a_cover(fixture):
    """The instance's witnesses come from its own candidates' overlay, so a
    set that covers them covers P; the solver reaches the same size."""
    m = fixture()
    best = brute_force_optimum(cover_instance(m, default_candidates(m)), 3)
    assert best is not None
    assert isinstance(verify_coverage(m, best), Covered)
    assert len(best) == len(eh_solve(m, SolveConfig(rng_seed=0)).guards)


def test_guards_tagged_by_their_search():
    """Every guard names the search that chose it: eh_solve's pruned net,
    the greedy cover (which eh_solve keeps when it is smaller), or the
    exact search."""
    m = comb(3)
    inst = cover_instance(m, default_candidates(m))
    assert greedy_cover(m, inst).guards.provenance == ("SolverGreedy",) * 3
    for seed, tag in ((3, "SolverNet"), (5, "SolverGreedy")):
        result = eh_solve(m, SolveConfig(rng_seed=seed))
        assert result.guards.provenance == (tag,) * 3
    cands = [c for c in default_candidates(m) if c.y == Fraction(3, 2)]
    best = brute_force_optimum(cover_instance(m, cands), k_max=3)
    assert best.provenance == ("SolverExact",) * 3


def test_infeasible_witness_raised():
    m = comb(3)
    # a single base corner cannot see into every prong; eh_solve's own
    # candidates include every vertex, which together see all of P
    with pytest.raises(InfeasibleWitness):
        cover_instance(m, [m.vertices[0]])


def test_eh_solve_infeasible_candidates():
    """eh_solve picks its own candidates now; the greedy pass it runs still
    refuses an instance whose candidates (here one base corner) miss a
    witness, instead of looping on it."""
    m = comb(3)
    inst = cover_instance(m, m.vertices)
    corner = inst.candidates.index(m.vertices[0])
    single = CoverInstance((inst.candidates[corner],), inst.witnesses,
                           (inst.masks[corner],))
    assert single.masks[0] != single.full
    with pytest.raises(InfeasibleWitness):
        greedy_cover(m, single)


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
    cfg = SolveConfig(candidate_strategy=STRATEGY_VERTICES, rng_seed=11)
    a = eh_solve(m, cfg)
    b = eh_solve(m, cfg)
    assert a.certified and b.certified
    assert a.guards == b.guards
    assert a.rounds == b.rounds


def test_eh_solve_adaptive_strategy_uses_vertices():
    m = channel()
    result = eh_solve(m, SolveConfig(candidate_strategy=STRATEGY_VERTICES,
                                     rng_seed=0))
    assert result.certified
    assert all(g in m.vertices for g in result.guards.guards)


def test_eh_solve_round_budget():
    m = comb(3)
    with pytest.raises(RoundLimitExceeded):
        eh_solve(m, SolveConfig(max_rounds=1, rng_seed=0))


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=25, deadline=None)
def test_witnesses_are_inside_polygon(n, seed, data):
    """Every overlay face lies in P: its boundary is in the overlay and
    every window chord lies in closed P, so no witness needs a filter."""
    m = random_polygon(n, 8, seed=seed)
    views = data.draw(st.lists(st.sampled_from(default_candidates(m)),
                               min_size=1, max_size=8, unique=True))
    ws = witnesses_of(m, views)
    assert len(ws) > 0
    assert all(point_in_polygon(m, p) for p in ws)


@pytest.mark.parametrize("fixture", [
    channel, counterexample_polygon, lambda: blocking_fixture()[0]],
    ids=["channel", "deshpande", "blocking"])
def test_witnesses_are_inside_fixture_polygons(fixture):
    m = fixture()
    ws = witnesses_of(m, default_candidates(m))
    assert len(ws) > 0
    assert all(point_in_polygon(m, p) for p in ws)


@given(st.integers(5, 8), st.integers(0, 10 ** 6), st.data())
@settings(max_examples=25, deadline=None)
def test_masks_match_reference(n, seed, data):
    """The face walk gives every face the seers that one membership test
    per candidate and face gives it, faces that no candidate sees too;
    cover_instance's masks are those seers, transposed, or it refuses."""
    m = random_polygon(n, 8, seed=seed)
    views = sorted(data.draw(st.lists(st.sampled_from(default_candidates(m)),
                                      min_size=1, max_size=8, unique=True)),
                   key=Point.key)
    faces = build_witnesses(m, [visibility_polygon(m, c) for c in views])
    ref = masks_ref(m, views, [w for w, _ in faces])
    assert [seers for _, seers in faces] == [
        sum(1 << c for c, mask in enumerate(ref) if mask >> f & 1)
        for f in range(len(faces))]
    if all(seers for _, seers in faces):
        assert cover_instance(m, views).masks == ref
    else:
        with pytest.raises(InfeasibleWitness):
            cover_instance(m, views)


@pytest.mark.parametrize("fixture", [
    lambda: comb(3), channel, counterexample_polygon,
    lambda: blocking_fixture()[0]],
    ids=["comb3", "channel", "deshpande", "blocking"])
def test_masks_match_reference_on_fixtures(fixture):
    m = fixture()
    inst = cover_instance(m, default_candidates(m))
    assert inst.masks == masks_ref(m, inst.candidates, inst.witnesses)


def _drop_one_owner(arr):
    """Drop one chord from the owners of an edge with an end off the
    polygon's boundary: the faces around that end form a cycle, so the
    walk reaches one of them along two paths that now disagree."""
    on_boundary = {p for e, sides in zip(arr.edges, arr.edge_faces)
                   if min(sides) < 0 for p in e}
    i = next(i for i, (e, sides) in enumerate(zip(arr.edges, arr.edge_faces))
             if min(sides) >= 0 and e[0] not in on_boundary)
    arr.edge_segments[i] = arr.edge_segments[i][1:]


def _cut_off_last_face(arr):
    """Mark every side of the last face as unbounded, so no walk enters it."""
    last = len(arr.face_cycles) - 1
    arr.edge_faces[:] = [tuple(-1 if f == last else f for f in sides)
                         for sides in arr.edge_faces]


@pytest.mark.parametrize("corrupt, message", [
    (_drop_one_owner, "two different seer sets"),
    (_cut_off_last_face, "not reached")],
    ids=["dropped-owner", "unreached-face"])
def test_walk_refuses_an_inconsistent_arrangement(monkeypatch, corrupt,
                                                  message):
    from gridguards import solver

    inner = solver.build_arrangement

    def corrupted(segments):
        arr = inner(segments)
        corrupt(arr)
        return arr
    monkeypatch.setattr(solver, "build_arrangement", corrupted)
    m = comb(3)
    with pytest.raises(GeometryError, match=message):
        cover_instance(m, default_candidates(m))


@pytest.mark.parametrize("fixture, witnesses, k", [
    (counterexample_polygon, 3708, 2),
    (lambda: blocking_fixture()[0], 3809, 3)],
    ids=["deshpande", "blocking"])
def test_eh_solve_large_fixtures(fixture, witnesses, k):
    result = eh_solve(fixture(), SolveConfig(rng_seed=0))
    assert result.certified
    assert result.witness_count == witnesses
    assert len(result.guards) == k


def test_eh_solve_call_counts(monkeypatch):
    """One solve computes each candidate's visibility polygon once, builds
    two arrangements (witnesses, certification), decides its masks without
    a call to sees(), and tests membership only for the first face."""
    from gridguards import grid, solver, visibility

    m = comb(3)
    cands = default_candidates(m)
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
    count(grid, "build_arrangement")  # verify_coverage's binding
    # verify_coverage calls grid's binding of sees, which stays uncounted
    count(solver, "sees")
    count(visibility, "sees")
    count(solver, "in_visibility_polygon")
    result = eh_solve(m, SolveConfig(rng_seed=0))
    assert result.certified and len(result.guards) == 3
    assert calls["visibility_polygon"] == len(cands) + len(result.guards)
    assert calls["build_arrangement"] == 2
    assert calls["sees"] == 0
    assert calls["in_visibility_polygon"] == len(cands)
