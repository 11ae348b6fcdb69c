"""`solve` output and visibility overlays pinned on fixed fixtures.

``golden/solve-*.json`` was written by ``gridguards solve`` with the
lazy witnesses: a set that starts at the polygon's vertices and gains each
point the certifier finds unseen.  Any change to the kernel, the
arrangement or the solver must reproduce it exactly.

``golden/lemmas-*-seed1.json`` pins the ``verify-lemmas`` reports of the
three benchmark fixtures at 16 samples and of the pinhole bad-region probe,
as the Fraction grid rounding wrote them.  The probe's violation text names
the surrounding-grid points, so it also pins their order.  The reports of
the three benchmark fixtures at seeds 0 and 2, and of triple-pairs and
comb 3 at seed 1, were written by the Fraction bad-region membership,
sampler and cone test.

``golden/certify-*.json`` pins the text of ``verify_coverage`` results
(``Covered``, or ``Uncovered x y`` with the witness) as the Fraction
``sees`` and the fixed guard order wrote them: the four ``certify``
benchmark cases at seeds 1-3, rebuilt here from the same placement and
cell-centre recipe, and every single-vertex and the all-vertex guard set
on comb 3, channel and the pinhole polygon.

``golden/analyze-*.json`` pins the ``analyze`` reports of comb 3 and the
two general-position fixtures as the Fraction extension lines, their
Fraction intersections and the Fraction ear clipping wrote them.

``golden/analyze-*-s*.svg`` pins the bad-region drawing of ``analyze
--svg`` on the channel and the two general-position fixtures, at
``--s-exponent`` 3 and 0, as the Fraction half-plane clipping wrote it.

``golden/arrangement-digests.json`` pins the arrangement of seven
visibility overlays (the four ``certify`` benchmark inputs at seed 0, the
comb-3 solve overlay, the default-candidate overlay of
``random_polygon(10, 30, 0)`` and the overlay ``check_local_visibility``
builds for the bad-region probe, whose endpoints have L^-E denominators)
by a sha256 of its nodes, edges, face cycles and representatives, in
order, as the arrangement with Fraction node keys wrote them.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gridguards.arrangement import build_arrangement
from gridguards.cli import main
from gridguards.generate import (
    channel,
    comb,
    concurrent_pairs,
    counterexample_polygon,
    random_polygon,
    triple_pairs,
)
from gridguards.geometry import pt
from gridguards.grid import Covered, guard_set, verify_coverage
from gridguards.persistence import write_polygon
from gridguards.polygon import load_polygon
from gridguards.solver import default_candidates
from gridguards.visibility import overlay_segments, visibility_polygon

from oracles import representatives

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = {
    "channel": channel,
    "comb2": lambda: comb(2),
    "comb3": lambda: comb(3),
    "random-6-8-2": lambda: random_polygon(6, 8, seed=2),
}


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_solve_json_matches_golden(tmp_path, name, seed):
    poly = tmp_path / f"{name}.txt"
    write_polygon(FIXTURES[name](), str(poly))
    out = tmp_path / "solve.json"
    assert main(["solve", str(poly), "--seed", str(seed),
                 "-o", str(out)]) == 0
    expected = GOLDEN / f"solve-{name}-seed{seed}.json"
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("name", ("channel", "deshpande", "blocking"))
def test_lemma_reports_match_golden(tmp_path, name):
    out = tmp_path / "lemmas.json"
    assert main(["verify-lemmas", "--fixture", name, "--samples", "16",
                 "--seed", "1", "-o", str(out)]) == 0
    expected = GOLDEN / f"lemmas-{name}-seed1.json"
    assert out.read_bytes() == expected.read_bytes()


LEMMA_SEEDS = [(name, seed) for name in ("channel", "deshpande", "blocking")
               for seed in (0, 2)] + [("triple-pairs", 1), ("comb3", 1)]


@pytest.mark.parametrize("name, seed", LEMMA_SEEDS)
def test_lemma_reports_match_golden_at_seed(tmp_path, name, seed):
    out = tmp_path / "lemmas.json"
    assert main(["verify-lemmas", "--fixture", name, "--samples", "16",
                 "--seed", str(seed), "-o", str(out)]) == 0
    expected = GOLDEN / f"lemmas-{name}-seed{seed}.json"
    assert out.read_bytes() == expected.read_bytes()


def test_bad_region_probe_matches_golden(tmp_path):
    out = tmp_path / "probe.json"
    assert main(["verify-lemmas", "--fixture", "deshpande",
                 "--check", "local-visibility", "--at", "bad-region",
                 "--seed", "1", "-o", str(out)]) == 4
    expected = GOLDEN / "lemmas-bad-region-probe-seed1.json"
    assert out.read_bytes() == expected.read_bytes()


ANALYZE_FIXTURES = {
    "comb3": lambda: comb(3),
    "concurrent-pairs": concurrent_pairs,
    "triple-pairs": triple_pairs,
}


@pytest.mark.parametrize("name", sorted(ANALYZE_FIXTURES))
def test_analyze_json_matches_golden(tmp_path, name):
    poly = tmp_path / f"{name}.txt"
    write_polygon(ANALYZE_FIXTURES[name](), str(poly))
    out = tmp_path / "analyze.json"
    assert main(["analyze", str(poly), "-o", str(out)]) == 0
    expected = GOLDEN / f"analyze-{name}.json"
    assert out.read_bytes() == expected.read_bytes()


SVG_FIXTURES = {
    "channel": channel,
    "concurrent-pairs": concurrent_pairs,
    "triple-pairs": triple_pairs,
}


@pytest.mark.parametrize("exponent", (3, 0))
@pytest.mark.parametrize("name", sorted(SVG_FIXTURES))
def test_analyze_svg_matches_golden(tmp_path, name, exponent):
    poly = tmp_path / f"{name}.txt"
    write_polygon(SVG_FIXTURES[name](), str(poly))
    svg = tmp_path / "bad.svg"
    assert main(["analyze", str(poly), "--s-exponent", str(exponent),
                 "-o", str(tmp_path / "analyze.json"),
                 "--svg", str(svg)]) == 0
    expected = GOLDEN / f"analyze-{name}-s{exponent}.svg"
    assert svg.read_bytes() == expected.read_bytes()


def coverage_text(m, guards):
    result = verify_coverage(m, guard_set(guards))
    if isinstance(result, Covered):
        return "Covered"
    return f"Uncovered {result.witness.x} {result.witness.y}"


def place(m, rng):
    """``m`` under a seeded grid symmetry and shift, as the benchmark's
    ``perfbench/workloads.py::place`` draws them."""
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


def cell_centres(m):
    corners = set(m.vertices)
    return [c for c in default_candidates(m) if c not in corners]


def certify_workload(seed):
    """The benchmark's ``certify`` cases at this seed: two covered sets
    (every vertex plus every k-th cell centre) and two one-guard combs."""
    rng = random.Random(seed)
    cases = {}
    for name, shape, k in (("channel", channel(), 2),
                           ("random10", random_polygon(10, 10, seed=0), 1)):
        m = place(shape, rng)
        chosen = cell_centres(m)[rng.randrange(k)::k]
        cases[name] = (m, list(m.vertices) + chosen)
    for prongs in (2, 3):
        m = place(comb(prongs), rng)
        cases[f"comb{prongs}-one-guard"] = (m, [rng.choice(cell_centres(m))])
    return cases


def certify_vertex_guards():
    """Each single vertex, and all vertices, as guards on three polygons."""
    cases = {}
    for name, m in (("comb3", comb(3)), ("channel", channel()),
                    ("pinhole", counterexample_polygon())):
        for i, v in enumerate(m.vertices):
            cases[f"{name}-vertex{i}"] = (m, [v])
        cases[f"{name}-all-vertices"] = (m, list(m.vertices))
    return cases


CERTIFY_GOLDEN = {
    **{f"certify-workload-seed{s}": (lambda s=s: certify_workload(s))
       for s in (1, 2, 3)},
    "certify-vertex-guards": certify_vertex_guards,
}


def certify_json(name):
    cases = CERTIFY_GOLDEN[name]()
    return json.dumps({k: coverage_text(m, gs) for k, (m, gs)
                       in cases.items()}, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CERTIFY_GOLDEN))
def test_coverage_results_match_golden(name):
    expected = GOLDEN / f"{name}.json"
    assert certify_json(name).encode() == expected.read_bytes()


def overlay_digest(m, viewpoints):
    """Segment and face counts and the sha256 of the arrangement of the
    viewpoints' visibility overlay."""
    segs, s = overlay_segments(
        m, [visibility_polygon(m, v) for v in viewpoints])
    arr = build_arrangement(segs, s)

    def xy(p):
        return [str(p.x), str(p.y)]
    text = json.dumps([
        [xy(p) for p in arr.nodes],
        [[[str(c) for c in u], [str(c) for c in v]] for u, v in arr.edges],
        [[xy(p) for p in cycle] for cycle in arr.face_cycles],
        [xy(p) for p in representatives(arr)]], separators=(",", ":"))
    return {"segments": len(segs), "faces": len(arr.face_cycles),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


DIGESTS = json.loads((GOLDEN / "arrangement-digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_overlay_arrangement_matches_digest(name):
    case = DIGESTS[name]
    m = load_polygon([(Fraction(x), Fraction(y)) for x, y in case["polygon"]])
    viewpoints = [pt(Fraction(x), Fraction(y)) for x, y in case["viewpoints"]]
    expected = {k: case[k] for k in ("segments", "faces", "sha256")}
    assert overlay_digest(m, viewpoints) == expected
