"""`solve` output and visibility overlays pinned on fixed fixtures.

The JSON under ``golden/`` was written by ``gridguards solve``: the comb
and random fixtures with the masks decided by ``sees`` for every
candidate-witness pair, the channel ones with the arrangement's earlier
clearance-offset witnesses.  Any change to the kernel, the arrangement or
the solver must reproduce it exactly.

``golden/lemmas-*-seed1.json`` pins the ``verify-lemmas`` reports of the
three benchmark fixtures at 16 samples and of the pinhole bad-region probe,
as the Fraction grid rounding wrote them.  The probe's violation text names
the surrounding-grid points, so it also pins their order.

``golden/arrangement-digests.json`` pins the arrangement of five
visibility overlays (the four ``certify`` benchmark inputs at seed 0 and
the comb-3 solve overlay) by a sha256 of its nodes, edges, face cycles
and representatives, in order, as the Fraction arrangement wrote them.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gridguards.arrangement import build_arrangement
from gridguards.cli import main
from gridguards.generate import channel, comb, random_polygon
from gridguards.geometry import pt
from gridguards.persistence import write_polygon
from gridguards.polygon import load_polygon
from gridguards.visibility import overlay_segments, visibility_polygon

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


def test_bad_region_probe_matches_golden(tmp_path):
    out = tmp_path / "probe.json"
    assert main(["verify-lemmas", "--fixture", "deshpande",
                 "--check", "local-visibility", "--at", "bad-region",
                 "--seed", "1", "-o", str(out)]) == 4
    expected = GOLDEN / "lemmas-bad-region-probe-seed1.json"
    assert out.read_bytes() == expected.read_bytes()


def overlay_digest(m, viewpoints):
    """Segment and face counts and the sha256 of the arrangement of the
    viewpoints' visibility overlay."""
    segs = overlay_segments(m, [visibility_polygon(m, v) for v in viewpoints])
    arr = build_arrangement(segs)

    def xy(p):
        return [str(p.x), str(p.y)]
    text = json.dumps([
        [xy(p) for p in arr.nodes],
        [[[str(c) for c in u], [str(c) for c in v]] for u, v in arr.edges],
        [[xy(p) for p in cycle] for cycle in arr.face_cycles],
        [xy(p) for p in arr.representatives]], separators=(",", ":"))
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
