"""`solve` output pinned byte for byte on fixed fixtures.

The JSON under ``golden/`` was written by ``gridguards solve``: the comb
and random fixtures with the masks decided by ``sees`` for every
candidate-witness pair, the channel ones with the arrangement's earlier
clearance-offset witnesses.  Any change to the kernel, the arrangement or
the solver must reproduce it exactly.
"""

from pathlib import Path

import pytest

from gridguards.cli import main
from gridguards.generate import channel, comb, random_polygon
from gridguards.persistence import write_polygon

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
