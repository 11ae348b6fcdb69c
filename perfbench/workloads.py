"""Seeded inputs, timed operations and output checks of each workload.

``make_inputs(workload, seed, workdir)`` generates the workload's inputs,
writes every polygon to ``workdir`` and reads it back to validate it.  It
returns the operations of one pass.  ``Op.run`` is the timed call and
returns the output as text; ``Op.check`` takes that text and returns None
when it is correct, else the reason it is wrong.

Polygon shapes come from fixed pools and the seed places each one with a
symmetry of the square grid (rotation or reflection) plus an integer shift,
and seeds the solver, the guard choice and the lemma sampling.  A placement
keeps the candidate grid, the visibility arrangement and so the amount of
work, which keeps a run's figures comparable from seed to seed; random
shapes of one size class vary several-fold in cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional


@dataclass
class Op:
    name: str
    run: Callable[[], str]
    check: Callable[[str], Optional[str]]
    guards: int = 0        # guard-set size returned, for guards_total
    checks: int = 0        # lemma instances checked, for checks_total


def _mod(layer: str):
    # looked up per call so that the tracer's rebinding is seen
    return sys.modules[f"gridguards.{layer}"]


def place(m, rng: random.Random):
    """``m`` under a seeded symmetry of the square grid and integer shift."""
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
    return _mod("polygon").load_polygon(out)


def write_validated(m, path: Path):
    """Write ``m`` to ``path`` and return it as read back, or raise."""
    persistence = _mod("persistence")
    persistence.write_polygon(m, str(path))
    back = persistence.read_polygon(str(path))
    if back.vertices != m.vertices:
        raise RuntimeError(f"{path} does not read back as written")
    return back


def call_cli(argv: List[str]) -> str:
    """``cli.main(argv)`` in this process; exit code and streams as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _mod("cli").main(argv)
    return json.dumps({"exit": rc, "stdout": out.getvalue(),
                       "stderr": err.getvalue()})


# ---- solve --------------------------------------------------------------

# (vertices, coordinate bound, generator seed) of random_polygon shapes.
# Each solves in about the same time, so the median operation of a pass is
# the middle of this group rather than a jump between two unlike ones.
SOLVE_POOL = [(5, 8, 0), (6, 8, 2), (6, 10, 1), (6, 8, 0), (6, 9, 2)]
SOLVE_COMBS = (1, 2)


def solve_op(name: str, m, path: Path, seed: int,
             optimum: Optional[int]) -> Op:
    op = Op(name=name, run=None, check=None)
    op.run = lambda: call_cli(["solve", str(path), "--seed", str(seed)])

    def check(text: str) -> Optional[str]:
        res = json.loads(text)
        if res["exit"] != 0:
            return f"exit {res['exit']}: {res['stderr'].strip()[-200:]}"
        doc = json.loads(res["stdout"])
        if not doc["certified"]:
            return "solver reports an uncertified cover"
        grid, geometry = _mod("grid"), _mod("geometry")
        guards = [geometry.pt(Fraction(x), Fraction(y))
                  for x, y in doc["guards"]]
        op.guards = len(guards)
        if optimum is not None and len(guards) != optimum:
            return f"{len(guards)} guards, optimum is {optimum}"
        result = grid.verify_coverage(m, grid.guard_set(guards))
        if not isinstance(result, grid.Covered):
            return f"re-certification failed: {result}"
        return None
    op.check = check
    return op


def solve_inputs(seed: int, workdir: Path) -> List[Op]:
    generate = _mod("generate")
    rng = random.Random(seed)
    ops = []
    for prongs in SOLVE_COMBS:
        path = workdir / f"comb{prongs}.txt"
        m = write_validated(place(generate.comb(prongs), rng), path)
        ops.append(solve_op(f"comb{prongs}", m, path, seed, prongs))
    for i, (n, bound, shape_seed) in enumerate(SOLVE_POOL):
        path = workdir / f"random{i}.txt"
        m = place(generate.random_polygon(n, bound, seed=shape_seed), rng)
        ops.append(solve_op(f"random{i}", write_validated(m, path), path,
                            seed, None))
    return ops


def stretch_inputs(seed: int, workdir: Path) -> List[Op]:
    """One solve at the scale of `generate --shape random --n 8` (M = 30)."""
    m = _mod("generate").random_polygon(8, 30, seed=seed)
    path = workdir / "random-n8.txt"
    return [solve_op("random-n8", write_validated(m, path), path, seed, None)]


# ---- certify ------------------------------------------------------------

CERTIFY_UNCOVERED = (2, 3)     # comb prongs guarded by a single cell centre


def cell_centres(m):
    solver = _mod("solver")
    corners = set(m.vertices)
    return [c for c in solver.default_candidates(m) if c not in corners]


def certify_op(name: str, m, guards, covered: bool) -> Op:
    grid = _mod("grid")
    gs = grid.guard_set(guards)

    def run() -> str:
        result = _mod("grid").verify_coverage(m, gs)
        if isinstance(result, grid.Covered):
            return "Covered"
        w = result.witness
        return f"Uncovered {w.x} {w.y}"

    def check(text: str) -> Optional[str]:
        if covered:
            return None if text == "Covered" else f"expected Covered: {text}"
        if not text.startswith("Uncovered "):
            return f"expected Uncovered: {text}"
        _, x, y = text.split()
        w = _mod("geometry").pt(Fraction(x), Fraction(y))
        if not _mod("polygon").point_in_polygon(m, w):
            return f"witness {w} outside the polygon"
        sees = _mod("visibility").sees
        if any(sees(m, g, w) for g in guards):
            return f"witness {w} is seen by a guard"
        return None
    return Op(name=name, run=run, check=check)


def certify_inputs(seed: int, workdir: Path) -> List[Op]:
    generate = _mod("generate")
    rng = random.Random(seed)
    # (name, shape, k): the guards are every vertex, which alone cover a
    # simple polygon, and every k-th in-polygon cell centre from a seeded
    # offset; sets this large keep build_arrangement above half the time
    covered = [("channel", generate.channel(), 2),
               ("random10", generate.random_polygon(10, 10, seed=0), 1)]
    ops = []
    for name, shape, k in covered:
        m = write_validated(place(shape, rng), workdir / f"{name}.txt")
        chosen = cell_centres(m)[rng.randrange(k)::k]
        ops.append(certify_op(name, m, list(m.vertices) + chosen, True))
    for prongs in CERTIFY_UNCOVERED:
        m = write_validated(place(generate.comb(prongs), rng),
                            workdir / f"comb{prongs}.txt")
        ops.append(certify_op(f"comb{prongs}-one-guard", m,
                              [rng.choice(cell_centres(m))], False))
    return ops


# ---- lemmas -------------------------------------------------------------

LEMMA_FIXTURES = ("channel", "deshpande", "blocking")
# a third of the CLI default of 50, so that a pass of all fixtures takes a
# few seconds and a run repeats it often enough for a steady median
LEMMA_SAMPLES = 16


def lemma_op(name: str, argv: List[str], expect_exit: int) -> Op:
    op = Op(name=name, run=lambda: call_cli(argv), check=None)

    def check(text: str) -> Optional[str]:
        res = json.loads(text)
        if res["exit"] != expect_exit:
            return (f"exit {res['exit']}, expected {expect_exit}: "
                    f"{res['stderr'].strip()[-200:]}")
        reports = json.loads(res["stdout"])
        op.checks = sum(r["instances_checked"] for r in reports)
        violated = [r["lemma_id"] for r in reports if r["status"] == "Violated"]
        if expect_exit == 0 and violated:
            return f"violated: {violated}"
        if expect_exit != 0 and not violated:
            return "the probe reports no violation"
        return None
    op.check = check
    return op


def lemmas_inputs(seed: int, workdir: Path) -> List[Op]:
    # the CLI builds its named fixtures; the seed drives the sampling
    ops = [lemma_op(name, ["verify-lemmas", "--fixture", name,
                           "--samples", str(LEMMA_SAMPLES),
                           "--seed", str(seed)], 0)
           for name in LEMMA_FIXTURES]
    # the pinhole counterexample probe must report its violation
    ops.append(lemma_op("bad-region-probe",
                        ["verify-lemmas", "--fixture", "deshpande",
                         "--check", "local-visibility", "--at", "bad-region",
                         "--seed", str(seed)], 4))
    return ops


WORKLOADS = {
    "solve": solve_inputs,
    "certify": certify_inputs,
    "lemmas": lemmas_inputs,
    # not in BENCHMARK.json: its one operation misses the deadline today
    "stretch": stretch_inputs,
}


def make_inputs(workload: str, seed: int, workdir: Path) -> List[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir)
