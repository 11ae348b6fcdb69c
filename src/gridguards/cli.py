"""Command-line entry point: solve, verify-lemmas, analyze, generate.

Exit codes: 0 success, 2 input or validation error (an output path that
cannot be written among them), 3 budget exhausted, 4 lemma violation
detected.  ``main`` is the one place where an error becomes an exit code;
the subcommands only raise.  All outputs are deterministic under a fixed
seed.  ``solve --strategy`` picks the candidates: FullCellSample (the
default) or Vertices.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .generate import (
    GenerationBudgetExceeded,
    blocking_fixture,
    channel,
    comb,
    concurrent_pairs,
    counterexample_polygon,
    random_polygon,
    triple_pairs,
)
from .lemmas import (
    LemmaReport,
    build_counterexample,
    check_cone_property,
    check_distance_lemma,
    check_grid_outside_bad,
    check_limited_blocking,
    check_local_visibility,
)
from .badregions import bad_region, check_no_triple_intersection
from .persistence import (
    FORMAT_JSON,
    FORMAT_TEXT,
    ParseError,
    IoError,
    SceneRender,
    read_polygon,
    write_polygon,
    write_svg,
    write_text,
)
from .polygon import (
    PolygonError,
    check_general_position,
    extensions,
    opposite_reflex_pairs,
    reflex_vertices,
)
from .solver import (
    STRATEGY_FULL,
    STRATEGY_VERTICES,
    RoundLimitExceeded,
    SolveConfig,
    eh_solve,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4

_FIXTURES = {
    "channel": channel,
    "deshpande": counterexample_polygon,
    "triple-pairs": triple_pairs,
    "concurrent-pairs": concurrent_pairs,
    "comb3": lambda: comb(3),
    "blocking": lambda: blocking_fixture()[0],
}


def _emit_json(doc, path: Optional[str]) -> None:
    write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
               path or sys.stdout)


def cmd_solve(args) -> int:
    if args.max_rounds < 1:
        raise ValueError("--max-rounds must be at least 1")
    m = read_polygon(args.input)
    cfg = SolveConfig(
        candidate_strategy=args.strategy,
        max_rounds=args.max_rounds,
        rng_seed=args.seed)
    result = eh_solve(m, cfg)
    doc = {
        "guards": [[str(g.x), str(g.y)]
                   for g in result.guards.guards],
        "provenance": list(result.guards.provenance),
        # eh_solve returns only a cover that verify_coverage accepted
        "certified": True,
        "witness_count": result.witness_count,
        "rounds": result.rounds,
        "seed": args.seed,
        "strategy": args.strategy,
    }
    _emit_json(doc, args.output)
    if args.svg:
        write_svg(SceneRender(polygon=m, guards=result.guards.guards),
                  args.svg)
    return EXIT_OK


def _local_visibility(m, args) -> LemmaReport:
    if args.at == "bad-region":
        # the expected-failure probe of the pinhole counterexample
        fix = build_counterexample(3)
        a3 = fix.approach_points[2]
        fl = fix.polygon.L
        s = Fraction(1, 20 * fl)
        return check_local_visibility(fix.polygon, a3, s / (16 * fl),
                                      grid_exponent=1)
    L = m.L
    s = Fraction(1, L ** 3)
    return check_local_visibility(m, m.vertices[0], s / (16 * L))


# --check name -> check; `all` runs them in this order
_LEMMA_CHECKS = {
    "distances": lambda m, args: check_distance_lemma(m, seed=args.seed),
    "limited-blocking": lambda m, args: check_limited_blocking(
        m, samples=args.samples, seed=args.seed),
    "cone-property": lambda m, args: check_cone_property(
        m, samples=args.samples, seed=args.seed),
    "grid-outside-bad": lambda m, args: check_grid_outside_bad(
        m, samples=args.samples, seed=args.seed),
    "local-visibility": _local_visibility,
}


def cmd_verify_lemmas(args) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be at least 0")
    if args.at and args.check not in ("all", "local-visibility"):
        raise ValueError("--at applies only to --check local-visibility "
                         "or all")
    if args.fixture:
        m = _FIXTURES[args.fixture]()
    elif args.input:
        m = read_polygon(args.input)
    else:
        raise ValueError("need a polygon file or --fixture")
    names = list(_LEMMA_CHECKS) if args.check == "all" else [args.check]
    reports = [_LEMMA_CHECKS[name](m, args) for name in names]
    _emit_json([r.to_dict() for r in reports], args.output)
    if any(r.status == "Violated" for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.s_exponent < 0:
        raise ValueError("--s-exponent must be at least 0")
    m = read_polygon(args.input)
    s = Fraction(1, m.L ** args.s_exponent)
    pairs = opposite_reflex_pairs(m)
    gp = check_general_position(m)
    triple = check_no_triple_intersection(m, s)
    doc = {
        "n": m.n,
        "M": m.M,
        "L": m.L,
        "reflex_vertices": reflex_vertices(m),
        "opposite_pairs": [[p.r1, p.r2] for p in pairs],
        "extension_count": len(extensions(m)),
        "general_position": {
            "collinear_triples": [list(t) for t in gp.collinear_triples],
            "concurrent_extension_triples": [
                [str(p.x), str(p.y), list(idxs)]
                for p, idxs in gp.concurrent_extension_triples],
        },
        "s": str(s),
        "bad_region_triples": [list(t) for t in triple.triples],
    }
    _emit_json(doc, args.output)
    if args.svg:
        regions = tuple(bad_region(m, p, s) for p in pairs)
        write_svg(SceneRender(polygon=m, bad_regions=regions), args.svg)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.shape == "comb":
        m = comb(args.prongs)
    elif args.shape == "channel":
        m = channel()
    else:
        m = random_polygon(args.n, args.M, seed=args.seed)
    fmt = FORMAT_JSON if args.emit == "json" else FORMAT_TEXT
    write_polygon(m, args.output or sys.stdout, fmt)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridguards",
        description="Exact-arithmetic point-guard placement toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None)

    ps = sub.add_parser("solve", help="compute a certified guard set")
    common(ps)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--svg", default=None,
                    help="also write an SVG rendering to this path")
    ps.add_argument("input")
    ps.add_argument("--strategy",
                    choices=[STRATEGY_FULL, STRATEGY_VERTICES],
                    default=STRATEGY_FULL)
    ps.add_argument("--max-rounds", type=int, default=200,
                    help="reweighting rounds per search; the certifier "
                         "starts a new search for each point it adds")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify-lemmas", help="run the lemma checks")
    common(pv)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("input", nargs="?", default=None)
    pv.add_argument("--fixture", choices=sorted(_FIXTURES), default=None)
    pv.add_argument("--check", default="all",
                    choices=["all", *_LEMMA_CHECKS])
    pv.add_argument("--at", choices=["bad-region"], default=None)
    pv.add_argument("--samples", type=int, default=50)
    pv.set_defaults(func=cmd_verify_lemmas)

    pa = sub.add_parser("analyze", help="report structure of a polygon")
    common(pa)
    pa.add_argument("--svg", default=None,
                    help="also write an SVG rendering to this path")
    pa.add_argument("input")
    pa.add_argument("--s-exponent", type=int, default=3)
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="emit a fixture polygon")
    common(pg)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--shape", choices=["comb", "channel", "random"],
                    required=True)
    pg.add_argument("--prongs", type=int, default=3)
    pg.add_argument("--n", type=int, default=10)
    pg.add_argument("--M", type=int, default=30)
    pg.add_argument("--emit", choices=["text", "json"], default="text")
    pg.set_defaults(func=cmd_generate)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; the only place where an error becomes an exit
    code, with one ``error:`` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RoundLimitExceeded, GenerationBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, IoError, PolygonError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
