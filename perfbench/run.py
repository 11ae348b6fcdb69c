"""The gridguards benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``solve``, ``certify`` and ``lemmas`` are the
measured ones; ``stretch`` runs the single solve that does not finish today.
The run repeats passes over the seeded operations, one operation at a time
and without threads, until ``--seconds`` have passed.
Every output is checked after the timed phase, and an operation that
raises, misses its deadline or gives a wrong answer counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an untraced
pass, a traced pass and another untraced pass, prints the per-layer metrics
of the traced pass and writes its spans to ``.perfbench/``; the untraced
outputs must be byte-identical before and after tracing.  ``--selfcheck``
runs the tracer self-check on a comb-3 solve instead of a workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# far above the slowest operation of a measured workload (about 5 s), and
# short enough that a run ends well within its 180 s
DEADLINE_S = 30.0
# sees() calls made from solver code in one comb-3 solve at the commit that
# introduced this benchmark: 2 x 2 059 (the mask loop runs twice)
ROADMAP_COMB3_SEES = 4118


class DeadlineExceeded(BaseException):
    """Raised in an operation by the deadline timer; not an Exception, so
    no handler in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_package() -> None:
    """Import every layer from the checkout's source, dropping old copies."""
    for name in [n for n in sys.modules
                 if n == layertrace.PACKAGE or n.startswith("gridguards.")]:
        del sys.modules[name]
    for layer in layertrace.LAYERS:
        importlib.import_module(f"gridguards.{layer}")
    origin = Path(sys.modules["gridguards"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"gridguards imported from {origin}, not {SRC}")


def setup(workload: str, seed: int, workdir: Path):
    """Import and build the inputs several times; return ops and median s."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_package()
        ops = workloads.make_inputs(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


def run_op(op, tracer=None, op_id=-1):
    """Time one operation under the deadline; return (seconds, out, error)."""
    if tracer is not None:
        tracer.op = op_id
    out = error = None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = f"missed the {DEADLINE_S:g} s deadline"
    except (Exception, SystemExit) as e:
        error = f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = -1
    return elapsed, out, error


def run_pass(ops, tracer=None):
    t0 = time.perf_counter()
    results = [run_op(op, tracer, i) for i, op in enumerate(ops)]
    return time.perf_counter() - t0, results


class Checker:
    """Checks each distinct (operation, output) once, outside timing."""

    def __init__(self, ops):
        self.ops = ops
        self.memo = {}

    def error(self, i, out, error):
        if error is not None:
            return error
        key = (i, out)
        if key not in self.memo:
            try:
                self.memo[key] = self.ops[i].check(out)
            except Exception as e:  # a malformed output is a wrong answer
                self.memo[key] = f"check raised {type(e).__name__}: {e}"
        return self.memo[key]


def op_tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    k = n - 10          # samples at or below the tail value
    return 100.0 * k / n, ordered[k - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(workload, seed, seconds, ops, setup_s):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops))
    checker = Checker(ops)
    failures = [(ops[i].name, checker.error(i, out, err))
                for _, results in passes
                for i, (_, out, err) in enumerate(results)]
    failed = [(name, e) for name, e in failures if e is not None]
    op_times = [t for _, results in passes for t, _, _ in results]
    attempted = len(op_times)
    tail = op_tail(op_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(w for w, _ in passes)
    op_p50 = statistics.median(op_times)

    print(f"# workload {workload} seed {seed}: {len(passes)} passes of "
          f"{len(ops)} ops, {attempted} ops, one client, no threads")
    print(f"# setup_s     {setup_s:.6f} s (median of {SETUP_REPEATS})")
    print(f"# wall_s      {wall_s:.6f} s (median pass)")
    print(f"# op_p50_s    {op_p50:.6f} s over {attempted} ops")
    if tail is None:
        print(f"# op_tail_s   absent: {attempted} ops, need 11")
    else:
        print(f"# op_tail_s   {tail[1]:.6f} s at p{tail[0]:.1f} over "
              f"{attempted} ops, 10 beyond")
    print(f"# fail_ratio  {len(failed) / attempted:.4f} "
          f"({len(failed)}/{attempted})")
    print(f"# peak_rss_mb {rss_mb:.1f} MB")
    for i, op in enumerate(ops):
        times = [results[i][0] for _, results in passes]
        print(f"# op {op.name:22s} {statistics.median(times):.6f} s, "
              f"median of {len(times)}")
    if workload in ("solve", "stretch"):
        print(f"# guards_total {sum(op.guards for op in ops)} count")
    if workload == "lemmas":
        print(f"# checks_total {sum(op.checks for op in ops)} count")
    for name, e in failed[:10]:
        print(f"# FAILED {name}: {e}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


# Per-layer metrics: (metric, kind, span or size name[, binding layer]).
PER_LAYER = [
    ("solver.eh_solve.self_s", "self", "solver.eh_solve"),
    ("solver.greedy_cover.s", "incl", "solver.greedy_cover"),
    ("solver.build_witnesses.s", "incl", "solver.build_witnesses"),
    ("solver.candidates", "size", "solver.candidates"),
    ("solver.witnesses", "size", "solver.witnesses"),
    ("solver.rounds", "size", "solver.rounds"),
    ("visibility.sees.calls", "calls", "visibility.sees"),
    ("visibility.sees.calls_from_solver", "calls", "visibility.sees", "solver"),
    ("visibility.sees.s", "incl", "visibility.sees"),
    ("visibility.sees.s_from_solver", "via", "visibility.sees", "solver"),
    ("visibility.visibility_polygon.calls", "calls",
     "visibility.visibility_polygon"),
    ("visibility.visibility_polygon.s", "incl",
     "visibility.visibility_polygon"),
    ("visibility.visible_subsegments.calls", "calls",
     "visibility.visible_subsegments"),
    ("visibility.visible_subsegments.s", "incl",
     "visibility.visible_subsegments"),
    ("arrangement.build_arrangement.calls", "calls",
     "arrangement.build_arrangement"),
    ("arrangement.build_arrangement.s", "incl", "arrangement.build_arrangement"),
    ("arrangement.segments", "size", "arrangement.segments"),
    ("arrangement.faces", "size", "arrangement.faces"),
    ("grid.verify_coverage.self_s", "self", "grid.verify_coverage"),
    ("grid.coverage_segments.s", "incl", "grid.coverage_segments"),
    ("grid.round_to_grid.calls", "calls", "grid.round_to_grid"),
    ("grid.round_to_grid.s", "incl", "grid.round_to_grid"),
    ("grid.surrounding_grid.calls", "calls", "grid.surrounding_grid"),
    ("grid.surrounding_grid.s", "incl", "grid.surrounding_grid"),
    ("polygon.point_in_polygon.calls", "calls", "polygon.point_in_polygon"),
    ("polygon.point_in_polygon.s", "incl", "polygon.point_in_polygon"),
    ("polygon.segment_in_polygon.calls", "calls", "polygon.segment_in_polygon"),
    ("polygon.segment_in_polygon.s", "incl", "polygon.segment_in_polygon"),
    ("polygon.triangulate.calls", "calls", "polygon.triangulate"),
    ("polygon.triangulate.s", "incl", "polygon.triangulate"),
    ("badregions.bad_region.calls", "calls", "badregions.bad_region"),
    ("badregions.in_bad_region.calls", "calls", "badregions.in_bad_region"),
    ("badregions.in_bad_region.s", "incl", "badregions.in_bad_region"),
    ("lemmas.check_distance_lemma.s", "incl", "lemmas.check_distance_lemma"),
    ("lemmas.check_limited_blocking.s", "incl",
     "lemmas.check_limited_blocking"),
    ("lemmas.check_cone_property.s", "incl", "lemmas.check_cone_property"),
    ("lemmas.check_grid_outside_bad.s", "incl",
     "lemmas.check_grid_outside_bad"),
    ("lemmas.check_local_visibility.s", "incl",
     "lemmas.check_local_visibility"),
    ("lemmas.skipped", "size", "lemmas.skipped"),
    ("geometry.orient.calls", "calls", "geometry.orient"),
    ("geometry.point_on_segment.calls", "calls", "geometry.point_on_segment"),
    ("geometry.ray_segment_params.calls", "calls",
     "geometry.ray_segment_params"),
    ("geometry.segment_intersection_point.calls", "calls",
     "geometry.segment_intersection_point"),
    ("persistence.read_polygon.s", "incl", "persistence.read_polygon"),
    ("cli.main.self_s", "self", "cli.main"),
] + [(f"{layer}.layer_self_s", "layer", layer)
     for layer in layertrace.LAYERS if layer not in layertrace.COUNT_ONLY]


def per_layer_metrics(tracer):
    incl, own, layer_own = tracer.span_times()
    out = {}
    for name, kind, key, *via in PER_LAYER:
        if kind == "calls":
            out[name] = metric(tracer.call_count(key, *via), "count")
        elif kind == "via":
            out[name] = metric(tracer.via_time(key, *via), "s")
        elif kind == "size":
            out[name] = metric(tracer.sizes.get(key, 0), "count")
        else:
            table = {"incl": incl, "self": own, "layer": layer_own}[kind]
            out[name] = metric(table.get(key, 0.0), "s")
    return out


def traced(tracer, call):
    """``call()`` with ``tracer`` installed; prove the originals are back."""
    before = layertrace.function_bindings()
    tracer.install()
    try:
        return call()
    finally:
        tracer.uninstall()
        layertrace.assert_restored(before)


def traced_run(workload, seed, ops, setup_s, workdir):
    wall_a, res_a = run_pass(ops)
    origin = time.perf_counter()
    setup_tracer, tracer = layertrace.LayerTracer(), layertrace.LayerTracer()
    traced_ops = traced(setup_tracer, lambda: workloads.make_inputs(
        workload, seed, workdir))
    wall_t, res_t = traced(tracer, lambda: run_pass(traced_ops, tracer))
    wall_b, res_b = run_pass(ops)

    checker = Checker(ops)
    failed = []
    for label, results in (("untraced", res_a), ("traced", res_t),
                           ("untraced after tracing", res_b)):
        for i, ((_, out, err), (_, out_a, _)) in enumerate(zip(results, res_a)):
            e = checker.error(i, out, err)
            if e is None and out != out_a:
                e = f"{label} output differs from the first untraced pass"
            if e is not None:
                failed.append((ops[i].name, e))
    attempted = 3 * len(ops)

    metrics = per_layer_metrics(tracer)
    metrics["generate.random_polygon.s"] = metric(
        setup_tracer.span_times()[0].get("generate.random_polygon", 0.0), "s")
    untraced = (wall_a + wall_b) / 2
    metrics["trace.wall_s"] = metric(wall_t, "s")
    metrics["trace.overhead_s"] = metric(wall_t - untraced, "s")
    metrics["guards_total"] = metric(sum(op.guards for op in ops), "count")
    metrics["checks_total"] = metric(sum(op.checks for op in ops), "count")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    doc = {"workload": workload, "seed": seed,
           "ops": [op.name for op in traced_ops],
           "setup": setup_tracer.dump(origin), "pass": tracer.dump(origin)}
    trace_path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")

    print(f"# workload {workload} seed {seed}: traced pass of {len(ops)} "
          f"ops; every wrapped binding restored")
    print(f"# setup_s {setup_s:.6f} s; untraced passes {wall_a:.6f} s and "
          f"{wall_b:.6f} s, traced {wall_t:.6f} s, tracing overhead "
          f"{wall_t - untraced:+.6f} s ({100 * (wall_t / untraced - 1):+.1f} %)")
    print(f"# {len(tracer.spans)} spans written to "
          f"{OUT.name}/{trace_path.name}")
    for name, m in metrics.items():
        print(f"# {name:44s} {m['value']:.6f} s "
              f"({100 * m['value'] / wall_t:5.1f} % of the traced pass)"
              if m["unit"] == "s" else
              f"# {name:44s} {m['value']} {m['unit']}")
    for name, e in failed[:10]:
        print(f"# FAILED {name}: {e}")
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def selfcheck(workdir):
    """Tracer self-check on a comb-3 solve.

    The tracer's count of sees() calls made from solver code must equal the
    count of a bare counter put on the solver's own binding; every wrapped
    name must be the original again afterwards; and the untraced output
    must be byte-identical before and after the traced solve.
    """
    import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "comb3.txt"
    generate = sys.modules["gridguards.generate"]
    m = workloads.write_validated(generate.comb(3), path)
    op = workloads.solve_op("comb3", m, path, 0, 3)
    _, out_before, err = run_op(op)

    tracer = layertrace.LayerTracer()
    bare = [0]

    def counted_solve():
        solver = sys.modules["gridguards.solver"]
        inner = solver.sees

        def counting(*args, **kwargs):
            bare[0] += 1
            return inner(*args, **kwargs)
        solver.sees = counting
        try:
            return run_op(op, tracer, 0)
        finally:
            solver.sees = inner

    restored, out_traced, err_traced = True, None, None
    try:
        _, out_traced, err_traced = traced(tracer, counted_solve)
    except RuntimeError as e:
        restored = str(e)
    _, out_after, err_after = run_op(op)
    from_solver = tracer.call_count("visibility.sees", "solver")
    report = {
        "sees_calls_from_solver": from_solver,
        "sees_calls_bare_counter": bare[0],
        "sees_calls_total": tracer.call_count("visibility.sees"),
        "candidates": tracer.sizes["solver.candidates"],
        "witnesses": tracer.sizes["solver.witnesses"],
        "roadmap_baseline": ROADMAP_COMB3_SEES,
        "matches_roadmap_baseline": from_solver == ROADMAP_COMB3_SEES,
        "restored": restored,
        "errors": [e for e in (err, err_traced, err_after) if e],
        "output_identical": out_before == out_traced == out_after,
    }
    ok = (from_solver == bare[0] > 0 and restored is True
          and not report["errors"] and report["output_identical"])
    return ok, report


def prepare() -> bool:
    """Import gridguards from this checkout's source only; arm deadlines."""
    if not (SRC / "gridguards" / "__init__.py").is_file():
        print(f"error: no gridguards source under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if not prepare():
        return 2
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        if args.selfcheck:
            ok, report = selfcheck(workdir)
            print(json.dumps(report, sort_keys=True))
            return 0 if ok else 1
        ops, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            result = traced_run(args.workload, args.seed, ops, setup_s,
                                workdir)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds,
                                  ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
