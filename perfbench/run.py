#!/usr/bin/env python3
"""sedrec benchmark: one seeded workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload grid|hub|ingest --seed N \
        --seconds S --trace 0|1

Run from the repository root; sedrec is imported from ``src/``. Inputs are
generated from the seed before any timer starts and cached under
``.perfbench/inputs``. With ``--trace 0`` set-up and the workload's
operation sequence (op) repeat in turn while one more is expected to end
within ``--seconds`` of the start (they run at least once), and the
end-to-end metrics are reported: each timing is the fastest set-up, or the
sum over the op's steps of each step's fastest time (see README.md for
why). With ``--trace 1`` one untraced and one traced op run, then the traced
extras, and the per-layer metrics are reported. The last line of standard
output is the JSON result; the lines before it list every metric with its
unit. Traces go to ``.perfbench/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BURST_S = 0.5

# name -> unit for the per-layer metrics; workloads that do not run a layer
# report 0 for it (see perfbench/README.md).
PER_LAYER = {
    "kg.parse_s": "s", "kg.build_s": "s", "kg.rss_after_build_mb": "MB",
    "kg.save_s": "s", "kg.load_s": "s", "kg.triples": "count",
    "kg.parse_errors": "count", "kg.nodes": "count", "kg.edges": "count",
    "kg.snapshot_bytes": "bytes",
    "articles.tfidf_s": "s", "articles.context_words_s": "s",
    "articles.unresolved_seeds": "count",
    "subgraph.expand_s": "s", "subgraph.union_s": "s", "subgraph.adjacency_s": "s",
    "subgraph.union_members_p50": "count", "subgraph.union_members_p95": "count",
    "subgraph.union_members_max": "count", "subgraph.union_edges_sum": "count",
    "weighting.init_s": "s", "weighting.cost_calls": "count",
    "weighting.cost_distinct": "count", "weighting.cost_reuse_ratio": "ratio",
    "scoring.score_sed_s": "s", "scoring.seed_sets_s": "s",
    "scoring.tfidf_score_s": "s", "scoring.pair_pass_s": "s",
    "scoring.pair_p50_s": "s", "scoring.pair_p90_s": "s",
    "scoring.pair_samples": "count", "scoring.dijkstra_runs": "count",
    "scoring.pass_one_calls": "count", "scoring.pass_one_distinct": "count",
    "scoring.znorm_s": "s", "scoring.other_s": "s", "scoring.jobs2_speedup": "x",
    "evaluation.load_s": "s", "evaluation.evaluate_s": "s",
    "evaluation.ensemble_s": "s",
    "cli.score_s": "s", "cli.overhead_s": "s",
    "synthetic.generate_s": "s",
    "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_s": "s",
}

# span name -> per-layer metric holding its total time in the traced sequence
# and the traced extras
SPAN_METRICS = {
    "kg.parse": "kg.parse_s", "kg.save": "kg.save_s", "kg.load": "kg.load_s",
    "articles.tfidf": "articles.tfidf_s",
    "articles.context_words": "articles.context_words_s",
    "subgraph.expand": "subgraph.expand_s", "subgraph.union": "subgraph.union_s",
    "subgraph.adjacency": "subgraph.adjacency_s", "weighting.init": "weighting.init_s",
    "scoring.seed_sets": "scoring.seed_sets_s", "scoring.pair_pass": "scoring.pair_pass_s",
    "scoring.znorm": "scoring.znorm_s", "scoring.tfidf_score": "scoring.tfidf_score_s",
    "evaluation.load": "evaluation.load_s", "evaluation.evaluate": "evaluation.evaluate_s",
    "evaluation.ensemble": "evaluation.ensemble_s",
    "synthetic.generate": "synthetic.generate_s",
}
REBUILT_PARTS = ("scoring.seed_sets", "subgraph.expand", "subgraph.union",
                 "weighting.init", "scoring.pair_pass", "scoring.znorm")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def step_sums(samples: dict[str, list[float]], stat, item_steps: list[str]):
    """``stat`` of each step's times, summed over all steps and over the
    steps that process the items."""
    step_s = {name: stat(times) for name, times in samples.items()}
    return sum(step_s.values()), sum(step_s[name] for name in item_steps)


def timed_setup(wl, tracer, min_total_s: float) -> list[float]:
    """Wall times of full set-ups, repeated while they have taken under
    ``min_total_s`` (at least once, at most 50 times); the last one is kept."""
    times: list[float] = []
    while not times or (sum(times) < min_total_s and len(times) < 50):
        t = time.perf_counter()
        wl.setup(tracer)
        times.append(time.perf_counter() - t)
    return times


def end_to_end(wl, out, seconds: float, tracer) -> tuple[dict, dict]:
    start = time.perf_counter()
    # set-up runs again before every op, so its samples spread over the run
    # like the steps' do; another op runs while it is expected to end within
    # ``seconds`` of the start
    setups, ops = [], []
    while not ops or (time.perf_counter() - start + statistics.median(setups)
                      + statistics.median(o["run_s"] for o in ops)) <= seconds:
        setups += timed_setup(wl, tracer, SETUP_BURST_S)
        gc.collect()
        ops.append(wl.op(out, tracer, len(ops)))
        if len(ops) == 1:
            # a user's run is one op; later ops keep their outputs for the
            # checks, and how many fit in ``seconds`` varies
            peak_mb = peak_rss_mb()
    for i, op in enumerate(ops):
        wl.check(out, op, i)
    samples = {name: [o["steps"][name] for o in ops] for name in ops[0]["steps"]}
    run_s, item_s = step_sums(samples, min, ops[0]["item_steps"])
    median_run_s, median_item_s = step_sums(samples, statistics.median,
                                            ops[0]["item_steps"])
    metrics = {
        "setup_s": (min(setups), "s"),
        "run_s": (run_s, "s"),
        "items_per_s": (ops[0]["items"] / item_s, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    report = {
        wl.rate_name: (metrics["items_per_s"][0], "1/s"),
        "fail_ratio": (out.failed / max(out.attempted, 1), "ratio"),
        "ops": (len(ops), "count"),
        "setups": (len(setups), "count"),
        "op_run_s": ([round(o["run_s"], 3) for o in ops], "s"),
        "median_run_s": (median_run_s, "s"),
        f"median_{wl.rate_name}": (ops[0]["items"] / median_item_s, "1/s"),
    }
    f1 = [o["f1_gr50"] for o in ops if o.get("f1_gr50") is not None]
    if f1:
        report["f1_gr50"] = (f1[0], "ratio")
    return metrics, report


def traced(wl, out, tracer, workload: str, seed: int) -> tuple[dict, dict]:
    layer = {name: 0 for name in PER_LAYER}
    layer.update(members=[], pair_times=[])
    tracer.run_id = "setup"
    tracer.enabled = True
    layer["setup_s"] = timed_setup(wl, tracer, 0.0)[0]
    tracer.enabled = False
    untraced = wl.op(out, tracer, 0)
    wl.check(out, untraced, 0)
    tracer.enabled = True
    tracer.run_id = "op"
    op = wl.op(out, tracer, 1)
    wl.check(out, op, 1)
    layer["trace.untraced_run_s"] = untraced["run_s"]
    layer["trace.run_s"] = op["run_s"]
    layer["trace.overhead_s"] = op["run_s"] - untraced["run_s"]
    layer["scoring.score_sed_s"] = tracer.total("scoring.score_sed", run="op")
    wl.traced_extras(out, tracer, op, layer)

    for span, metric in SPAN_METRICS.items():
        layer[metric] += tracer.total(span)
    if layer["scoring.score_sed_s"]:
        layer["scoring.other_s"] = layer["scoring.score_sed_s"] - sum(
            tracer.total(s) for s in REBUILT_PARTS)
    members, pair_times = layer.pop("members"), layer.pop("pair_times")
    if members:
        layer["subgraph.union_members_p50"] = statistics.median_low(members)
        layer["subgraph.union_members_p95"] = sorted(members)[int(0.95 * (len(members) - 1))]
        layer["subgraph.union_members_max"] = max(members)
    if pair_times:
        q = statistics.quantiles(pair_times, n=10, method="inclusive")
        layer["scoring.pair_p50_s"] = statistics.median(pair_times)
        layer["scoring.pair_p90_s"] = q[8]
        layer["scoring.pair_samples"] = len(pair_times)
    if layer["weighting.cost_distinct"]:
        layer["weighting.cost_reuse_ratio"] = (layer["weighting.cost_calls"]
                                               / layer["weighting.cost_distinct"])
    extra = {k: v for k, v in layer.items() if k not in PER_LAYER}
    extra["csv_sha256"] = wl.digests
    extra["problems"] = out.problems
    tracer.dump(ROOT / ".perfbench" / f"trace-{workload}-s{seed}.json", extra)
    metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, {k: (v, "") for k, v in extra.items() if k != "problems"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grid", "hub", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sedrec" / "__init__.py").is_file():
        print(f"error: no sedrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs
    from tracing import Tracer
    from workloads import TMP, WORKLOADS, Outcome

    root = inputs.prepare(args.workload, args.seed)
    TMP.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](root, args.seed)
    out = Outcome()
    tracer = Tracer(enabled=False)
    if args.trace:
        metrics, report = traced(wl, out, tracer, args.workload, args.seed)
    else:
        metrics, report = end_to_end(wl, out, args.seconds, tracer)

    for p in out.problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **report}.items():
        if name != "csv_sha256":
            print(f"{args.workload:<7} {name:<30} {value!s:>24} {unit}")
    for label, digest in sorted(wl.digests.items()):
        print(f"{args.workload:<7} sha256 {label:<23} {digest}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
