#!/usr/bin/env python3
"""Repeated-sample benchmark of the lp-sram-suite campaigns.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record     # re-record perfbench/refs/*.json

Builds `perfbench-worker` (a package of its own, see perfbench/Cargo.toml),
then runs one workload pass per fresh worker process until `--seconds` have
passed (at least MIN_PASSES passes). With `--trace 0` every pass is an
untraced campaign call and the end-to-end metrics are reported; with
`--trace 1` untraced and traced passes alternate and the per-layer metrics
are reported. Every pass's outputs are checked against the shipped
references. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("table2_grid", "array_map", "drv_montecarlo")
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
# Seeds recorded by --record: the default seed 0 plus held-out seeds. The
# array and Monte Carlo workloads draw their inputs from one of 16 input
# sets (seed % 16), so recording seeds 0..15 covers every seed.
RECORD_SEEDS = {
    "table2_grid": (0, 1),
    "array_map": tuple(range(16)),
    "drv_montecarlo": tuple(range(16)),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the worker; returns its path or exits non-zero."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: building the worker failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench-worker")


def run_pass(worker, workload, seed, traced, pass_id):
    """Runs one pass in a fresh worker process; returns its JSON record."""
    cmd = [worker, "--workload", workload, "--seed", str(seed),
           "--pass", str(pass_id)]
    if traced:
        cmd.append("--traced")
    cmd += ["--spawn-ns", str(time.time_ns())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: pass {pass_id} of {workload} exceeded {PASS_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: pass {pass_id} of {workload} failed ({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_refs(workload):
    path = os.path.join(REFS, f"{workload}.json")
    with open(path) as f:
        return json.load(f)["input_sets"]


def error_points(record, refs):
    """Failed points plus points whose output differs from the reference."""
    expected = refs.get(record["input_set"])
    if expected is None:
        return record["attempted"]
    got = record["outputs"]
    keys = set(expected) | set(got)
    mismatched = sum(1 for k in keys if expected.get(k) != got.get(k))
    points_per_key = max(1, record["attempted"] // max(1, len(expected)))
    return min(record["attempted"], record["failed"] + mismatched * points_per_key)


# ------------------------------------------------------------ span analysis

def self_times(spans):
    """Span id -> duration minus the part its direct children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time.get(s["id"], 0.0) for s in spans}


def nearest_rank(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(record):
    """Per-layer metrics of one traced pass, measured from its spans and its
    obs counter deltas. Absent obs counters read 0."""
    spans = record["spans"]
    own = self_times(spans)
    counters = record["registry"]["counters"]
    hists = record["registry"]["histograms"]

    def c(name):
        return counters.get(name, 0)

    def named(name, pred=lambda s: True):
        return [s for s in spans if s["name"] == name and pred(s)]

    def self_s(name, pred=lambda s: True):
        return sum(own[s["id"]] for s in named(name, pred))

    def iters(name):
        return sum(s["iterations"] for s in named(name))

    def attr_sum(name, key):
        return sum(s.get(key, 0.0) for s in named(name))

    m = {}
    points = [(s["end"] - s["start"]) * 1e3 for s in named("drftest.point")]
    m["drftest.points"] = len(points)
    m["drftest.point_p50_ms"] = nearest_rank(points, 0.50)
    m["drftest.point_p95_ms"] = nearest_rank(points, 0.95)
    m["drftest.context.self_s"] = self_s("drftest.context")
    m["regulator.healthy_seed.self_s"] = self_s("regulator.healthy_seed")
    mr = "regulator.min_resistance"
    m[mr + ".calls"] = len(named(mr))
    m[mr + ".self_s"] = self_s(mr)
    m[mr + ".dc_self_s"] = self_s(mr, lambda s: not s.get("transient"))
    m[mr + ".transient_self_s"] = self_s(mr, lambda s: s.get("transient"))
    m[mr + ".us_per_iteration"] = ratio(m[mr + ".self_s"] * 1e6, iters(mr))
    m["sram.drv.calls"] = len(named("sram.drv"))
    m["sram.drv.self_s"] = self_s("sram.drv")
    m["sram.drv.evaluations"] = hists.get("sram.drv.evaluations", {}).get("sum", 0)
    m["sram.drv.us_per_iteration"] = ratio(m["sram.drv.self_s"] * 1e6, iters("sram.drv"))
    m["sram.array_build.self_s"] = self_s("sram.array_build")
    m["sram.retained.self_s"] = self_s("sram.retained")
    sa = "anasim.solve_array"
    m[sa + ".calls"] = len(named(sa))
    m[sa + ".self_s"] = self_s(sa)
    m[sa + ".iterations"] = attr_sum(sa, "iterations")
    m[sa + ".unknowns"] = max((s.get("unknowns", 0) for s in named(sa)), default=0)
    m[sa + ".us_per_iteration"] = ratio(m[sa + ".self_s"] * 1e6, m[sa + ".iterations"])
    m["anasim.sparse.lu_nnz"] = max((s.get("lu_nnz", 0) for s in named(sa)), default=0)
    shared, rebuilt = c("schur.blocks_shared"), c("schur.blocks_rebuilt")
    m["anasim.schur.blocks_shared"] = shared
    m["anasim.schur.blocks_rebuilt"] = rebuilt
    m["anasim.schur.share_ratio"] = ratio(shared, shared + rebuilt)
    m["anasim.schur.interface_unknowns"] = ratio(c("schur.interface_unknowns"), m[sa + ".calls"])
    solves = c("anasim.solve.count")
    newton_iters = hists.get("anasim.solve.iterations", {}).get("sum", 0)
    m["anasim.newton.solves"] = solves
    m["anasim.newton.iterations"] = newton_iters
    m["anasim.newton.iterations_per_solve"] = ratio(newton_iters, solves)
    m["anasim.newton.rescues"] = sum(v for k, v in counters.items()
                                     if k.startswith("anasim.rescue.") and k != "anasim.rescue.plain")
    m["anasim.newton.failed"] = c("anasim.solve.failed")
    m["anasim.transient.steps"] = c("anasim.transient.steps")
    applied, fallbacks = c("rank1.applied"), c("rank1.fallback")
    m["anasim.rank1.applied"] = applied
    m["anasim.rank1.fallbacks"] = fallbacks
    m["anasim.rank1.useful_ratio"] = ratio(applied, applied + fallbacks)
    hits, misses = c("refactor.cache.hit"), c("refactor.cache.miss")
    m["anasim.factor_cache.hits"] = hits
    m["anasim.factor_cache.misses"] = misses
    m["anasim.factor_cache.hit_ratio"] = ratio(hits, hits + misses)
    root = [s for s in spans if s["parent"] is None]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in {r["id"] for r in root})
    m["obs.trace.span_coverage"] = ratio(covered, sum(r["end"] - r["start"] for r in root))
    return m


# ------------------------------------------------------------------- modes

def record(worker):
    """Re-records the reference outputs of every workload."""
    os.makedirs(REFS, exist_ok=True)
    for workload in WORKLOADS:
        sets = {}
        for seed in RECORD_SEEDS[workload]:
            rec = run_pass(worker, workload, seed, False, 0)
            if rec["failed"]:
                sys.exit(f"perfbench: {workload} seed {seed} has {rec['failed']} failed points")
            previous = sets.setdefault(rec["input_set"], rec["outputs"])
            if previous != rec["outputs"]:
                sys.exit(f"perfbench: {workload} seed {seed} disagrees with an earlier seed "
                         f"of input set {rec['input_set']}")
            log(f"recorded {workload} seed {seed} ({rec['wall_s']:.3f} s)")
        with open(os.path.join(REFS, f"{workload}.json"), "w") as f:
            json.dump({"workload": workload, "seeds": list(RECORD_SEEDS[workload]),
                       "input_sets": sets}, f, indent=1, sort_keys=True)
            f.write("\n")


def metric_units(kind):
    """Metric name -> unit, as BENCHMARK.json lists them under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def measure(worker, workload, seed, seconds, trace):
    refs = load_refs(workload)
    untraced, traced = [], []
    start = time.monotonic()
    # Start another pass (or traced pair) only if it should end within
    # `seconds`, so a run lasts about `seconds` whatever the pass length.
    while True:
        elapsed = time.monotonic() - start
        rounds = len(untraced)
        if rounds >= MIN_PASSES and elapsed + elapsed / rounds > seconds:
            break
        untraced.append(run_pass(worker, workload, seed, False, len(untraced) + len(traced)))
        if trace:
            traced.append(run_pass(worker, workload, seed, True, len(untraced) + len(traced)))
    passes = untraced + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(error_points(r, refs) for r in passes)
    # Every pass, traced or not, must reproduce the first pass exactly.
    agree = all(r["outputs"] == passes[0]["outputs"] for r in passes)
    if not agree:
        log("perfbench: passes disagree on their outputs")
    correct = failed == 0 and agree

    def med(key, recs):
        return statistics.median(r[key] for r in recs)

    if not trace:
        values = {
            "wall_s": med("wall_s", untraced),
            "setup_s": med("setup_s", untraced),
            "peak_rss_mb": med("peak_rss_mb", untraced),
            "correct_ratio": 1.0 - failed / attempted,
        }
        units = metric_units("end_to_end")
        log(f"{workload} seed {seed}: {len(untraced)} untraced passes, wall_s "
            + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
    else:
        per_pass = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        # Each named span set must cover the pass: report the worst pass.
        values["obs.trace.span_coverage"] = min(p["obs.trace.span_coverage"] for p in per_pass)
        values["obs.trace.overhead_s"] = med("wall_s", traced) - med("wall_s", untraced)
        values["error_rate"] = failed / attempted
        units = metric_units("per_layer")
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w") as f:
            json.dump([s for r in traced for s in r["spans"]], f)
        log(f"{workload} seed {seed}: {len(untraced)} untraced + {len(traced)} traced passes")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-record the reference outputs instead of measuring")
    a = p.parse_args()
    if not a.record and not a.workload:
        p.error("--workload is required")
    if a.seed < 0:
        p.error("--seed must be non-negative")
    worker = build()
    if a.record:
        record(worker)
    else:
        measure(worker, a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
