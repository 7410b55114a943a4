#!/usr/bin/env python3
"""The verifier benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the library and the workload
runner from source (Release only) into $CARGO_TARGET_DIR, default
.bench_build, runs one workload in a fresh process for S seconds and
prints two JSON lines: the run's metadata (seed, host, build, commit,
failed_frac, serve working set) and, last, the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
they are the per-layer metrics of a traced run (perfbench/README.md has
the list and what each should move). Every answer is checked against a
reference; the command exits 1 after printing when any answer is wrong,
and exits 2 without a result when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402

WORKLOADS = ("fattree_ecmp", "f10_resilience", "chain_exact", "serve_mix")

END_TO_END = {
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "1/s",
    "warm_req_p50_ms": "ms",
    "warm_req_p99_ms": "ms",
    "warm_req_per_s": "1/s",
}

# Per-layer time metrics: metric name -> span name whose self time it is.
LAYER_SPANS = {
    "fdd.self_s": "fdd.compile",
    "markov.solve_s": "markov.solve",
    "routing.build_s": "routing.build",
    "analysis.query_s": "analysis.query",
    "serve.json_parse_s": "serve.json_parse",
    "parser.parse_s": "parser.parse",
    "ast.fingerprint_s": "ast.fingerprint",
    "serve.compile_s": "serve.compile",
    "serve.query_s": "serve.query",
    "store.open_s": "store.open",
}

# Per-layer counters, as the runner reports them: name -> unit.
LAYER_COUNTERS = {
    "fdd.inner_nodes": "count",
    "fdd.diagram_size": "count",
    "fdd.leaves": "count",
    "fdd.leaf_entries": "count",
    "fdd.leaf_max_bits": "bits",
    "markov.states_solved": "count",
    "markov.elim_ops": "count",
    "markov.fill_in": "count",
    "ast.program_nodes": "count",
    "analysis.queries": "count",
    "serve.errors": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.entries": "count",
    "store.warmed_entries": "count",
    "store.appends": "count",
    "store.file_bytes": "bytes",
    "store.dead_records": "count",
}

# Spans whose wall time the layer spans must account for, and the child
# spans that lie outside the measured time (freeing the verifiers after the
# last answer; the traced run's counter walk), left out of the coverage.
COVERED_SPANS = {"pass", "phase.cold", "phase.warm"}
UNMEASURED_SPANS = {"fdd.teardown", "trace.counters"}

RUN_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return (Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            ).resolve()


def build(bdir):
    """Configures (Release) and builds the runner; returns its path."""
    src = HERE.parent / "src"
    if not (src / "analysis" / "Verifier.h").is_file():
        fail("library sources not found next to perfbench/ (src/)")
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "perfbench-build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log_path, "w") as log:
        # Configured on every run: cmake refuses a build directory first
        # set up for another source tree, so a build directory shared
        # between checkouts never measures the other checkout's code.
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("cmake configure failed; see " + str(log_path))
        cmd = ["cmake", "--build", str(bdir), "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed; see " + str(log_path))
    cache = (bdir / "CMakeCache.txt").read_text().splitlines()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail("refusing a non-Release build in " + str(bdir))
    if "CMAKE_HOME_DIRECTORY:INTERNAL=" + str(HERE) not in cache:
        fail("build directory %s belongs to another source tree" % bdir)
    exe = bdir / "mcnk_perf"
    if not exe.is_file():
        fail("runner binary missing after build")
    return exe


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    root = HERE.parent
    files = sorted(p for d in ("src", "perfbench") for p in (root / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    if not (HERE.parent / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(HERE.parent), "rev-parse",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def trial_metrics(prefix, trials, seconds):
    """Request metrics of a batch run: one request per trial (a pass).

    ``trials`` holds each pass's latency (ms) as a one-element list and
    ``seconds`` each pass's wall time. Each trial's latency and rate are
    computed; the metric is the median over the trials. Returns the
    metrics and the tail reported for the median trial.
    """
    tails = sorted((perfstats.tail_percentile(t) for t in trials),
                   key=lambda t: t["value"])
    tail = tails[(len(tails) - 1) // 2]
    return {
        prefix + "req_p50_ms": statistics.median(
            [statistics.median(t) for t in trials]),
        prefix + "req_p99_ms": statistics.median([t["value"] for t in tails]),
        prefix + "req_per_s": statistics.median(
            [len(t) / d for t, d in zip(trials, seconds)]),
    }, dict(tail, trials=len(trials))


def run_metrics(prefix, latencies, seconds):
    """Request metrics of serve phases, over every request of the run.

    ``latencies`` holds the latency (ms) of every request of every phase
    of one kind in the run, and ``seconds`` each phase's wall time. The
    host's speed shifts in steps of a few seconds, so per-phase medians
    and rates split into two levels and their median jumps between them
    with the share of phases in each; percentiles and the rate over all
    the run's requests move with that share smoothly. Returns the metrics
    and the tail reported.
    """
    tail = perfstats.tail_percentile(latencies)
    return {
        prefix + "req_p50_ms": statistics.median(latencies),
        prefix + "req_p99_ms": tail["value"],
        prefix + "req_per_s": len(latencies) / sum(seconds),
    }, dict(tail, trials=len(seconds))


def end_to_end(r):
    """The end-to-end metrics of an untraced run, plus tail details."""
    m = {"verify_s": statistics.median(r["verify_s"]),
         "setup_s": statistics.median(r["setup_s"]),
         "peak_rss_mb": r["peak_rss_mb"]}
    if r["workload"] == "serve_mix":
        cold, cold_tail = run_metrics("", r["cold_latency_ms"],
                                      r["cold_phase_s"])
        warm, warm_tail = run_metrics("warm_", r["warm_latency_ms"],
                                      r["warm_phase_s"])
    else:
        # Batch workloads: one request is one whole verification pass;
        # the warm set is every pass after the process's first.
        secs = r["verify_s"]
        passes = [[x * 1e3] for x in secs]
        cold, cold_tail = trial_metrics("", passes, secs)
        warm, warm_tail = trial_metrics("warm_", passes[1:] or passes,
                                        secs[1:] or secs)
    m.update(cold)
    m.update(warm)
    return m, {"req_p99_ms": cold_tail, "warm_req_p99_ms": warm_tail}


def per_layer(r, spans):
    """The per-layer metrics of a traced run: {name: (value, unit)}."""
    layer = perfstats.layer_times(spans)
    out = {}
    for metric, span in LAYER_SPANS.items():
        out[metric] = (layer.get(span, 0.0), "s")
    counters = r.get("counters", {})
    for metric, unit in LAYER_COUNTERS.items():
        out[metric] = (counters.get(metric, 0), unit)
    cov = perfstats.coverage(spans, COVERED_SPANS, UNMEASURED_SPANS)
    out["trace.coverage_min"] = (cov if cov is not None else 0.0, "ratio")
    # Median traced trial minus median untraced trial, as for verify_s.
    untraced = statistics.median(r["verify_s"])
    traced = statistics.median(r["traced_verify_s"])
    out["trace.overhead_verify_s"] = (traced - untraced, "s")
    n = r.get("requests_per_phase", 1)
    out["trace.overhead_req_per_s"] = (n / traced - n / untraced, "1/s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    results = bdir / "perfbench-results"
    results.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = results / (stem + ".json")
    spans_path = results / (stem + ".spans.json")
    work = bdir / "perfbench-work"
    work.mkdir(exist_ok=True)
    for p in (out_path, spans_path):
        if p.exists():
            p.unlink()

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path), "--reference",
           str(HERE / "reference.json"), "--workdir", str(work)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    if code != 0 or not out_path.is_file():
        fail("workload runner exited with code %d" % code)
    r = json.loads(out_path.read_text())
    if r["host"]["build_type"] != "Release" or r["host"]["assertions"]:
        fail("refusing results of a non-Release build")

    attempted, failed = int(r["attempted"]), int(r["failed"])
    correct = attempted >= 1 and failed == 0
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": r["host"], "commit": commit(),
        "source_sha256": source_digest(),
        "failed_frac": failed / attempted if attempted else 1.0,
        "mismatches": r["mismatches"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if args.workload == "serve_mix":
        meta["serve_working_set_entries"] = r["working_set_entries"]
        meta["serve_cache_capacity"] = r["cache_capacity"]
        meta["serve_requests_per_phase"] = r["requests_per_phase"]

    if args.trace:
        spans = json.loads(spans_path.read_text())
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer(r, spans).items()}
    else:
        values, tails = end_to_end(r)
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]}
                   for k in END_TO_END}
        meta["tails"] = tails

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (results / (stem + ".result.json")).write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps(meta))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
