#!/usr/bin/env python3
"""Builds and runs one benchmark workload, then reports its metrics.

Usage (from the repository root):

  python3 perfbench/run.py \
      --workload <annotate_batch|search_serve|mixed_serve> \
      --seed <n> --seconds <s> --trace <0|1> [--mixed-rate <r>]

BENCHMARK.json runs annotate_batch and search_serve; mixed_serve is
kept for diagnosis only (see README.md).

The C++ program (perfbench/main.cc) is built from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) and writes raw samples; this
script derives the metrics (percentiles, self times), stamps the run with
its environment, prints a readable report, saves it under
<build dir>/reports/, and prints one JSON line last:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("annotate_batch", "search_serve", "mixed_serve")
# A mixed_serve run whose load generator sent late by more than this at
# p99 did not offer the scheduled load; it is marked invalid.
LAG_P99_BOUND_MS = 2.0
RUN_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("annotate_tables_per_s", "1/s"),
    ("annotate_ms_p50", "ms"),
    ("annotate_ms_p99", "ms"),
    ("search_qps", "1/s"),
    ("search_ms_p50", "ms"),
    ("search_ms_p99", "ms"),
    ("slo_met_frac", "frac"),
    ("entity_acc", "frac"),
    ("type_f1", "frac"),
    ("relation_f1", "frac"),
    ("search_map", "frac"),
]

STAGES = ["index.candidates", "model.label_space", "inference.graph_build",
          "inference.bp", "inference.decode"]
KERNELS = ["baseline", "type", "type_relation", "join"]

PER_LAYER = [
    ("index.candidates.self_ms", "ms"),
    ("index.candidates.share", "frac"),
    ("index.candidates.entity_per_cell", "count"),
    ("index.candidates.types_per_col", "count"),
    ("model.label_space.self_ms", "ms"),
    ("inference.graph_build.self_ms", "ms"),
    ("inference.graph_build.share", "frac"),
    ("inference.graph.factors", "count"),
    ("inference.graph.factor_bytes", "bytes"),
    ("inference.bp.self_ms", "ms"),
    ("inference.bp.share", "frac"),
    ("inference.bp.iterations", "count"),
    ("inference.bp.skip_ratio", "frac"),
    ("inference.bp.converged_frac", "frac"),
    ("inference.decode.self_ms", "ms"),
    ("annotate.unattributed_ms", "ms"),
    ("search.normalize.self_ms", "ms"),
] + [("search.kernel.%s.self_ms" % k, "ms") for k in KERNELS] + [
    ("search.kernel.tables_planned", "count"),
    ("search.kernel.tables_scored", "count"),
    ("search.kernel.scored_frac", "frac"),
    ("search.kernel.early_stop_frac", "frac"),
    ("serve.protocol.parse_ms", "ms"),
    ("serve.protocol.render_ms", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.work_ms.search", "ms"),
    ("serve.work_ms.annotate", "ms"),
    ("serve.handoff_ms", "ms"),
    ("serve.cache.hit_ratio", "frac"),
    ("serve.rejected_overload", "count"),
    ("serve.expired", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.worker_warm_ms", "ms"),
    ("annotate.corpus.build_s", "s"),
    ("search.corpus_index.build_s", "s"),
    ("storage.snapshot.write_s", "s"),
    ("storage.snapshot.bytes", "bytes"),
    ("storage.snapshot.open_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
]

# Environment fields that must match for two runs to be comparable.
COMPARABLE = ("nproc", "cpu_model", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def local_env(build_dir):
    """The environment for child processes, with temporary files (the
    compiler's too) kept inside the build directory."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no webtab sources next to %s; nothing to build" % HERE)
        return False
    env = local_env(build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
           str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def cmake_cache(build_dir):
    values = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=10)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 \
            and out.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".cc", ".h", ".py", ".txt"))]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment(build_dir):
    cache = cmake_cache(build_dir)
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER")
    version = first_line([compiler, "--version"]) if compiler else None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def end_to_end(raw, failed):
    scalars = raw["scalars"]
    metrics, notes = {}, {}
    metrics["setup_s"] = statistics.median(raw["setup_s"])
    notes["setup_s"] = "median of %d set-ups" % len(raw["setup_s"])
    metrics["rss_mb"] = scalars["rss_mb"]
    metrics["ok_frac"] = 1.0 - failed / raw["attempted"]
    for op in ("annotate", "search"):
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            name = "%s_ms_%s" % (op, tag)
            p = stats.segmented_percentile(raw["latency"].get(op + "_ms", []),
                                           q)
            metrics[name] = p["value"]
            notes[name] = p
    for name in ("annotate_tables_per_s", "search_qps"):
        rates = raw["rates"].get(name, [])
        metrics[name] = statistics.median(rates) if rates else 0.0
        notes[name] = "median of %d segments" % len(rates)
    for name, _ in END_TO_END:
        if name not in metrics:
            metrics[name] = scalars.get(name, 0.0)
    return metrics, notes


def per_layer(raw, spans, failed):
    totals = stats.span_totals(spans)
    layer, layer_samples = raw["layer"], raw["layer_samples"]
    metrics, notes = {}, {}

    def count(name):
        return totals[name]["count"] if name in totals else 0

    def mean_self_ms(name):
        return totals[name]["self_ns"] / count(name) / 1e6 if count(name) \
            else 0.0

    def mean_dur_ms(name):
        return totals[name]["dur_ns"] / count(name) / 1e6 if count(name) \
            else 0.0

    call_ns = totals["annotate.call"]["dur_ns"] if count("annotate.call") \
        else 0
    for stage in STAGES:
        metrics[stage + ".self_ms"] = mean_self_ms(stage)
        if stage != "model.label_space" and stage != "inference.decode":
            metrics[stage + ".share"] = \
                totals[stage]["self_ns"] / call_ns if call_ns and \
                count(stage) else 0.0
    stage_ns = sum(totals[s]["dur_ns"] for s in STAGES if count(s))
    metrics["annotate.unattributed_ms"] = \
        (call_ns - stage_ns) / count("annotate.call") / 1e6 \
        if count("annotate.call") else 0.0
    metrics["search.normalize.self_ms"] = mean_self_ms("search.normalize")
    for k in KERNELS:
        metrics["search.kernel.%s.self_ms" % k] = \
            mean_self_ms("search.kernel." + k)
    metrics["serve.protocol.parse_ms"] = mean_dur_ms("serve.protocol.parse")
    metrics["serve.protocol.render_ms"] = mean_dur_ms("serve.protocol.render")

    for q, tag in ((0.5, "p50"), (0.99, "p99")):
        p = stats.percentile(layer_samples.get("serve.queue_wait_ms", []), q)
        metrics["serve.queue_wait_ms." + tag] = p["value"]
        notes["serve.queue_wait_ms." + tag] = p
    for name in ("serve.work_ms.search", "serve.work_ms.annotate",
                 "serve.handoff_ms", "serve.swap_ms", "serve.worker_warm_ms"):
        metrics[name] = stats.mean(layer_samples.get(name, []))

    op = raw["config"].get("trace.op_span")
    untraced = stats.mean(layer_samples.get("trace.untraced_op_ms", []))
    metrics["trace.overhead_frac"] = \
        mean_dur_ms(op) / untraced - 1.0 if op and count(op) and untraced \
        else 0.0
    metrics["failed_frac"] = failed / raw["attempted"]
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = layer.get(name, 0.0)
    return metrics, notes


def describe(value, unit, note):
    if isinstance(note, dict):
        if not note["supported"]:
            return "unsupported (n=%d, %d beyond; %s needs %d)" % (
                note["n"], note["beyond"], "percentile", stats.MIN_BEYOND)
        segments = note.get("segments", 1)
        if segments > 1:
            return "%.6g %s  (median of %d segments; n=%d, >=%d beyond " \
                "in each)" % (value, unit, segments, note["n"], note["beyond"])
        return "%.6g %s  (n=%d, %d beyond)" % (value, unit, note["n"],
                                                note["beyond"])
    text = "%.6g %s" % (value, unit)
    return text + ("  (%s)" % note if note else "")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mixed-rate", type=float, default=450.0,
                        help="mixed_serve arrival rate, requests/s")
    args = parser.parse_args(argv)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 1
    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--mixed-rate", repr(args.mixed_rate)]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S,
                              env=local_env(build_dir))
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if done.returncode != 0:
        log("perfbench: program exited with %d" % done.returncode)
        return 1
    with open(os.path.join(out_dir, "raw.json")) as f:
        raw = json.load(f)

    failed = sum(int(n) for n in raw["failures"].values())
    problems = list(raw["problems"])
    # Findings that make the measurement, not the outputs, untrustworthy.
    invalid = []
    if args.trace:
        spans = stats.load_spans(os.path.join(out_dir, "spans.tsv"))
        metrics, notes = per_layer(raw, spans, failed)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(raw, failed)
        units = dict(END_TO_END)
        for name, note in notes.items():
            if isinstance(note, dict) and not note["supported"]:
                invalid.append("%s is unsupported" % name)
    lag = stats.percentile(raw["layer_samples"].get("loadgen.lag_ms", []),
                           0.99)
    if lag["n"] and lag["value"] > LAG_P99_BOUND_MS:
        invalid.append("load generator p99 lag %.3f ms > %.1f ms" % (
            lag["value"], LAG_P99_BOUND_MS))
    wrong = sum(n for reason, n in raw["failures"].items()
                if reason.startswith("wrong"))
    correct = not problems and wrong == 0
    env = environment(build_dir)

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env: " + ", ".join("%s=%s" % kv for kv in env.items()))
    print("config: " + ", ".join("%s=%s" % kv
                                 for kv in sorted(raw["config"].items())))
    print("correct=%s attempted=%d failed=%d %s" % (
        "yes" if correct else "NO", raw["attempted"], failed,
        json.dumps(raw["failures"], sort_keys=True)))
    for p in problems:
        print("problem: " + p)
    for p in invalid:
        print("INVALID RUN: " + p)
    print("output digest: %s" % raw["digest"])
    for name in sorted(metrics, key=[n for n, _ in
                                     (PER_LAYER if args.trace
                                      else END_TO_END)].index):
        print("  %-34s %s" % (name, describe(metrics[name], units[name],
                                             notes.get(name))))

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "config": raw["config"], "correct": correct,
        "attempted": raw["attempted"], "failed": failed,
        "failures": raw["failures"], "problems": problems,
        "valid": not invalid, "invalid": invalid,
        "digest": raw["digest"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
        "percentiles": {n: p for n, p in notes.items() if isinstance(p, dict)},
    }
    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
