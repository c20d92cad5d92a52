#!/usr/bin/env python3
"""Runs the elephant benchmark and prints its metrics (README.md).

  python3 bench/suite/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--threads T]
                             [--preset full|tiny] [--binary PATH]
                             [--record FILE]

Builds the elephant_bench driver (CMake, Release) under .bench_build/
at the repository root, then runs each workload in a process of its
own: the one named by --workload, or every workload in BENCHMARK.json.
It checks every unit's answer (a TPC-H query's checksum, an OLTP
system's run fingerprint) and prints every metric by name with its
unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end-to-end metrics, with times in reference seconds
(the driver's host probe scales them; README.md, "Host speed"); with
--trace 1 they are its per-layer metrics, in raw wall-clock time, and
the self time of each traced layer is printed as well. The exit status
is 0 only when every unit passed.

Without --seed the driver uses the historical seeds and the answers
must equal expected.json. At any seed, every stream must agree, and
runs of one build at one seed must agree across workloads that share
answers (tpch_resident and tpch_budget) and across thread counts; the
digests of earlier runs are kept in .bench_build/answers.json for that.
"""

import argparse
import collections
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
SUITE_BUILD = os.path.join(BUILD, "suite")
ANSWERS = os.path.join(BUILD, "answers.json")

# Units in one stream: what an aborted workload process counts as
# attempted and failed, since it reports nothing.
UNITS_PER_STREAM = {"tpch_resident": 22, "tpch_budget": 22,
                    "ycsb_read": 3, "ycsb_update": 3}


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(jobs):
    """Configures and builds elephant_bench; returns its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(SUITE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", SUITE_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", SUITE_BUILD, "--target",
                  "elephant_bench", "-j", str(jobs)])
    with open(build_log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(build_log, encoding="utf-8") as f:
                    log("".join(f.readlines()[-30:]))
                log("run.py: build failed (log: %s)" % build_log)
                return None
    return os.path.join(SUITE_BUILD, "elephant_bench")


def run_driver(binary, workload, args, trace_path):
    """Runs one workload's process; returns its raw report or None."""
    cmd = [binary, "--workload=" + workload, "--threads=%d" % args.threads,
           "--seconds=%g" % args.seconds, "--preset=" + args.preset]
    if args.seed is not None:
        cmd.append("--seed=%d" % args.seed)
    if trace_path:
        cmd.append("--trace=" + trace_path)
    # The program reads ELEPHANT_* settings from the environment; the
    # benchmark pins its own. Spill files go inside the checkout.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ELEPHANT_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120 + 2 * args.seconds, check=False)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % workload)
        return None
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log("run.py: %s exited with status %d" % (workload, proc.returncode))
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        log("run.py: %s printed no report" % workload)
        return None


# ---- correctness ---------------------------------------------------------

def answer_family(workload):
    """Workloads of one family must give identical answers."""
    return "tpch" if workload.startswith("tpch_") else workload


def answer_key(binary, workload, args):
    """Runs sharing this key must give identical digests."""
    seed = "default" if args.seed is None else str(args.seed)
    build_id = str(os.stat(binary).st_mtime_ns)
    return ":".join([build_id, args.preset, seed, answer_family(workload)])


def check_units(raw, reference):
    """Counts units and failures. A unit fails on a non-OK status or a
    digest that differs from the reference (or, without one, from the
    digest most of its runs agree on). Returns (attempted, failed,
    agreed digests)."""
    runs = collections.defaultdict(list)
    for stream in raw["cold"] + raw["streams"]:
        for unit in stream["units"]:
            runs[unit["name"]].append(unit)
    attempted = failed = 0
    agreed = {}
    for name, units in sorted(runs.items()):
        ok = collections.Counter(u["digest"] for u in units
                                 if u["status"] == "ok")
        want = reference.get(name) if reference else None
        if want is None and ok:
            want = ok.most_common(1)[0][0]
        agreed[name] = want
        for u in units:
            attempted += 1
            if u["status"] != "ok" or u["digest"] != want:
                failed += 1
                log("FAILED %s: status %s, digest %s, expected %s"
                    % (name, u["status"], u["digest"], want))
    if reference and set(reference) != set(runs):
        log("FAILED: units %s differ from the reference's %s"
            % (sorted(runs), sorted(reference)))
        failed = max(failed, 1)
    return attempted, failed, agreed


def reference_for(key, workload, args):
    if args.seed is None:
        expected = load_json(os.path.join(HERE, "expected.json"))
        ref = expected.get(args.preset, {}).get(answer_family(workload))
        if ref:
            return ref, "expected.json"
    answers = load_json(ANSWERS) if os.path.exists(ANSWERS) else {}
    if key in answers:
        return answers[key], "an earlier run of this build"
    return None, "agreement between streams"


def remember(key, agreed):
    answers = load_json(ANSWERS) if os.path.exists(ANSWERS) else {}
    if key not in answers:
        answers[key] = agreed
        tmp = ANSWERS + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(answers, f, indent=1, sort_keys=True)
        os.replace(tmp, ANSWERS)


# ---- metrics -------------------------------------------------------------

def unit_times_ms(raw):
    """Per unit name, its passing timed runs in reference ms."""
    times = collections.defaultdict(list)
    for stream in raw["streams"]:
        for unit in stream["units"]:
            if unit["status"] == "ok":
                times[unit["name"]].append(unit["ref_s"] * 1e3)
    return times


def end_to_end(raw):
    """The end-to-end metrics, from times in reference seconds."""
    streams = raw["streams"]
    times = unit_times_ms(raw)
    pooled = [t for v in times.values() for t in v]
    return {
        "stream_s": statistics.median(s["ref_s"] for s in streams),
        "unit_gm_ms": math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in times.values())),
        "unit_p90_ms": statistics.quantiles(pooled, n=10,
                                            method="inclusive")[8],
        "ops_per_s": statistics.median(s["ops"] / s["ref_s"]
                                       for s in streams),
        "setup_s": statistics.median(raw["setup_ref_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, workload, names):
    """Medians over the timed streams of every stream and unit layer
    value, plus the run's own. Layers idle on this workload read 0."""
    values = collections.defaultdict(list)
    for stream in raw["streams"]:
        for name, value in stream["layers"].items():
            values[name].append(value)
        for unit in stream["units"]:
            for name, value in unit["layers"].items():
                values[name].append(value)
    got = {name: statistics.median(v) for name, v in values.items()}
    got.update(raw["layers"])
    if workload.startswith("tpch_"):
        got["dbgen.s"] = statistics.median(raw["setup_s"])
    traced = [s["ref_s"] for s in raw["streams"] if s["traced"]]
    untraced = [s["ref_s"] for s in raw["streams"] if not s["traced"]]
    if traced and untraced:
        got["trace.overhead_frac"] = (statistics.median(traced) /
                                      statistics.median(untraced) - 1)
    unknown = set(got) - set(names)
    if unknown:
        raise SystemExit("run.py: driver reported undeclared layers %s"
                         % sorted(unknown))
    return {name: got.get(name, 0.0) for name in names}


def self_times(trace_path):
    """Per span name: count, total ms, and self ms (the span minus the
    part its child spans cover)."""
    trace = load_json(trace_path)
    spans = {e["args"]["id"]: e for e in trace["traceEvents"]}
    child_us = collections.Counter()
    for e in spans.values():
        if e["args"]["parent"] in spans:
            child_us[e["args"]["parent"]] += e["dur"]
    table = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for sid, e in spans.items():
        row = table[e["name"]]
        row[0] += 1
        row[1] += e["dur"] / 1e3
        row[2] += (e["dur"] - child_us[sid]) / 1e3
    return table, trace.get("dropped", 0)


def print_self_times(workload, trace_path):
    table, dropped = self_times(trace_path)
    total = sum(row[2] for row in table.values()) or 1.0
    print("%s self time by layer (trace %s%s):"
          % (workload, os.path.relpath(trace_path, ROOT),
             ", %d spans dropped" % dropped if dropped else ""))
    print("  %-18s %7s %12s %12s %7s" % ("span", "count", "total_ms",
                                         "self_ms", "self%"))
    for name, (count, total_ms, self_ms) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        print("  %-18s %7d %12.1f %12.1f %6.1f%%"
              % (name, count, total_ms, self_ms, 100 * self_ms / total))


# ---- driver --------------------------------------------------------------

def host_tag(binary):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"],
                                         capture_output=True, text=True,
                                         check=False)
                    compiler = (out.stdout.splitlines() or ["unknown"])[0]
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": compiler,
            "git_sha": sha.stdout.strip() or "unknown"}


def run_workload(binary, workload, args, spec):
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-%s.json" % (
            workload, "default" if args.seed is None else args.seed))
    raw = run_driver(binary, workload, args, trace_path)
    if raw is None:
        n = UNITS_PER_STREAM[workload]
        return {"correct": False, "attempted": n, "failed": n,
                "metrics": {}}

    key = answer_key(binary, workload, args)
    reference, source = reference_for(key, workload, args)
    attempted, failed, agreed = check_units(raw, reference)
    if failed == 0:
        remember(key, agreed)
    print("%s: %d units checked against %s, %d failed"
          % (workload, attempted, source, failed))
    if args.trace:
        print_self_times(workload, trace_path)
        values = per_layer(raw, workload, list(units))
    else:
        values = end_to_end(raw)
        pooled = [t for v in unit_times_ms(raw).values() for t in v]
        print("%s: %d timed streams, %d set-ups; %d timed unit runs, %d of "
              "them beyond unit_p90_ms" % (
                  workload, len(raw["streams"]), len(raw["setup_s"]),
                  len(pooled),
                  sum(1 for t in pooled if t > values["unit_p90_ms"])))
    for name, unit in units.items():
        print("  %-28s %16.6g %s" % (name, values[name], unit))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--preset", choices=("full", "tiny"),
                        default="full")
    parser.add_argument("--binary", help="use this driver, skip the build")
    parser.add_argument("--record", help="append each result, tagged with "
                        "the host and git sha, to this JSON-lines file")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"] if args.preset == "full" else 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %r (one of %s)"
                     % (args.workload, ", ".join(names)))

    binary = args.binary or build(args.threads)
    if binary is None:
        return 2
    results = {}
    for workload in [args.workload] if args.workload else names:
        results[workload] = run_workload(binary, workload, args, spec)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as f:
                f.write(json.dumps(dict(
                    results[workload], workload=workload, seed=args.seed,
                    trace=args.trace, preset=args.preset,
                    threads=args.threads, seconds=args.seconds,
                    host=host_tag(binary))) + "\n")

    if args.workload:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
