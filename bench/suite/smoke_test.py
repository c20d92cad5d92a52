#!/usr/bin/env python3
"""Smoke test of the benchmark on its tiny preset (SF 0.01, 40K
records, 1 s windows, 2 streams).

  python3 bench/suite/smoke_test.py --binary PATH/elephant_bench

Checks that run.py prints every end-to-end and per-layer metric with its
unit on every workload and that no unit fails; that TPC-H answers agree
between the resident and budgeted workloads and between 1 and 4
threads; and that layers are busy or idle on the workloads README.md
says they are.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# (metric, workload where it must be nonzero, workload where it must be 0)
BUSY_IDLE = [
    ("q21.ms", "tpch_resident", "ycsb_read"),
    ("fused.rows_scanned", "tpch_resident", "ycsb_update"),
    ("encoded.chunks_direct", "tpch_budget", "tpch_resident"),
    ("spill.join_spills", "tpch_budget", "tpch_resident"),
    ("segcache.evictions", "tpch_budget", "tpch_resident"),
    ("sql_cs.pool_hit_ratio", "ycsb_read", "tpch_budget"),
    ("mongo_as.faults", "ycsb_read", "tpch_resident"),
    ("sql_cs.wal_flushes", "ycsb_update", "ycsb_read"),
    ("sql_cs.lock_wait_s", "ycsb_update", "ycsb_read"),
    ("mongo_cs.write_lock_frac", "ycsb_update", "ycsb_read"),
    ("mongo_as.lock_wait_s", "ycsb_update", "ycsb_read"),
    ("sql_cs.sim_events", "ycsb_update", "tpch_resident"),
    ("mongo_as.prepare_s", "ycsb_update", "tpch_budget"),
]

failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL: " + message)


def run_py(binary, *args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--preset", "tiny",
           "--binary", binary] + list(args)
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    expect(out.returncode == 0, "%s exited %d:\n%s"
           % (" ".join(args), out.returncode, out.stderr[-3000:]))
    return out.stdout


def check_run_py(binary, spec):
    """Every metric printed with its unit; no failed unit."""
    per_layer = {}
    for trace in (0, 1):
        stdout = run_py(binary, "--trace", str(trace))
        lines = stdout.strip().splitlines()
        summary = json.loads(lines[-1])
        expect(summary["failed"] == 0 and summary["correct"],
               "trace %d: %d of %d units failed"
               % (trace, summary["failed"], summary["attempted"]))
        metrics = spec["per_layer" if trace else "end_to_end"]
        for workload in [w["name"] for w in spec["workloads"]]:
            got = summary["metrics"].get(workload, {})
            for m in metrics:
                expect(got.get(m["name"], {}).get("unit") == m["unit"],
                       "%s: %s missing or without unit %s"
                       % (workload, m["name"], m["unit"]))
        for m in metrics:
            printed = re.compile(r"^\s+%s\s+\S+ %s$" % (
                re.escape(m["name"]), re.escape(m["unit"])), re.M)
            expect(len(printed.findall(stdout)) == len(spec["workloads"]),
                   "%s is not printed with its unit for every workload"
                   % m["name"])
        if trace:
            per_layer = summary["metrics"]
            expect("self time by layer" in stdout, "no self-time table")
    for metric, busy, idle in BUSY_IDLE:
        expect(per_layer[busy][metric]["value"] > 0,
               "%s should be busy on %s" % (metric, busy))
        expect(per_layer[idle][metric]["value"] == 0,
               "%s should be idle on %s" % (metric, idle))


def digests(binary, workload, threads):
    out = subprocess.run(
        [binary, "--workload=" + workload, "--preset=tiny", "--seed=7",
         "--threads=%d" % threads], capture_output=True, text=True,
        env=dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build")),
        check=False)
    expect(out.returncode == 0, "%s at %d threads exited %d"
           % (workload, threads, out.returncode))
    if out.returncode != 0:
        return None
    raw = json.loads(out.stdout)
    return [[(u["name"], u["digest"]) for u in s["units"]]
            for s in raw["cold"] + raw["streams"]]


def check_answers_agree(binary):
    reference = digests(binary, "tpch_resident", 1)
    for workload, threads in (("tpch_resident", 4), ("tpch_budget", 1),
                              ("tpch_budget", 4)):
        got = digests(binary, workload, threads)
        expect(got is not None and reference is not None and
               all(stream == reference[0] for stream in reference + got),
               "%s at %d threads disagrees with tpch_resident at 1 thread"
               % (workload, threads))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_run_py(args.binary, spec)
    check_answers_agree(args.binary)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
