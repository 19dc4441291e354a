#!/usr/bin/env python3
"""Host-cost benchmark of the hwatch simulator.

Builds the simulator libraries and the benchmark program (hwbench.cpp)
from source into .bench_build/, runs one workload (or all three) in its
own process, checks every simulated result against the digest recorded
for that workload and seed, and prints the metrics.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload dumbbell_hwatch --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py                       # all workloads, end to end
  python3 perfbench/run.py --trace 1             # all workloads, per layer
  python3 perfbench/run.py --record 0-199        # re-record output digests

--trace 0 reports the end-to-end metrics (host time and memory of the api
calls); --trace 1 runs the traced composition and reports the per-layer
metrics.  See perfbench/README.md for what each metric means.
"""

import argparse
import concurrent.futures
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "hwbench"
DIGESTS = HERE / "digests.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "hwbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def hwbench(workload, seed, mode, seconds=0):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: hwbench did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: hwbench exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digests(doc):
    """Counts the runs whose output digest differs from the recorded one."""
    recorded = json.loads(DIGESTS.read_text()).get(doc["workload"], {})
    expected = recorded.get(str(doc["seed"]))
    runs = doc["runs"]
    if expected is None:
        # No recorded value for this seed: every run must still agree.
        expected = runs[0]["digest"] if runs else None
        print(f"  note: seed {doc['seed']} has no recorded digest; "
              "checking that all runs agree", file=sys.stderr)
    bad = [r for r in runs if r["digest"] != expected]
    for r in bad:
        print(f"  digest mismatch ({r['kind']} run): {r['digest']} != "
              f"{expected}", file=sys.stderr)
    return len(bad)


def run_workload(workload, seed, seconds, trace):
    mode = "traced" if trace else "timed"
    doc = hwbench(workload, seed, mode, seconds)
    failed = doc["failed"] + check_digests(doc)
    for err in doc["errors"]:
        print(f"  error: {err}", file=sys.stderr)
    names = [m["name"] for m in
             BENCHMARK["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in doc["metrics"]]
    if missing:
        fail(f"{workload}: metrics missing from hwbench: {missing}")
    metrics = {n: doc["metrics"][n] for n in names}

    attempted = doc["attempted"]
    share = 100.0 * failed / max(1, attempted)
    print(f"{workload} (seed {seed}, {'traced' if trace else 'timed'}): "
          f"failed runs {failed}/{attempted} ({share:.1f}%)")
    samples = doc["samples"]
    for name, m in metrics.items():
        note = ""
        if samples.get(name, {}).get("values"):
            vals, stat = samples[name]["values"], samples[name]["stat"]
            extra = ("" if stat == "median"
                     else f"; median {statistics.median(vals):.6g}")
            note = (f"  ({stat} of {len(vals)} calls{extra}; "
                    f"slowest {max(vals):.6g})")
        v = m["value"]
        shown = f"{v:d}" if isinstance(v, int) else f"{v:.6g}"
        print(f"  {name:30s} {shown:>14s} {m['unit']}{note}")
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def record(spec, workloads):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pairs = [(w, s) for w in workloads for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        docs = pool.map(lambda p: hwbench(p[0], p[1], "digest"), pairs)
        for (w, s), doc in zip(pairs, docs):
            table.setdefault(w, {})[str(s)] = doc["runs"][0]["digest"]
            print(f"{w} seed {s}: {doc['runs'][0]['digest']} "
                  f"({doc['runs'][0]['events']} events)", flush=True)
    for w in table:
        table[w] = dict(sorted(table[w].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=["all"] + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", metavar="LO-HI",
                   help="record output digests for these seeds and exit")
    args = p.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    build()
    if args.record:
        record(args.record, workloads)
        return

    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in workloads}
    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
