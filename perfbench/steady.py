"""Steadiness of the benchmark: sets of untraced runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--pause 0]

Run from the root of a linrelay checkout.  Each set makes --runs runs of
every workload for BENCHMARK.json's run_seconds, interleaving the workloads
and giving every run its own seed; sets are --pause seconds apart.  For each workload and end-to-end
metric it prints each set's median and quartiles (statistics.quantiles, n=4),
the spread (Q3 - Q1) / median, and the gap between the first and the last
set's medians, and compares them with the bounds in BENCHMARK.json: a spread
should stay under a third of its bound and a gap under its bound.  It also
prints each set's share of failed operations.  Every run's result line is
appended to perfbench/out/steady.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
LOG = HERE / "out" / "steady.jsonl"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    checked = json.loads((HERE / "out" / workload / "checks.json").read_text())
    raw = statistics.median(checked["round_wall_s"])
    return {"workload": workload, "seed": seed, "wall_s": wall, "raw_run_s": raw, **result}


def summarize(records: list[dict], bench: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        sets = sorted({r["set"] for r in records if r["workload"] == workload})
        by_set = {s: [r for r in records if r["workload"] == workload and r["set"] == s]
                  for s in sets}
        print(f"\n{workload}")
        for s in sets:
            runs = by_set[s]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            walls = [r["wall_s"] for r in runs]
            print(f"  set {s}: {len(runs)} runs, failed {failed}/{attempted}, "
                  f"correct {all(r['correct'] for r in runs)}, "
                  f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in records[0]["metrics"]:
            medians = []
            bound = bounds.get(metric)
            for s in sets:
                values = [r["metrics"][metric]["value"] for r in by_set[s]]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                spread = (q3 - q1) / med
                medians.append(med)
                ok = bound is None or spread < bound / 3
                steady &= ok
                print(f"  {metric:<12} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound if bound is not None else '-':>6}"
                      f"{'' if ok else '  spread above bound/3'}")
            if metric == "run_s":
                for s in sets:
                    raw = [r["raw_run_s"] for r in by_set[s]]
                    q1, med, q3 = statistics.quantiles(raw, n=4) if len(raw) > 1 else raw * 3
                    print(f"  {'(raw wall)':<12} {s:>3} {statistics.median(raw):>12.6g} "
                          f"{q1:>12.6g} {q3:>12.6g} {(q3 - q1) / statistics.median(raw):>8.4f}")
            if len(medians) > 1:
                gap = medians[-1] / medians[0] - 1.0
                ok = bound is None or gap <= bound
                steady &= ok
                print(f"  {metric:<12} gap between sets {gap:+.4f}"
                      f"{'' if ok else '  above bound'}")
        shares = {s: sum(r["failed"] for r in by_set[s]) / sum(r["attempted"] for r in by_set[s])
                  for s in sets}
        if len(set(shares.values())) > 1:
            steady = False
            print(f"  failed share differs between sets: {shares}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--pause", type=float, default=0.0)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    LOG.parent.mkdir(parents=True, exist_ok=True)
    LOG.write_text("")
    for s in range(args.sets):
        if s:
            time.sleep(args.pause)
        for i in range(args.runs):
            for workload in WORKLOADS:
                record = run_once(workload, 1000 * (s + 1) + i, bench["run_seconds"])
                record["set"] = s
                with LOG.open("a") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"set {s} run {i} {workload}: " + " ".join(
                    f"{n}={m['value']:.4f}" for n, m in record["metrics"].items()),
                    flush=True)
    records = [json.loads(line) for line in LOG.read_text().splitlines() if line]
    steady = summarize(records, bench)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
