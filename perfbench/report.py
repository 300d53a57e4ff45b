"""Reference figures for perfbench/README.md from one untraced and one traced
run per workload, plus a traced code run at k = 1024, 2048 and 4096.

    python3 perfbench/report.py

Run from the root of a linrelay checkout.  Every run has seed 1 and
BENCHMARK.json's run_seconds.  Prints Markdown tables: the
per-layer metrics of each workload, the tracing overhead (traced run_s minus
untraced run_s), the margins of the output checks, span self times,
infeasible scan points by error class, and build / oracle / export time per
k.  Times are corrected for CPU speed as run.py's are.  Results are also kept in
perfbench/out/report.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import SCALING_KS, WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1


def run(workload: str, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = HERE / "out" / workload
    worker = json.loads((out / "worker.json").read_text())
    return result, worker, json.loads((out / "checks.json").read_text())


def main() -> int:
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    results = {}
    for workload in WORKLOADS:
        plain, _, plain_checks = run(workload, seconds, 0)
        traced, worker, traced_checks = run(workload, seconds, 1)
        results[workload] = {"plain": plain, "traced": traced, "detail": worker["trace"]["detail"],
                             "checks": plain_checks, "traced_checks": traced_checks}
    _, scaling, scaling_checks = run("code-scaling", seconds, 1)
    speeds = scaling_checks["command_speed"][0]
    results["code-scaling"] = {
        label: {span: t * speed for span, t in spans.items()}
        for (label, spans), speed in zip(scaling["trace"]["detail"]["per_command"].items(), speeds)
    }
    (HERE / "out" / "report.json").write_text(json.dumps(results, indent=1) + "\n")

    names = list(results[WORKLOADS[0]]["traced"]["metrics"])
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    for name in names:
        cells = [f"{results[w]['traced']['metrics'][name]['value']:.4g}" for w in WORKLOADS]
        print(f"| `{name}` | " + " | ".join(cells) + " |")

    print("\n| workload | untraced run_s | traced run_s | overhead | untraced wall | traced wall "
          "| setup_s | peak_rss_mb | attempted | failed | correct |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|")
    for w in WORKLOADS:
        plain, traced = results[w]["plain"], results[w]["traced"]
        untraced_s = plain["metrics"]["run_s"]["value"]
        traced_s = traced["metrics"]["trace.run_s"]["value"]
        walls = [statistics.median(results[w][c]["round_wall_s"]) for c in ("checks", "traced_checks")]
        print(f"| {w} | {untraced_s:.2f} | {traced_s:.2f} | {traced_s - untraced_s:+.2f} s "
              f"({traced_s / untraced_s - 1:+.1%}) | {walls[0]:.2f} | {walls[1]:.2f} | "
              f"{plain['metrics']['setup_s']['value']:.3f} | "
              f"{plain['metrics']['peak_rss_mb']['value']:.0f} | {plain['attempted']} | "
              f"{plain['failed']} | {plain['correct']} |")

    print("\n| check | value | tolerance |")
    print("|---|---:|---:|")
    for row in results["sweep"]["checks"]["rows"]:
        print(f"| sweep b={row['b']:.6g}: rank1 vs QUADPACK (kappa {row['kappa']:.3g}) | "
              f"{row['rank1_rel_err']:.2e} | {row['rank1_tol']:.2e} |")
    for code in results["code"]["checks"]["codes"]:
        print(f"| code k={code['k']}: theorem energy vs QUADPACK | {code['bound_rel_err']:.2e} | "
              f"{code['bound_tol']:.2e} |")
        print(f"| code k={code['k']}: oracle energy vs LU | {code['oracle_rel_err']:.2e} | 1e-10 |")
    gaps = results["code"]["checks"]["gaps"]
    print(f"| code: gap(1024)/gap(4096) | {gaps['1024'] / gaps['4096']:.4f} | [3.03, 5.28] |")

    spans = sorted({n for w in WORKLOADS for n in results[w]["detail"]["self_s"]})
    speed = {w: statistics.fmean(results[w]["traced_checks"]["round_ref_s"])
             / statistics.fmean(results[w]["traced_checks"]["round_wall_s"]) for w in WORKLOADS}
    print("\n| span | " + " | ".join(f"{w} self s" for w in WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    for span in spans:
        cells = [f"{results[w]['detail']['self_s'].get(span, 0.0) * speed[w]:.3f}" for w in WORKLOADS]
        print(f"| `{span}` | " + " | ".join(cells) + " |")

    print("\n| workload | infeasible scan points by error class |")
    print("|---|---|")
    for w in WORKLOADS:
        by_error = results[w]["detail"]["scan_infeasible_by_error"]
        print(f"| {w} | " + ", ".join(f"{e}: {n:g}" for e, n in by_error.items()) + " |")

    print("\n| k | codes.build s | codes.oracle s | codes.export s | command s |")
    print("|---:|---:|---:|---:|---:|")
    for k in SCALING_KS:
        spans_k = results["code-scaling"][f"code-{k}"]
        print(f"| {k} | {spans_k['codes.build']:.3f} | {spans_k['codes.oracle']:.3f} | "
              f"{spans_k['codes.export']:.3f} | {spans_k['cli.main']:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
