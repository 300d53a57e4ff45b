"""Benchmark of linrelay: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload {sweep,code,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a linrelay checkout.  With --trace 0 it measures
setup_s (fresh interpreter to `linrelay.cli` imported, median of several
starts), then runs whole rounds of the workload in one child process that
calls `linrelay.cli.main(argv)` with tracing off, and reports run_s (median
wall time of a round) and peak_rss_mb (that process's peak resident set).
Both times are corrected for the speed of the CPU while they were taken
(see SpeedProbe).  With --trace 1 the child wraps linrelay's layers in spans
and the run reports the per-layer metrics instead.  Either way every output is checked against
computations made apart from linrelay (checks.py), and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The workloads take fixed channel points; --seed is recorded but draws
nothing.  Outputs go to perfbench/out/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from workloads import CODE_A, CODE_B, SWEEP_A, SWEEP_B_MAX, SWEEP_B_MIN, SWEEP_POINTS, workload

HERE = Path(__file__).resolve().parent

SETUP_STARTS = 5
# Probe: a fixed recursion of 511 small Python calls, timed every
# PROBE_PERIOD_S seconds.
PROBE_DEPTH = 8
PROBE_PERIOD_S = 0.01
# Reference probe time: times are reported in seconds at this CPU speed.  On
# the 2-vCPU reference machine the probe takes 48-57 us on an uncontended
# vCPU and 75-90 us on a contended one; 50 us is about its 5th percentile.
PROBE_REF_S = 5.0e-5
# Seconds a run may spend in its worker before it is killed.
WORKER_TIMEOUT_S = 150.0

# The two operations that the named Q2 fault makes fail today, by label, and
# the checks it makes them fail.  Such an operation counts as failed and
# leaves `correct` true; any other failing check, and any failure of another
# operation, makes `correct` false.
KNOWN_FAULT = {
    f"sweep b={SWEEP_B_MIN!r}": {"q2_nonnegative"},
    "verify-0.5-0.5": {"exit_code", "q2_identity"},
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # One BLAS/OpenMP thread: with two on this 2-vCPU class of machine the
    # dense oracle's time spread several-fold between runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spin(x: float = 3.0, depth: int = PROBE_DEPTH) -> float:
    # Calls and float math, the mix of linrelay's scalar hot loops; it tracked
    # their slowdowns better than a bare arithmetic loop or small numpy calls.
    if depth == 0:
        return math.sqrt(x * x + 4.0) / (x + 1.0)
    return _spin(0.5 * x, depth - 1) + _spin(0.25 * x + 1.0, depth - 1)


class SpeedProbe(threading.Thread):
    """Samples the speed of the CPU this process and its children are pinned to.

    The host shares each vCPU's core with other tenants, so one vCPU's speed
    swings by about 1.3x over seconds, and independently of the other vCPU.
    Every PROBE_PERIOD_S the probe times a short fixed computation on the
    same vCPU as the measured process; `speed(start, end)` is the mean of
    PROBE_REF_S / probe time over that interval, and a wall time times it is
    the time the same work would take at the reference speed.  The probe
    takes under 1 % of the vCPU.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        clock = time.perf_counter
        while not self._halt.wait(PROBE_PERIOD_S):
            t0 = clock()
            _spin()
            self.samples.append((t0, clock() - t0))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def speed(self, start: float, end: float) -> float:
        times = [d for t, d in self.samples if start <= t <= end]
        if not times:
            raise RuntimeError("no probe sample inside the interval")
        # A sample preempted mid-loop reads several times too slow; drop it.
        cap = 3.0 * statistics.median(times)
        return statistics.fmean(PROBE_REF_S / d for d in times if d <= cap)


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one of its CPUs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_import(env: dict, root: Path, probe: SpeedProbe) -> float:
    """Seconds from starting an interpreter to `linrelay.cli` imported, at
    the reference speed."""
    code = "import linrelay.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=root)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("importing linrelay.cli failed")
    return (t1 - t0) * probe.speed(t0, t1)


def measure_setup(env: dict, root: Path, probe: SpeedProbe) -> float:
    time_import(env, root, probe)  # untimed: compiles bytecode, warms the file cache
    return statistics.median(time_import(env, root, probe) for _ in range(SETUP_STARTS))


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def operation(self, label: str, fails) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            unexpected = set(fails) - KNOWN_FAULT.get(label, set())
            if unexpected:
                self.fail(f"{label}: {sorted(unexpected)}")

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


def check_sweep(rounds, out: Path, tally: Tally, report: dict) -> None:
    texts = [(out / f"sweep-{r}.csv").read_text() for r in range(len(rounds))]
    if any(t != texts[0] for t in texts):
        tally.fail("sweep CSV differs between rounds")
    lo, hi = math.log(SWEEP_B_MIN), math.log(SWEEP_B_MAX)
    expected_b = [math.exp(lo + i * (hi - lo) / (SWEEP_POINTS - 1)) for i in range(SWEEP_POINTS)]
    expected_b[0], expected_b[-1] = SWEEP_B_MIN, SWEEP_B_MAX
    verdicts = {}
    for r, (rnd, text) in enumerate(zip(rounds, texts)):
        rc = rnd["commands"][0]["rc"]
        rows = checks.sweep_rows(text) if rc == 0 else []
        if len(rows) != SWEEP_POINTS:
            tally.fail(f"round {r}: exit code {rc}, {len(rows)} rows")
        for i in range(SWEEP_POINTS):
            label = f"sweep b={expected_b[i]!r}"
            if i >= len(rows):
                tally.operation(label, ["missing_row"])
                continue
            row = rows[i]
            key = tuple(sorted(row.items()))
            if key not in verdicts:
                detail = {}
                fails = checks.check_sweep_row(row, detail)
                if row["a"] != SWEEP_A or checks.rel(row["b"], expected_b[i]) > checks.ULP_TOL:
                    fails.append("channel_point")
                verdicts[key] = fails
                report.setdefault("rows", []).append(detail)
            tally.operation(label, verdicts[key])


def check_code(rounds, out: Path, tally: Tally, report: dict) -> None:
    first = rounds[0]
    for r, rnd in enumerate(rounds[1:], start=1):
        if [c["stdout"] for c in rnd["commands"]] != [c["stdout"] for c in first["commands"]]:
            tally.fail(f"round {r}: code reports differ from round 0")
        if rnd["hashes"] != first["hashes"]:
            tally.fail(f"round {r}: exported files differ from round 0")
    gaps = {}
    commands = workload(report["workload"]).commands
    for command, result in zip(commands, rounds[-1]["commands"]):
        k = int(command.argv[command.argv.index("--k") + 1])
        if result["rc"] != 0:
            fails = ["exit_code"]
        else:
            detail = {}
            fails, energies = checks.check_code(
                json.loads(result["stdout"]), out / command.out_file, k, CODE_A, CODE_B, detail
            )
            report.setdefault("codes", []).append(detail)
            if energies is not None:
                oracle, bound = energies
                gaps[k] = abs(oracle - bound) / bound
        for _ in rounds:
            tally.operation(command.label, fails)
    ks = sorted(gaps)
    report["gaps"] = {str(k): g for k, g in gaps.items()}
    if len(ks) >= 2 and not checks.first_order(ks[0], gaps[ks[0]], ks[-1], gaps[ks[-1]]):
        tally.fail(f"gap ratio {gaps[ks[0]] / gaps[ks[-1]]:.3f} is not first order")


def check_verify(rounds, out: Path, tally: Tally, report: dict) -> None:
    for rnd in rounds:
        for result in rnd["commands"]:
            detail = {"label": result["label"]}
            tally.operation(result["label"], checks.check_verify(result["rc"], result["stdout"], detail))
            report.setdefault("verdicts", []).append(detail)


CHECKERS = {"sweep": check_sweep, "code": check_code, "code-scaling": check_code, "verify": check_verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "linrelay" / "cli.py").is_file():
        print("error: run from the root of a linrelay checkout (no src/linrelay/cli.py)",
              file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)
    pin_to_one_cpu()
    probe = SpeedProbe()
    probe.start()

    setup_s = None if args.trace else measure_setup(env, root, probe)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=out, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S:g} s", file=sys.stderr)
        return 3
    finally:
        probe.stop()
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads((out / "worker.json").read_text())
    rounds = result["rounds"]
    for rnd in rounds:
        for c in rnd["commands"]:
            c["speed"] = probe.speed(c["start"], c["end"])
        rnd["ref_s"] = sum(c["wall_s"] * c["speed"] for c in rnd["commands"])

    tally = Tally()
    report = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "round_wall_s": [r["round_s"] for r in rounds], "round_ref_s": [r["ref_s"] for r in rounds],
        "command_speed": [[c["speed"] for c in r["commands"]] for r in rounds],
    }
    CHECKERS[args.workload](rounds, out, tally, report)
    report.update(attempted=tally.attempted, failed=tally.failed, correct=tally.correct,
                  problems=tally.problems)
    (out / "checks.json").write_text(json.dumps(report, indent=2) + "\n")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        # Per-layer seconds get the traced rounds' mean speed, so that they
        # compare with the corrected untraced run_s.
        speed = sum(r["ref_s"] for r in rounds) / sum(r["round_s"] for r in rounds)
        metrics = {
            n: {"value": v * speed if per_layer_unit(n) == "s" else v, "unit": per_layer_unit(n)}
            for n, v in result["trace"]["metrics"].items()
        }
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(r["ref_s"] for r in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
