"""The measured process: runs whole rounds of one workload through linrelay.cli.main.

Started by run.py with the working directory set to the run's output
directory and linrelay importable from the checkout's src/.  It writes
worker.json (per-command exit codes, stdout and wall times per round, output
hashes, peak RSS and, when traced, the per-layer metrics) and, when traced,
spans.tsv.  It checks nothing itself: run.py does, in another process, so
the checks neither share this process's memory high-water mark nor its
imports.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import time
from pathlib import Path

from workloads import workload

# Do not start a round that would end past this many seconds of measuring,
# even if the workload's minimum round count is not reached, so that a run
# keeps within its time limit on a much slower program.
_HARD_STOP_S = 110.0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import linrelay.cli as cli

    tracer = None
    entry = cli.main
    if args.trace:
        from tracing import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span(ROOT, cli.main)

    rounds = []
    started = time.perf_counter()
    while True:
        wl = workload(args.workload, len(rounds))
        commands = []
        for command in wl.commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                rc = entry(list(command.argv))
                t1 = time.perf_counter()
            commands.append(
                {"label": command.label, "rc": rc, "start": t0, "end": t1,
                 "wall_s": t1 - t0, "stdout": out.getvalue()}
            )
        hashes = {c.out_file: _sha256(Path(c.out_file)) for c in wl.commands if c.out_file}
        rounds.append(
            {"round_s": sum(c["wall_s"] for c in commands), "commands": commands, "hashes": hashes}
        )
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["round_s"] for r in rounds)
        if elapsed + typical > _HARD_STOP_S:
            break
        if len(rounds) >= wl.min_rounds and elapsed + typical > args.seconds:
            break
    peak = _peak_rss_mb()

    result = {"workload": args.workload, "rounds": rounds, "peak_rss_mb": peak}
    if tracer is not None:
        from tracing import layer_metrics

        metrics, detail = layer_metrics(
            tracer, len(rounds), statistics.median(r["round_s"] for r in rounds)
        )
        files = [Path(c.out_file) for c in wl.commands if c.out_file and c.label.startswith("code")]
        parse_s = 0.0
        if files:
            from linrelay.codes import parse_code

            for path in files:
                t0 = time.perf_counter()
                parse_code(path)
                parse_s += time.perf_counter() - t0
        metrics["codes.export_mb"] = sum(p.stat().st_size for p in files) / 1e6
        metrics["codes.parse_s"] = parse_s
        detail["per_command"] = _per_command(tracer, rounds)
        result["trace"] = {"metrics": metrics, "detail": detail}
        tracer.write_spans("spans.tsv")
    with open("worker.json", "w") as fh:
        json.dump(result, fh)
    return 0


def _per_command(tracer, rounds) -> dict:
    """Inclusive time per span name under each command of the first round."""
    labels = [c["label"] for c in rounds[0]["commands"]]
    out: dict = {label: {} for label in labels}
    roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0][: len(labels)]
    owner = {}
    for i, (name, start, end, parent, _) in enumerate(tracer.spans):
        root = i if parent < 0 else owner.get(parent)
        owner[i] = root
        if root in roots:
            label = labels[roots.index(root)]
            out[label][name] = out[label].get(name, 0.0) + (end - start)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
