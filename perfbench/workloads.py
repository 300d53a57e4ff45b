"""The benchmark's workloads: fixed CLI invocations and how they count.

Every workload takes fixed channel points, so a round is the same list of
`linrelay` commands on every run and every seed.  A command may stand for
several operations (one sweep command writes one CSV row per b value).
"""
from __future__ import annotations

from dataclasses import dataclass

SWEEP_A = 1.1
SWEEP_B_MIN = 0.5
SWEEP_B_MAX = 10.0
SWEEP_POINTS = 3

CODE_A = 1.1
CODE_B = 2.0
CODE_KS = (1024, 4096)
# Only the reference report uses the middle k; it is not a benchmark workload.
SCALING_KS = (1024, 2048, 4096)

VERIFY_POINTS = ((1.1, 2.0, 4096), (0.5, 0.5, None))


@dataclass(frozen=True)
class Command:
    """One `linrelay` invocation: its argv and the file it writes, if any."""

    label: str
    argv: tuple[str, ...]
    out_file: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Rounds a run makes at least; sweep repeats to check byte-identity.
    min_rounds: int = 1


def _code_commands(ks) -> tuple[Command, ...]:
    return tuple(
        Command(
            label=f"code-{k}",
            argv=("code", "--a", repr(CODE_A), "--b", repr(CODE_B), "--k", str(k),
                  "--out", f"code-{k}.txt"),
            out_file=f"code-{k}.txt",
        )
        for k in ks
    )


def _verify_commands() -> tuple[Command, ...]:
    commands = []
    for a, b, n in VERIFY_POINTS:
        argv = ("verify", "--a", repr(a), "--b", repr(b))
        if n is not None:
            argv += ("--n-samples", str(n))
        commands.append(Command(label=f"verify-{a}-{b}", argv=argv))
    return tuple(commands)


def workload(name: str, round_index: int = 0) -> Workload:
    """The workload `name`; file names of round-dependent outputs use round_index."""
    if name == "sweep":
        out = f"sweep-{round_index}.csv"
        argv = ("sweep", "--a", repr(SWEEP_A), "--b-min", repr(SWEEP_B_MIN),
                "--b-max", repr(SWEEP_B_MAX), "--n-points", str(SWEEP_POINTS),
                "--out", out)
        return Workload(name, (Command("sweep", argv, out),), min_rounds=2)
    if name == "code":
        return Workload(name, _code_commands(CODE_KS))
    if name == "code-scaling":
        return Workload(name, _code_commands(SCALING_KS))
    if name == "verify":
        return Workload(name, _verify_commands())
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "code", "verify")
