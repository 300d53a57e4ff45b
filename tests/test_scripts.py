"""Smoke tests for the command-line scripts under scripts/."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from linrelay.bound import ChannelParams
from linrelay.codes import build_code, evaluate_rank1, parse_code

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_study(optimized_cache, monkeypatch):
    script = _load("finite_k_study")

    def cached(ch):
        assert ch == ChannelParams(a=1.1, b=2.0)
        return optimized_cache(1.1, 2.0)

    monkeypatch.setattr(script, "optimize_bound", cached)
    return script


def test_finite_k_study_table(optimized_cache, monkeypatch, capsys):
    # The script's gap column must be the oracle gap of build_code's codes.
    script = _load_study(optimized_cache, monkeypatch)
    channel = ChannelParams(a=1.1, b=2.0)
    assert script.main(["--k-min", "16", "--k-max", "64"]) == 0
    out = capsys.readouterr().out
    table = out.split("-" * 42 + "\n", 1)[1]
    rows = [line.split() for line in table.splitlines() if line.strip()]

    target = optimized_cache(1.1, 2.0)
    assert [int(row[0]) for row in rows] == [16, 32, 64]
    for row in rows:
        code = build_code(channel, target.endpoint, int(row[0]))
        oracle = evaluate_rank1(channel, code.s, code.D)
        gap = abs(oracle.energy_per_bit - target.energy_per_bit) / target.energy_per_bit
        assert row[2] == f"{gap:.3e}"


def test_finite_k_study_export(optimized_cache, monkeypatch, tmp_path):
    # --export writes the largest code; parsing it must give back
    # build_code's s and D bit for bit.
    script = _load_study(optimized_cache, monkeypatch)
    out = tmp_path / "code.txt"
    assert script.main(["--k-min", "16", "--k-max", "32", "--export", str(out)]) == 0
    channel = ChannelParams(a=1.1, b=2.0)
    code = build_code(channel, optimized_cache(1.1, 2.0).endpoint, 32)
    parsed_channel, parsed = parse_code(out)
    assert parsed_channel == channel
    assert parsed.s.tobytes() == code.s.tobytes()
    assert parsed.D.tobytes() == code.D.tobytes()
