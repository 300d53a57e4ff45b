"""Reported numbers must not change: sha256 digests of whole CLI outputs.

The digests hold for numpy 2.4.6 and scipy 1.17.1 on Python 3.11; other
versions may round the last digit of a value differently.  A change that
alters any reported number on purpose updates the digest it breaks and says
why.  The stdout of `code` is not pinned: its dense oracle's blocked
Cholesky may round differently with the BLAS thread count.
"""
from __future__ import annotations

import hashlib

import pytest

from linrelay import baselines, cli

PINNED = [
    "--a", "1.1", "--b", "2",
    "--Af", "0.47745726861858833", "--Bf", "0.7594024699528037",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        pytest.param(
            ["bound", *PINNED],
            "b22fff0482500cd26b0649b1b83e405aa7f766ab2c5c3cc8a74f3e0b4bf2822e",
            id="bound-pinned",
        ),
        pytest.param(
            ["verify", *PINNED, "--n-samples", "512"],
            "78e10d5015dd7f9aeebada160b325ab2cff879df1198aed5aac374cd5b6be1b0",
            id="verify-pinned",
        ),
    ],
)
def test_stdout(argv, digest, capsys):
    assert cli.main(argv) == 0
    assert _digest(capsys.readouterr().out.encode()) == digest


def test_optimized_bound_stdout(optimized_cache, monkeypatch, capsys):
    # The optimum comes from the shared cache, which holds optimize_bound's
    # own result, so the suite solves it once.
    monkeypatch.setattr(cli, "optimize_bound", lambda ch: optimized_cache(ch.a, ch.b))
    assert cli.main(["bound", "--a", "1.1", "--b", "2.0"]) == 0
    assert _digest(capsys.readouterr().out.encode()) == (
        "8203b31fcfde01a148aaeaea181365be8240100b398a2291f9d665697c139f76"
    )


def test_optimized_verify_stdout_at_benchmark_samples(optimized_cache, monkeypatch, capsys):
    # The benchmark's verify command: the trajectory rebuilt at 4096
    # samples from the cached optimum.
    monkeypatch.setattr(cli, "optimize_bound", lambda ch: optimized_cache(ch.a, ch.b))
    argv = ["verify", "--a", "1.1", "--b", "2.0", "--n-samples", "4096"]
    assert cli.main(argv) == 0
    assert _digest(capsys.readouterr().out.encode()) == (
        "a8dad07b0b7b79a20244dbfe1413b5fe02ea5400b7d42982f100b7eb2d76c08b"
    )


def test_sweep_csv(optimized_cache, two_by_two_cache, monkeypatch, tmp_path):
    # Both rows are b = 2.0, whose results the shared caches already hold.
    monkeypatch.setattr(
        baselines, "optimize_bounds", lambda chs: (optimized_cache(ch.a, ch.b) for ch in chs)
    )
    monkeypatch.setattr(
        baselines, "two_by_two_bound", lambda ch: two_by_two_cache(ch.a, ch.b)
    )
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--a", "1.1", "--b-min", "2", "--b-max", "2", "--n-points", "2"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert _digest(out.read_bytes()) == (
        "24fd5124012c725a5bd7ac374f4e34e97b6336a35646c52f6f8dbb9f9962c066"
    )


def test_benchmark_sweep_csv(tmp_path):
    """The benchmark's sweep with its real searches, three channels at a = 1.1.

    This pins today's output, whose b = 0.5 row carries the Q2 fault: its
    Q2 is negative rounding noise and its rank1 is below 1 because of it.
    Mending that fault (ROADMAP item 1) changes this digest on purpose.
    """
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--a", "1.1", "--b-min", "0.5", "--b-max", "10", "--n-points", "3"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert _digest(out.read_bytes()) == (
        "15f96fe37c5d876fa738a5bfa5cc4317ea419ddea788d30e8f1696e3caba7bc4"
    )


def test_exported_code(tmp_path, capsys):
    out = tmp_path / "code.txt"
    assert cli.main(["code", *PINNED, "--k", "256", "--out", str(out)]) == 0
    assert _digest(out.read_bytes()) == (
        "0e7a596bac2132937be2bb9f8ea994c389b47816a006173074c68dcd735333e0"
    )


def test_fault_region_bound_stdout(capsys):
    """`bound --a 0.5 --b 0.5`, where the simplex refinement re-probes most.

    This pins today's output, which carries the Q2 fault: Q2 is negative
    rounding noise and `normalized` is below 1 because of it.  Mending that
    fault (ROADMAP item 1) changes this digest on purpose.
    """
    assert cli.main(["bound", "--a", "0.5", "--b", "0.5"]) == 0
    assert _digest(capsys.readouterr().out.encode()) == (
        "46eed21d47af2e663f96bff080b375517a614160a279bacf28c015321c2f998d"
    )
