"""End-to-end tests of the command-line surface and its exit codes."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linrelay
from linrelay.bound import BoundaryPair, ChannelParams, solve_endpoint, theorem_bound
from linrelay.cli import EXIT_INVALID_INPUT, EXIT_OK, _sweep_b_values, main
from linrelay.codes import parse_code
from linrelay.errors import EXIT_COLLAPSE, LinrelayError

AF = "0.47745726861858833"
BF = "0.7594024699528037"
CHANNEL_ARGS = ["--a", "1.1", "--b", "2"]
PAIR_ARGS = ["--Af", AF, "--Bf", BF]
SWEEP_ARGS = ["sweep", "--a", "1.1", "--b-min", "2", "--b-max", "5", "--n-points", "2"]
MISSING = "[Errno 2] No such file or directory: '{tmp}/missing/x'"

# (a, b, A_f, B_f, exit code, words of the error line) across the a^2
# boundary at a = 1.1, and one pair inside it whose A_f B_f overflows.
A2 = 1.1 * 1.1
BOUNDARY = [
    pytest.param("1.1", "2", repr(A2 * (1.0 + 1e-5)), "1", EXIT_INVALID_INPUT,
                 "exceeds a^2", id="above"),
    pytest.param("1.1", "2", repr(A2 * (1.0 - 1e-12)), "1", EXIT_INVALID_INPUT,
                 "within 1e-09", id="within"),
    pytest.param("1.1", "2", repr(A2), "1", EXIT_INVALID_INPUT,
                 "within 1e-09", id="at"),
    pytest.param("1e3", "1", "1e150", "1e160", EXIT_COLLAPSE,
                 "error: ", id="overflow"),
]


class TestBoundCommand:
    def test_explicit_pair_reports_json(self, capsys):
        code = main(["bound", *CHANNEL_ARGS, *PAIR_ARGS])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        ev = theorem_bound(
            BoundaryPair(A_f=float(AF), B_f=float(BF)), ChannelParams(a=1.1, b=2.0)
        )
        assert payload["normalized"] == ev.normalized
        assert payload["Q1"] == ev.Q1
        assert set(payload["baselines"]) == {"block_markov", "cutset", "two_by_two"}
        assert payload["baselines"]["cutset"] < payload["normalized"]

    def test_optimizes_when_pair_omitted(self, capsys):
        code = main(["bound", *CHANNEL_ARGS])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["normalized"] == pytest.approx(0.887008946, abs=1e-6)

    def test_ratio_violation_is_invalid_input(self, capsys):
        code = main(["bound", *CHANNEL_ARGS, "--Af", "2.0", "--Bf", "1.0"])
        assert code == EXIT_INVALID_INPUT
        assert "exceeds" in capsys.readouterr().err

    def test_half_pair_is_invalid_input(self, capsys):
        code = main(["bound", *CHANNEL_ARGS, "--Af", "0.5"])
        assert code == EXIT_INVALID_INPUT

    def test_bad_gain_is_invalid_input(self, capsys):
        code = main(["bound", "--a", "1.1", "--b", "-3"])
        assert code == EXIT_INVALID_INPUT


class TestSweepCommand:
    def test_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        svg = tmp_path / "chart.svg"
        code = main(
            [
                "sweep", "--a", "1.1", "--b-min", "2", "--b-max", "5",
                "--n-points", "2", "--grid", "log",
                "--out", str(out), "--svg", str(svg),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "a,b,block_markov,cutset,two_by_two,rank1,"
            "A_f,B_f,A0,psi,lambda,Q1,Q2"
        )
        assert len(lines) == 3
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 1.1
        assert first[1] == 2.0
        assert first[5] == pytest.approx(0.887008946, abs=1e-6)
        # A0 recovers lambda through a^2 c1^2 / A0 with c1 = b psi.
        a, b = first[0], first[1]
        assert first[10] == pytest.approx(a**2 * (b * first[9]) ** 2 / first[8], rel=1e-12)

        chart = svg.read_text()
        assert chart.startswith("<svg")
        assert chart.count("<polyline") == 4
        for label in ("block-Markov", "cut-set", "2x2 linear", "rank-1 linear"):
            assert label in chart

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main(
            [
                "sweep", "--a", "1.1", "--b-min", "2", "--b-max", "2",
                "--n-points", "2", "--out", str(out), "--format", "json",
            ]
        )
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0] == rows[1]
        assert rows[0]["rank1"] == pytest.approx(0.887008946, abs=1e-6)

    def test_failed_b_is_named_and_the_rest_written(self, optimized_cache, tmp_path, capsys):
        # At b = 1e6 the search finds no feasible point (exit 2).  The row
        # of b = 2 is still written, with optimize_bound's bits, and the
        # failed b is named with its error; the exit code is that error's.
        out = tmp_path / "table.csv"
        argv = ["sweep", "--a", "1.1", "--b-min", "2", "--b-max", "1e6", "--n-points", "2"]
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID_INPUT
        assert captured.err == "error: b=1000000.0: refinement found no feasible point\n"
        assert captured.out == f"wrote 1 rows to {out}\n"
        header, row = out.read_text().splitlines()
        assert header.startswith("a,b,")
        fields = row.split(",")
        assert fields[:2] == ["1.1", "2.0"]
        assert float(fields[5]) == optimized_cache(1.1, 2.0).normalized

    def test_grid_values(self):
        assert _sweep_b_values(1.0, 4.0, 3, "log") == pytest.approx([1.0, 2.0, 4.0], rel=1e-12)
        assert _sweep_b_values(1.0, 2.0, 3, "linear") == pytest.approx(
            [1.0, 1.5, 2.0], rel=1e-15
        )

    def test_tiny_b_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            values = _sweep_b_values(1e-7, 1.0, 2, "log")
        assert values[0] == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_points": 1},
            {"grid": "cubic"},
            {"format": "yaml"},
            {"b_min": 3.0, "b_max": 2.0},
        ],
    )
    def test_config_validation(self, kwargs, tmp_path, capsys):
        # Every invalid sweep exits 2 and writes nothing.  argparse's choices
        # refuse an unknown grid or format; cmd_sweep refuses a one-point
        # grid and an inverted b range before any solve.
        options = {"a": 1.1, "b_min": 1.0, "b_max": 2.0, "n_points": 4, **kwargs}
        argv = ["sweep", "--out", str(tmp_path / "t.csv")]
        for name, value in options.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        if {"grid", "format"} & kwargs.keys():
            with pytest.raises(SystemExit) as refused:
                main(argv)
            assert refused.value.code == EXIT_INVALID_INPUT
        else:
            assert main(argv) == EXIT_INVALID_INPUT
            assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())


class TestCodeCommand:
    def test_build_and_export(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        code = main(["code", *CHANNEL_ARGS, *PAIR_ARGS, "--k", "16", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 16
        assert payload["relative_gap"] < 0.01
        channel, parsed = parse_code(out)
        assert parsed.k == 16
        assert channel.a == 1.1

    def test_cap_enforced_without_force(self, capsys, monkeypatch):
        monkeypatch.setattr("linrelay.cli.DEFAULT_K_CAP", 4)
        out = "/tmp/never-written.txt"
        code = main(["code", *CHANNEL_ARGS, *PAIR_ARGS, "--k", "8", "--out", out])
        assert code == EXIT_INVALID_INPUT
        assert "--force" in capsys.readouterr().err

    def test_cap_bypassed_with_force(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("linrelay.cli.DEFAULT_K_CAP", 4)
        out = tmp_path / "code.txt"
        code = main(
            ["code", *CHANNEL_ARGS, *PAIR_ARGS, "--k", "8", "--out", str(out), "--force"]
        )
        assert code == EXIT_OK
        assert out.exists()


class TestVerifyCommand:
    def test_clean_pair_passes(self, capsys):
        code = main(["verify", *CHANNEL_ARGS, *PAIR_ARGS])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 8
        assert all(line.endswith("PASS") for line in lines)
        assert lines[0].startswith("endpoint_residuals")

    def test_boundary_pair_is_invalid_input(self, capsys):
        code = main(["verify", *CHANNEL_ARGS, "--Af", "0.847", "--Bf", "0.7"])
        assert code == EXIT_INVALID_INPUT
        assert "boundary" in capsys.readouterr().err


class TestPairRule:
    @pytest.mark.parametrize("command", ["bound", "code", "verify"])
    @pytest.mark.parametrize(
        ("Af", "message"),
        [
            pytest.param("10", "A_f/B_f=10 exceeds a^2=1.21", id="exceeds"),
            pytest.param(
                "1.2099999999",
                "A_f/B_f=1.2099999999 within 1e-09 of the a^2 boundary",
                id="within",
            ),
        ],
    )
    def test_one_rule_for_every_command(self, command, Af, message, tmp_path, capsys):
        # At a = 1.1 every command refuses a pair beyond a^2, and one within
        # the margin of it, with the same words.
        extra = ["--k", "16", "--out", str(tmp_path / "x")] if command == "code" else []
        code = main([command, *CHANNEL_ARGS, "--Af", Af, "--Bf", "1", *extra])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["bound", "code", "verify"])
    @pytest.mark.parametrize(("a", "b", "Af", "Bf", "expected", "words"), BOUNDARY)
    def test_exit_code_across_the_boundary(
        self, command, a, b, Af, Bf, expected, words, tmp_path, capsys
    ):
        extra = ["--k", "16", "--out", str(tmp_path / "x")] if command == "code" else []
        code = main([command, "--a", a, "--b", b, "--Af", Af, "--Bf", Bf, *extra])
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ")
        assert words in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(("a", "b", "Af", "Bf", "expected", "words"), BOUNDARY[:3])
    def test_solve_endpoint_refuses_as_theorem_bound(self, a, b, Af, Bf, expected, words):
        # The rule lives in solve_endpoint, so a direct solve (verify's path)
        # and a bound evaluation refuse a boundary pair with one error.
        channel = ChannelParams(a=float(a), b=float(b))
        pair = BoundaryPair(A_f=float(Af), B_f=float(Bf))
        with pytest.raises(LinrelayError) as solved:
            solve_endpoint(pair, channel)
        with pytest.raises(LinrelayError) as bounded:
            theorem_bound(pair, channel)
        assert type(solved.value) is type(bounded.value)
        assert str(solved.value) == str(bounded.value)
        assert solved.value.exit_code == expected
        assert words in str(solved.value)


class TestExitCodes:
    @pytest.mark.parametrize(
        ("argv", "expected", "words"),
        [
            pytest.param(
                ["bound", *CHANNEL_ARGS, "--Af", "1e-300", "--Bf", "1e300"],
                EXIT_COLLAPSE,
                None,
                id="bound-non-finite",
            ),
            pytest.param(
                ["bound", "--a", "1e-6", "--b", "1e6", "--Af", "1e-13", "--Bf", "1"],
                EXIT_COLLAPSE,
                None,
                id="bound-depth",
            ),
            pytest.param(
                ["verify", *CHANNEL_ARGS, "--Af", "1e-8", "--Bf", "1e8"],
                EXIT_COLLAPSE,
                None,
                id="verify-depth",
            ),
            pytest.param(
                ["code", *CHANNEL_ARGS, "--Af", "1e-8", "--Bf", "1e8", "--k", "64",
                 "--out", "{tmp}/x"],
                EXIT_COLLAPSE,
                None,
                id="code-depth",
            ),
            pytest.param(
                ["bound", "--a", "1e200", "--b", "1", "--Af", "1", "--Bf", "1"],
                EXIT_COLLAPSE,
                "a^2 overflows at gain a=1e+200",
                id="bound-overflow-gain",
            ),
            pytest.param(
                ["sweep", "--a", "1e200", "--b-min", "1", "--b-max", "2", "--n-points", "2",
                 "--out", "{tmp}/x.csv"],
                EXIT_COLLAPSE,
                "a^2 overflows at gain a=1e+200",
                id="sweep-overflow-gain",
            ),
            *(
                pytest.param(argv, EXIT_COLLAPSE, "b^2 overflows at gain b=1e+200",
                             id=f"{argv[0]}-overflow-gain-b{'-pair' if '--Af' in argv else ''}")
                for argv in (
                    ["bound", "--a", "1.1", "--b", "1e200"],
                    ["bound", "--a", "1.1", "--b", "1e200", *PAIR_ARGS],
                    ["verify", "--a", "1.1", "--b", "1e200"],
                    ["verify", "--a", "1.1", "--b", "1e200", *PAIR_ARGS],
                    ["code", "--a", "1.1", "--b", "1e200", "--k", "8", "--out", "{tmp}/x"],
                    ["code", "--a", "1.1", "--b", "1e200", *PAIR_ARGS, "--k", "8",
                     "--out", "{tmp}/x"],
                    ["sweep", "--a", "1.1", "--b-min", "0.5", "--b-max", "1e200",
                     "--n-points", "3", "--out", "{tmp}/x.csv"],
                )
            ),
            pytest.param(
                ["sweep", "--a", "1e-200", "--b-min", "1", "--b-max", "2", "--n-points", "2",
                 "--out", "{tmp}/x.csv"],
                EXIT_INVALID_INPUT,
                "gain a=1e-200 too small",
                id="sweep-underflow-gain",
            ),
            pytest.param(
                ["bound", *CHANNEL_ARGS, "--Af", "1e200", "--Bf", "1e200"],
                EXIT_COLLAPSE,
                None,
                id="bound-overflow-pair",
            ),
            pytest.param(
                ["bound", *CHANNEL_ARGS, "--Af", "1e-200", "--Bf", "1e-200"],
                EXIT_COLLAPSE,
                "A_f*B_f underflows to 0 at A_f=1e-200, B_f=1e-200",
                id="bound-zero-division-pair",
            ),
            pytest.param(
                ["verify", *CHANNEL_ARGS, "--Af", "1e-200", "--Bf", "1e-200"],
                EXIT_COLLAPSE,
                "A_f*B_f underflows to 0 at A_f=1e-200, B_f=1e-200",
                id="verify-zero-product-pair",
            ),
            pytest.param(
                ["bound", "--a", "1.1", "--b", "1e-200", "--Af", "0.4774", "--Bf", "0.7594"],
                EXIT_COLLAPSE,
                "b^2 underflows to 0 at gain b=1e-200",
                id="bound-zero-division-gain",
            ),
            # Refused before the search, which would divide by b^2 = 0 at its end.
            *(
                pytest.param(argv, EXIT_COLLAPSE, "b^2 underflows to 0 at gain b=1e-200",
                             id=f"{argv[0]}-underflow-gain-b")
                for argv in (
                    ["bound", "--a", "1.1", "--b", "1e-200"],
                    ["verify", "--a", "1.1", "--b", "1e-200"],
                    ["code", "--a", "1.1", "--b", "1e-200", "--k", "8", "--out", "{tmp}/x"],
                )
            ),
            pytest.param(
                ["code", *CHANNEL_ARGS, *PAIR_ARGS, "--k", "16",
                 "--out", "{tmp}/missing/x"],
                EXIT_INVALID_INPUT,
                None,
                id="code-unwritable-out",
            ),
            pytest.param(
                ["code", *CHANNEL_ARGS, "--k", "0", "--out", "{tmp}/x"],
                EXIT_INVALID_INPUT,
                None,
                id="code-zero-k",
            ),
            pytest.param(
                ["verify", *CHANNEL_ARGS, "--n-samples", "1"],
                EXIT_INVALID_INPUT,
                None,
                id="verify-one-sample",
            ),
        ],
    )
    def test_failure_maps_to_exit_code(
        self, argv, expected, words, tmp_path, capsys, monkeypatch
    ):
        # Numerical failures, typed or bare arithmetic, exit 3 and unusable
        # input exits 2, each with one error line and no traceback.  Bad
        # sizes are refused before the optimizer runs.  At extreme gains the
        # line names the gain, and a sweep writes nothing.
        def no_optimize(channel):
            raise AssertionError("optimize_bound called")

        monkeypatch.setattr("linrelay.cli.optimize_bound", no_optimize)
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if words is not None:
            assert words in err
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        ("argv", "target", "message"),
        [
            pytest.param(
                ["code", *CHANNEL_ARGS, *PAIR_ARGS, "--k", "300000", "--out", "{tmp}/x",
                 "--force"],
                "linrelay.cli.build_code",
                "Unable to allocate 671. GiB for an array with shape (300000, 300000) "
                "and data type float64",
                id="code-forced-k",
            ),
            pytest.param(
                ["verify", *CHANNEL_ARGS, *PAIR_ARGS, "--n-samples", "10000000000000"],
                "linrelay.cli.build_trajectory",
                "",
                id="verify-n-samples",
            ),
        ],
    )
    def test_out_of_memory_is_invalid_input(
        self, argv, target, message, tmp_path, capsys, monkeypatch
    ):
        # The call that would allocate raises instead, with numpy's message
        # or none; the command exits 2 with one error line, no traceback.
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(target, no_memory)
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert code == EXIT_INVALID_INPUT
        shown = f"error: out of memory: {message}" if message else "error: out of memory"
        assert capsys.readouterr().err == shown + "\n"

    @pytest.mark.parametrize(
        ("command", "extra"),
        [
            pytest.param("bound", [], id="bound"),
            pytest.param("verify", [], id="verify"),
            pytest.param("code", ["--k", "8", "--out", "{tmp}/x"], id="code"),
        ],
    )
    @pytest.mark.parametrize(
        ("a", "expected", "words"),
        [
            pytest.param("1e200", EXIT_COLLAPSE, "a^2*B_f overflows at gain a=1e+200",
                         id="overflow-gain"),
            pytest.param("1e153", EXIT_COLLAPSE, "a^2*B_f overflows at gain a=1e+153",
                         id="overflow-a2-times-bf"),
            pytest.param("1e-200", EXIT_INVALID_INPUT, "gain a=1e-200 too small",
                         id="underflow-gain"),
            *(
                pytest.param(tiny, EXIT_INVALID_INPUT,
                             f"every grid point degenerate for a={tiny}, b=1.0",
                             id=f"tiny-gain-{tiny}")
                for tiny in ("1e-100", "1e-150", "1e-155")
            ),
        ],
    )
    def test_gain_off_the_scan_grid(self, command, extra, a, expected, words, tmp_path, capsys):
        # Without a pair, a gain whose A_f = rho a^2 B_f cannot be a positive
        # finite float on the optimizer's grid is refused before any solve,
        # naming a^2 B_f, not an A_f the user never gave.  At a gain just
        # above that, f's 2 w^2 underflows to 0 on every grid pair; the walk
        # refuses each pair as non-finite, and the error names the gain.
        argv = [command, "--a", a, "--b", "1", *extra]
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert words in err
        assert "A_f" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv,error",
        [
            pytest.param(
                ["code", *CHANNEL_ARGS, "--k", "1024", "--out", "{tmp}/missing/x"],
                MISSING,
                id="code-optimized",
            ),
            pytest.param(
                ["code", *CHANNEL_ARGS, *PAIR_ARGS, "--k", "16", "--out", "{tmp}/missing/x"],
                MISSING,
                id="code-pair",
            ),
            pytest.param([*SWEEP_ARGS, "--out", "{tmp}/missing/x"], MISSING, id="sweep-out"),
            pytest.param(
                [*SWEEP_ARGS, "--out", "{tmp}/t.csv", "--svg", "{tmp}/missing/x"],
                MISSING,
                id="sweep-svg",
            ),
            pytest.param(
                ["code", *CHANNEL_ARGS, "--k", "8", "--out", "{tmp}"],
                "[Errno 21] Is a directory: '{tmp}'",
                id="code-directory",
            ),
            pytest.param(
                [*SWEEP_ARGS, "--out", "{tmp}/t.csv", "--svg", "{tmp}"],
                "[Errno 21] Is a directory: '{tmp}'",
                id="sweep-svg-directory",
            ),
            pytest.param(
                ["code", *CHANNEL_ARGS, "--k", "8", "--out", ""],
                "[Errno 2] No such file or directory: ''",
                id="code-empty",
            ),
            pytest.param(
                [*SWEEP_ARGS, "--out", ""],
                "[Errno 2] No such file or directory: ''",
                id="sweep-empty",
            ),
        ],
    )
    def test_missing_directory_refused_before_any_solve(
        self, argv, error, tmp_path, capsys, monkeypatch
    ):
        # A missing directory, a directory in place of the file, or an empty
        # path is refused before any solve, and nothing is written.
        def no_solve(*args):
            raise AssertionError("solved before the output directory was checked")

        for name in (
            "linrelay.cli.theorem_bound",
            "linrelay.cli.optimize_bound",
            "linrelay.baselines.optimize_bounds",
        ):
            monkeypatch.setattr(name, no_solve)
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert code == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {error.replace('{tmp}', str(tmp_path))}\n"
        assert not any(tmp_path.iterdir())


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # A fresh interpreter that imports this checkout's linrelay.
    src = str(Path(linrelay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


class TestModuleEntryPoint:
    def test_python_m_linrelay_maps_errors_to_exit_codes(self):
        proc = _run_python("-m", "linrelay", "bound", "--a", "1.1", "--b", "-3")
        assert proc.returncode == EXIT_INVALID_INPUT
        assert proc.stdout == ""
        assert proc.stderr == "error: gain b must be positive and finite, got -3.0\n"
