"""Self-test of the benchmark's checks: each one rejects a corrupted output.

    python3 perfbench/selftest.py

Run from the root of a linrelay checkout.  It makes small real outputs (a
two-point sweep, a k=256 code, one verify report), confirms that the checks
accept them, then corrupts each and confirms that the checks reject it:

- one altered CSV digit: a digit of rank1 (caught by the QUADPACK bound) and
  the last digit of psi (caught by the byte-identity of repeats);
- one perturbed D entry (caught by the LU evaluation) and one dropped entry
  (caught by the exchange-format reader);
- one FAIL line, and one PASS line whose worst exceeds its tol.

Exits 0 when every corruption is caught.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import checks
from run import child_env

HERE = Path(__file__).resolve().parent
OUT = HERE / "out" / "selftest"
A, B, K = 1.1, 2.0, 256


def linrelay(*argv: str) -> tuple[int, str]:
    code = "import sys, linrelay.cli; sys.exit(linrelay.cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=OUT, env=child_env(Path.cwd()),
                          stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout


def alter_digit(text: str, column: str, digit_index: int) -> str:
    """Change one digit of `column` in the first data row."""
    lines = text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    cells = lines[1].rstrip("\n").split(",")
    cell = cells[header.index(column)]
    digits = [i for i, ch in enumerate(cell) if ch.isdigit()]
    pos = digits[digit_index]
    cells[header.index(column)] = cell[:pos] + str((int(cell[pos]) + 1) % 10) + cell[pos + 1:]
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


def main() -> int:
    if not (Path.cwd() / "src" / "linrelay" / "cli.py").is_file():
        print("error: run from the root of a linrelay checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    results = []

    def expect(name: str, fails, want_rejected: bool) -> None:
        ok = bool(fails) == want_rejected
        results.append(ok)
        verdict = "rejected" if fails else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict} {sorted(set(fails))}")

    # Sweep: the clean row passes; altered digits are caught.
    rc, _ = linrelay("sweep", "--a", repr(A), "--b-min", "2.0", "--b-max", "5.0",
                     "--n-points", "2", "--out", "sweep.csv")
    clean = (OUT / "sweep.csv").read_text()
    row = checks.sweep_rows(clean)[0]
    expect("sweep row as written", checks.check_sweep_row(row) + ([] if rc == 0 else ["rc"]), False)
    bad_rank1 = checks.sweep_rows(alter_digit(clean, "rank1", 5))[0]
    expect("sweep row, one rank1 digit altered", checks.check_sweep_row(bad_rank1), True)
    altered = alter_digit(clean, "psi", -1)
    expect("sweep repeat, last psi digit altered",
           ["csv_not_identical"] if altered != clean else [], True)

    # Code: the clean file passes; a perturbed or dropped D entry is caught.
    rc, stdout = linrelay("code", "--a", repr(A), "--b", repr(B), "--k", str(K), "--out", "code.txt")
    report = json.loads(stdout)
    fails, _ = checks.check_code(report, OUT / "code.txt", K, A, B)
    expect("code as exported", fails + ([] if rc == 0 else ["rc"]), False)
    lines = (OUT / "code.txt").read_text().split("\n")
    row_index = K // 2  # the line of D's row K/2, which has K/2 - 1 entries
    entries = lines[row_index].split()
    entries[len(entries) // 2] = repr(float(entries[len(entries) // 2]) * 1.01)
    perturbed = lines.copy()
    perturbed[row_index] = " ".join(entries)
    (OUT / "code-perturbed.txt").write_text("\n".join(perturbed))
    fails, _ = checks.check_code(report, OUT / "code-perturbed.txt", K, A, B)
    expect("code, one D entry scaled by 1.01", fails, True)
    dropped = lines.copy()
    dropped[row_index] = " ".join(entries[:-1])
    (OUT / "code-dropped.txt").write_text("\n".join(dropped))
    fails, _ = checks.check_code(report, OUT / "code-dropped.txt", K, A, B)
    expect("code, one D entry dropped", fails, True)

    # Verify: the clean report passes; a FAIL line and an over-tolerance PASS are caught.
    rc, stdout = linrelay("verify", "--a", repr(A), "--b", repr(B))
    expect("verify as printed", checks.check_verify(rc, stdout), False)
    first = stdout.splitlines()[1]
    expect("verify, one line turned FAIL",
           checks.check_verify(rc, stdout.replace(first, first.replace("PASS", "FAIL"))), True)
    name, rest = first.split(": ", 1)
    tol = rest.split()[1]
    over = f"{name}: worst=1.000e+00 {tol} PASS"
    expect("verify, one PASS line with worst above tol",
           checks.check_verify(rc, stdout.replace(first, over)), True)

    print("all corruptions caught" if all(results) else "SOME CHECK MISSED A CORRUPTION")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
