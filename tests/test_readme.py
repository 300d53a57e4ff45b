"""The README's examples show what they print.

Every block in README.md whose first line is `$ linrelay ...` is run through
`cli.main`, and each line the block shows must appear in the output, in
order; a block without a `...` line, which stands for output the README
leaves out, must be the whole output.  The Library block is run as Python,
and each number it prints starts with the digits its line's comment shows.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import linrelay
from linrelay import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[list[str], list[str]]]:
    examples = []
    block: list[str] | None = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if block and block[0].startswith("$ linrelay "):
                examples.append((shlex.split(block[0])[2:], block[1:]))
            block = [] if block is None else None
        elif block is not None:
            block.append(line)
    return examples


EXAMPLES = _examples()


def test_readme_shows_bound_and_verify():
    assert [argv[0] for argv, _ in EXAMPLES] == ["bound", "verify"]


@pytest.mark.parametrize(("argv", "shown"), EXAMPLES, ids=[e[0][0] for e in EXAMPLES])
def test_example_output(argv, shown, optimized_cache, monkeypatch, capsys):
    # The optimum comes from the shared cache, which holds optimize_bound's
    # own result, so the suite solves it once.
    monkeypatch.setattr(cli, "optimize_bound", lambda ch: optimized_cache(ch.a, ch.b))
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if "..." not in (line.strip() for line in shown):
        assert printed == shown
        return
    remaining = iter(printed)
    for line in shown:
        if line.strip() != "...":
            assert line in remaining, f"README line not printed (in order): {line!r}"


def test_library_example_prints_the_digits_it_shows(optimized_cache, monkeypatch, capsys):
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    block = text[start : text.index("```", start)]
    # Each print's comment ends with the leading digits of what it prints.
    shown = [
        re.findall(r"(\d+\.\d+)\.\.\.", line.partition("#")[2])
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    monkeypatch.setattr(linrelay, "optimize_bound", lambda ch: optimized_cache(ch.a, ch.b))
    exec(compile(block, str(README), "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [len(digits) for digits in shown] == [len(numbers) for numbers in printed] == [2, 2]
    for numbers, digits in zip(printed, shown):
        for number, prefix in zip(numbers, digits):
            assert number.startswith(prefix), f"README shows {prefix}..., printed {number}"
