"""Shared fixtures: session-scoped result caches and the criteria report.

Optimizing the bound and scanning the 2x2 grid are the two expensive calls in
the suite, so their results are cached per channel and shared by every test
module.  Acceptance tests record one line per criterion; the lines are
replayed in a dedicated section of the terminal summary.
"""
from __future__ import annotations

import pytest

from linrelay import BoundEvaluation, ChannelParams, optimize_bound, two_by_two_bound

_ACCEPTANCE_LINES: list[str] = []


def _record_criterion(index: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {index:2d} [{name}]: {status}"
    if detail:
        line += f"  ({detail})"
    _ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture
def criterion_recorder():
    """Callable (index, name, passed, detail) adding one summary line."""
    return _record_criterion


@pytest.fixture(scope="session")
def optimized_cache():
    """Memoized optimize_bound keyed by (a, b)."""
    cache: dict[tuple[float, float], BoundEvaluation] = {}

    def get(a: float, b: float):
        key = (a, b)
        if key not in cache:
            cache[key] = optimize_bound(ChannelParams(a=a, b=b))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def two_by_two_cache():
    """Memoized two_by_two_bound keyed by (a, b)."""
    cache: dict[tuple[float, float], float] = {}

    def get(a: float, b: float):
        key = (a, b)
        if key not in cache:
            cache[key] = two_by_two_bound(ChannelParams(a=a, b=b))
        return cache[key]

    return get


def pytest_terminal_summary(terminalreporter) -> None:
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
