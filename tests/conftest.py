"""Shared fixtures: pinned tolerances, the session fuzz corpus, a
factorization counter, and the acceptance-line recorder that prints one
PASS/FAIL line per criterion."""

import pytest

from mpecq import Tolerances, kernels
from mpecq.fuzz import run_fuzz

# pinned for the acceptance gate; every threshold is explicit
PINNED_TOL = Tolerances(activity_eps=1e-8, rank_rel_tol=1e-12, feas_eps=1e-6)

FUZZ_POINTS = 1000
FUZZ_SEED = 20240817

ACCEPTANCE_LINES = []
_EXPECTED_CRITERIA = tuple(range(1, 11))


@pytest.fixture(scope="session")
def fuzz_summary():
    """One deterministic randomized sweep shared by all acceptance tests."""
    return run_fuzz(FUZZ_POINTS, FUZZ_SEED, PINNED_TOL)


@pytest.fixture
def factorizations(monkeypatch):
    """One entry per `_presolved_rank` run, the rank memo's misses."""
    calls = []
    presolved_rank = kernels._presolved_rank
    monkeypatch.setattr(kernels, "_presolved_rank",
                        lambda *args: calls.append(1) or presolved_rank(*args))
    return calls


@pytest.fixture
def acceptance():
    """Record and assert one acceptance criterion outcome."""
    def record(num: int, description: str, passed: bool):
        line = (f"ACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} - "
                f"{description}")
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    emitted = set()
    for line in sorted(set(ACCEPTANCE_LINES)):
        emitted.add(int(line.split()[1].rstrip(":")))
        terminalreporter.write_line(line)
    for num in _EXPECTED_CRITERIA:
        if num not in emitted:
            terminalreporter.write_line(
                f"ACCEPTANCE {num:02d}: FAIL - not evaluated "
                "(criterion test did not run)")
