import functools
import os
import sys
from pathlib import Path

import pytest

from scorza.verify import CHECKS

# CLI subprocesses (`python -m scorza.cli`) import the package from this
# checkout's src, as the tests themselves do through pyproject's pythonpath
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

# the one seeded run of each check that test_suites.py and acceptance
# criteria 4-6 read
SUITE_SEED = 20_260_810
SUITE_TRIALS = {"composition": 400, "jordan": 40, "strata": 100, "moment": 30, "catalog": 1}
ROWS = {(suite, row.name): row for suite, rows in CHECKS.items() for row in rows}


@functools.cache
def _check_result(suite: str, name: str):
    return ROWS[suite, name].run(SUITE_TRIALS[suite], SUITE_SEED)


@pytest.fixture
def count_calls():
    """count_calls(fn, match) -> (fn(), the number of calls made while fn
    runs into a frame that match(frame) accepts), counted by a
    sys.setprofile hook; the profiler in place before is put back."""

    def counted(fn, match) -> tuple:
        count = 0

        def hook(frame, event, arg):
            nonlocal count
            if event == "call" and match(frame):
                count += 1

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            result = fn()
        finally:
            sys.setprofile(previous)
        return result, count

    return counted


@pytest.fixture(scope="session")
def suite_check():
    """(suite, check name) -> the CheckResult of that check's shared run;
    a check that raises fails only the cases that read it."""
    return _check_result
