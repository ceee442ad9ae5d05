import functools

import pytest

from scorza.verify import CHECKS

# the one seeded run of each check that test_suites.py and acceptance
# criteria 4-6 read
SUITE_SEED = 20_260_810
SUITE_TRIALS = {"composition": 400, "jordan": 40, "strata": 100, "moment": 30, "catalog": 1}
ROWS = {(suite, row.name): row for suite, rows in CHECKS.items() for row in rows}


@functools.cache
def _check_result(suite: str, name: str):
    return ROWS[suite, name].run(SUITE_TRIALS[suite], SUITE_SEED)


@pytest.fixture(scope="session")
def suite_check():
    """(suite, check name) -> the CheckResult of that check's shared run;
    a check that raises fails only the cases that read it."""
    return _check_result
