import functools

import pytest

from scorza.verify import run_suite

# the one seeded run of each suite that test_suites.py and acceptance
# criteria 4-6 read
SUITE_SEED = 20_260_810
SUITE_TRIALS = {"composition": 400, "jordan": 40, "strata": 100, "moment": 30, "catalog": 1}


@functools.cache
def _suite_checks(suite: str) -> dict:
    report = run_suite(suite, SUITE_TRIALS[suite], SUITE_SEED)
    return {c.name: c for c in report.checks}


@pytest.fixture(scope="session")
def suite_checks():
    """suite -> {check name: CheckResult} of that suite's shared run."""
    return _suite_checks
