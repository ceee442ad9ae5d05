"""One test case per verify check, each read from that check's shared run."""

import hashlib
import json
from collections import Counter

import pytest

from scorza.verify import CHECKS, run_suite

NAMES = sorted((suite, row.name) for suite, rows in CHECKS.items() for row in rows)


def test_check_names_pinned():
    # a check that vanishes would silently take its test case with it
    assert Counter(suite for suite, _ in NAMES) == {
        "composition": 9, "jordan": 11, "strata": 28, "moment": 31, "catalog": 6,
    }
    assert hashlib.sha256(json.dumps(NAMES).encode()).hexdigest() == (
        "76857d48eaef540e42340572b4f7a55bf828a9944822d195b21e78faab882da4"
    )


@pytest.mark.parametrize("suite", list(CHECKS))
def test_every_check_runs_alone(suite):
    # a suite run is its rows run one by one, so each case above stands
    # for the check as the suite runs it
    alone = sorted((row.run(2, 11) for row in CHECKS[suite]), key=lambda c: c.name)
    assert json.dumps([c.to_json() for c in run_suite(suite, 2, 11).checks]) == (
        json.dumps([c.to_json() for c in alone])
    )


@pytest.mark.parametrize("suite,name", NAMES, ids=[name for _, name in NAMES])
def test_check(suite, name, suite_check):
    check = suite_check(suite, name)
    assert check.ok, f"{suite} check {name}: witness {check.witness}, info {check.info}"
