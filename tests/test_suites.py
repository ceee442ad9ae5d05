"""One test case per verify check, each read from its suite's shared run."""

import hashlib
import json
from collections import Counter

import pytest

from scorza.verify import SUITES, run_suite

# check names do not depend on trials or seed, so a one-trial run lists them
CHECKS = [(suite, c.name) for suite in SUITES if suite != "all"
          for c in run_suite(suite, 1, 0).checks]


def test_check_names_pinned():
    # a check that vanishes would silently take its test case with it
    assert Counter(suite for suite, _ in CHECKS) == {
        "composition": 9, "jordan": 11, "strata": 28, "moment": 31, "catalog": 6,
    }
    assert hashlib.sha256(json.dumps(sorted(CHECKS)).encode()).hexdigest() == (
        "76857d48eaef540e42340572b4f7a55bf828a9944822d195b21e78faab882da4"
    )


@pytest.mark.parametrize("suite,name", CHECKS, ids=[name for _, name in CHECKS])
def test_check(suite, name, suite_checks):
    check = suite_checks(suite)[name]
    assert check.ok, f"{suite} check {name}: witness {check.witness}, info {check.info}"
