"""Acceptance gate: one verdict line per criterion.

Criterion 13 (decay-rate measurements) takes about 5 minutes (317 s on a
2-core machine, its independent environments sampled on both cores,
Python 3.11, numpy 2.4, scipy 1.17) and only runs when the environment
variable PARAHOM_TIER is set to "full".
"""

import os

import pytest

from parahom import acceptance

FULL_TIER = os.environ.get("PARAHOM_TIER", "fast") == "full"


def _report(res):
    verdict = "PASS" if res["passed"] else "FAIL"
    print(
        f"\nACCEPTANCE {res['id']:2d} [{verdict}] {res['title']}: "
        f"{res['detail']} ({res['seconds']}s)"
    )
    assert res["passed"], f"criterion {res['id']}: {res['detail']}"


@pytest.mark.parametrize("cid", range(1, 13))
def test_acceptance_criterion(cid):
    _report(acceptance.run_criterion(cid))


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (set PARAHOM_TIER=full)")
def test_acceptance_criterion_13():
    _report(acceptance.run_criterion(13))
