"""Acceptance gate: one verdict line per criterion.

Criterion 13 (decay-rate measurements) takes about 2.5 minutes (138 s on a
2-core machine, its independent environments sampled on both cores,
Python 3.11, numpy 2.4, scipy 1.17) and only runs when the environment
variable PARAHOM_TIER is set to "full".
"""

import os

import numpy as np
import pytest

from parahom import acceptance
from parahom.homogenize import RateReport

FULL_TIER = os.environ.get("PARAHOM_TIER", "fast") == "full"


def _report(res):
    print("\n" + acceptance.verdict_line(res))
    assert res["passed"], f"criterion {res['id']}: {res['detail']}"


@pytest.mark.parametrize("cid", range(1, 13))
def test_acceptance_criterion(cid):
    _report(acceptance.run_criterion(cid))


@pytest.mark.skipif(not FULL_TIER, reason="full tier only (set PARAHOM_TIER=full)")
def test_acceptance_criterion_13():
    _report(acceptance.run_criterion(13))


@pytest.mark.parametrize("lower_b, passed", [(0.32, True), (-0.01, False)])
def test_criterion_13_verdict_from_its_pipeline_outputs(monkeypatch, lower_b, passed):
    # criterion 13's wiring on fixed pipeline outputs, in milliseconds: the
    # keys it reads, the c_hom it hands from the ladder to 13(b), and the
    # detail line it builds
    rep_a = RateReport(np.ones(5), np.ones(5), -3.0, 0.1275, 3.47, "greens-decay")
    seen = {}

    def ladder(cells, etas):
        seen["cells"] = cells
        return {"c_hom": 1.25}

    def excess_b(V, m, cube, dt, c_hom, n_env, seed):
        seen["c_hom"] = c_hom
        return {"first": np.zeros((n_env, 9)), "excess": 0.75, "excess_lower": lower_b,
                "excluded": 4}

    monkeypatch.setattr(acceptance, "avg_kernel_excess", lambda *a, **k: {"report": rep_a})
    monkeypatch.setattr(acceptance, "_map_on_cores", lambda fn, items: ["cell"])
    monkeypatch.setattr(acceptance, "a_hom_ladder", ladder)
    monkeypatch.setattr(acceptance, "first_difference_excess", excess_b)
    res = acceptance.run_criterion(13)
    assert seen == {"cells": ["cell"], "c_hom": 1.25}
    assert res["passed"] is passed
    assert res["detail"] == (
        "d=3 parabolic: excess 3.47 (lower 2.96); d=2 elliptic first-difference: "
        f"excess 0.75 (lower {lower_b:.2f}, 4 of 9 probes excluded)")
