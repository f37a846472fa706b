"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent and a few counts (sites,
steps, unknowns, paths) taken from the call's inputs.  Spans are kept in
a list and written out once, when the run ends.  With tracing off,
``span`` is a no-op context, so untraced and traced rounds run the same
code.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover (children of
    one span never overlap: every call is synchronous)."""
    self_t = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            self_t[s["parent"]] -= s["end"] - s["start"]
    return self_t


def layer_metrics(spans: list[dict], n_rounds: int, overhead_s: float) -> dict:
    """Per-layer figures from the spans of ``n_rounds`` traced rounds.

    Times and call counts are per round; rates are totals over totals.
    A layer the workload never calls reads 0.
    """
    self_t = _self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, count=None):
        group = by_name.get(name, [])
        if count is None:
            return sum(s["end"] - s["start"] for s in group)
        return sum(s["counts"][count] for s in group)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = by_name.get("homogenize.corrector_solve", [])
    avg_self = sum(self_t[s["id"]] for s in by_name.get("homogenize.avg_greens_mc", []))
    lang_s = total("environments.langevin_simulate")
    lang_steps = total("environments.langevin_simulate", "site_steps")
    corr_s = total("field_theory.correlation_identity_check")
    poinc_s = total("field_theory.poincare_variance_check")
    values = {
        "homogenize.corrector_solve.s": (total("homogenize.corrector_solve") / n_rounds, "s"),
        "homogenize.corrector_solve.calls": (len(solves) / n_rounds, "count"),
        "homogenize.corrector_solve.max_s": (
            max((s["end"] - s["start"] for s in solves), default=0.0), "s"),
        "homogenize.corrector_solve.unknowns_per_s": (
            ratio(total("homogenize.corrector_solve", "unknowns"),
                  total("homogenize.corrector_solve")), "1/s"),
        "homogenize.reduce.s": (total("homogenize.reduce") / n_rounds, "s"),
        "environments.langevin_simulate.s": (lang_s / n_rounds, "s"),
        "environments.langevin_simulate.calls": (
            len(by_name.get("environments.langevin_simulate", [])) / n_rounds, "count"),
        "environments.langevin.ns_per_site_step": (1e9 * ratio(lang_s, lang_steps), "ns"),
        "environments.site_steps": (lang_steps / n_rounds, "count"),
        "environments.coefficient_field.s": (
            total("environments.coefficient_field") / n_rounds, "s"),
        "homogenize.avg_greens_mc.self_s": (avg_self / n_rounds, "s"),
        "parabolic.forward.ns_per_site_step": (
            1e9 * ratio(avg_self, total("homogenize.avg_greens_mc", "site_steps")), "ns"),
        "field_theory.correlation_identity_check.s": (corr_s / n_rounds, "s"),
        "field_theory.correlation.paths_per_s": (
            ratio(total("field_theory.correlation_identity_check", "paths"), corr_s), "1/s"),
        "field_theory.poincare_variance_check.s": (poinc_s / n_rounds, "s"),
        "field_theory.poincare.paths_per_s": (
            ratio(total("field_theory.poincare_variance_check", "paths"), poinc_s), "1/s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
