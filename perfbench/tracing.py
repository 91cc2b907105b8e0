"""Spans around the calls into each layer of the package, recorded from outside.

``Tracer.install`` replaces the names that ``inertia.cli`` and
``inertia.analysis`` import (plus the package-level ``integrate`` and the
``QuadraticLandscape`` methods) with wrappers that record one span per
call: name, start, end and the enclosing span. Spans stay in memory until
``Tracer.dump``; ``layer_metrics`` turns a dump into per-layer figures,
where a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._last_read_shape = (0, 0)

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result, raised)`` counts."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result, raised = None, True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1] if stack else -1)
                if after is not None:
                    after(args, kwargs, result, raised)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None):
        """Wrap ``owner.attr``; a name the package no longer has is skipped."""
        if hasattr(owner, attr):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def install(self):
        import inertia
        import inertia.analysis as analysis
        import inertia.cli as cli
        import inertia.render as render
        from inertia.landscapes import QuadraticLandscape

        count = self.counts

        def exits(args, kwargs, result, raised):
            count["cli.invocations"] += 1
            count["cli.nonzero_exits"] += int(raised or result != 0)

        def steps(args, kwargs, result, raised):
            count["integrators.steps"] += args[2].n_steps

        def member_steps(args, kwargs, result, raised):
            count["integrators.member_steps"] += args[2].n_steps * args[3]

        def drift_steps(args, kwargs, result, raised):
            count["discrete.drift_profile_steps"] += args[3]

        def written(args, kwargs, result, raised):
            if raised:
                return
            columns = args[1]
            count["output.files"] += 1
            count["output.bytes"] += os.path.getsize(args[0])
            count["output.cells"] += len(columns) * len(next(iter(columns.values())))

        def read(args, kwargs, result, raised):
            if not raised:
                self._last_read_shape = (len(next(iter(result.values()))), len(result))

        def rendered(args, kwargs, result, raised):
            rows, cols = self._last_read_shape
            xy = kwargs.get("xy", args[2] if len(args) > 2 else None)
            count["render.points"] += rows * (1 if xy else cols - 1)

        self.patch(cli, "main", "cli.main", exits)
        for owner in (cli, analysis, inertia):
            self.patch(owner, "integrate", "integrators.integrate", steps)
        self.patch(analysis, "ensemble_series", "integrators.ensemble_series", member_steps)
        self.patch(cli, "ensemble_expected_decay", "analysis.ensemble_expected_decay")
        self.patch(cli, "sweep_gamma", "analysis.sweep_gamma")
        self.patch(analysis, "fit_decay_rate", "analysis.fit_decay_rate")
        self.patch(cli, "drift_profile", "discrete.drift_profile", drift_steps)
        self.patch(cli, "momentum_step", "discrete.momentum_step")
        self.patch(cli, "write_csv", "output.write_csv", written)
        self.patch(cli, "write_json", "output.write_json", written)
        self.patch(cli, "write_manifest", "output.write_manifest")
        self.patch(cli, "render_csv", "render.render_csv", rendered)
        self.patch(render, "read_csv_columns", "render.read_csv_columns", read)
        self.patch(QuadraticLandscape, "__init__", "landscapes.construct")
        self.patch(QuadraticLandscape, "gradient", "landscapes.gradient")
        self.patch(QuadraticLandscape, "value", "landscapes.value")

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "integrators.integrate_s": "s",
    "integrators.us_per_step": "us",
    "integrators.steps": "count",
    "integrators.ensemble_s": "s",
    "integrators.ns_per_member_step": "ns",
    "integrators.member_steps": "count",
    "analysis.reduce_s": "s",
    "analysis.fit_s": "s",
    "analysis.fit_calls": "count",
    "landscapes.gradient_calls": "count",
    "landscapes.gradient_s": "s",
    "landscapes.value_calls": "count",
    "landscapes.value_s": "s",
    "landscapes.construct_s": "s",
    "discrete.momentum_step_calls": "count",
    "discrete.drift_profile_s": "s",
    "discrete.us_per_step": "us",
    "output.write_s": "s",
    "output.bytes": "B",
    "output.files": "count",
    "output.us_per_cell": "us",
    "output.manifest_s": "s",
    "render.render_s": "s",
    "render.read_s": "s",
    "render.points": "count",
    "render.us_per_point": "us",
    "cli.self_s": "s",
    "cli.invocations": "count",
    "cli.nonzero_exits": "count",
}


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer totals of one traced iteration (inclusive time, self time, counts)."""
    names = dump["names"]
    spans = np.array(dump["spans"], dtype=float).reshape(-1, 4)
    nid = spans[:, 0].astype(int)
    parent = spans[:, 3].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - covered

    incl: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for i, name in enumerate(names):
        mask = nid == i
        incl[name] += float(dur[mask].sum())
        self_s[name] += float(own[mask].sum())
        calls[name] += int(mask.sum())
    counts = Counter(dump["counts"])

    discrete_steps = calls["discrete.momentum_step"] + counts["discrete.drift_profile_steps"]
    write_s = incl["output.write_csv"] + incl["output.write_json"]
    return {
        "integrators.integrate_s": incl["integrators.integrate"],
        "integrators.us_per_step": _ratio(self_s["integrators.integrate"], counts["integrators.steps"], 1e6),
        "integrators.steps": counts["integrators.steps"],
        "integrators.ensemble_s": incl["integrators.ensemble_series"],
        "integrators.ns_per_member_step": _ratio(
            self_s["integrators.ensemble_series"], counts["integrators.member_steps"], 1e9),
        "integrators.member_steps": counts["integrators.member_steps"],
        "analysis.reduce_s": self_s["analysis.ensemble_expected_decay"],
        "analysis.fit_s": incl["analysis.fit_decay_rate"],
        "analysis.fit_calls": calls["analysis.fit_decay_rate"],
        "landscapes.gradient_calls": calls["landscapes.gradient"],
        "landscapes.gradient_s": incl["landscapes.gradient"],
        "landscapes.value_calls": calls["landscapes.value"],
        "landscapes.value_s": incl["landscapes.value"],
        "landscapes.construct_s": incl["landscapes.construct"],
        "discrete.momentum_step_calls": calls["discrete.momentum_step"],
        "discrete.drift_profile_s": incl["discrete.drift_profile"],
        "discrete.us_per_step": _ratio(
            self_s["discrete.drift_profile"] + self_s["discrete.momentum_step"], discrete_steps, 1e6),
        "output.write_s": write_s,
        "output.bytes": counts["output.bytes"],
        "output.files": counts["output.files"],
        "output.us_per_cell": _ratio(write_s, counts["output.cells"], 1e6),
        "output.manifest_s": incl["output.write_manifest"],
        "render.render_s": incl["render.render_csv"],
        "render.read_s": incl["render.read_csv_columns"],
        "render.points": counts["render.points"],
        "render.us_per_point": _ratio(self_s["render.render_csv"], counts["render.points"], 1e6),
        "cli.self_s": self_s["cli.main"],
        "cli.invocations": counts["cli.invocations"],
        "cli.nonzero_exits": counts["cli.nonzero_exits"],
    }
