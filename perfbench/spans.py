"""In-memory spans around calls into latentidm's public functions.

The library is not edited.  A traced execution replaces public names in the
modules where their callers look them up (``runner.predictive_bounds`` is
what ``runner._run_predict`` calls, ``observation.frequency_weights`` is what
``predictive_bounds`` calls, ``SimplexGrid`` in every module that builds
grids) with wrappers that open a span, call the original and close the span.
Spans keep their parent's id; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

from latentidm import idm, manifest, observation, runner, vacuity
from latentidm.observation import SearchSpec
from latentidm.simplex import SimplexPoint


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    children_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    """Spans of one execution, kept in memory until `reset`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children_s += span.end - span.start

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)


# Hooks record attributes of a finished call: hook(span, arguments, result),
# where arguments() binds the call's arguments by parameter name.


def _grid_points(span, arguments, result) -> None:
    span.attrs["points"] = arguments()["grid"].point_count


def _support(span, arguments, result) -> None:
    span.attrs["support"] = len(result)


def _built_points(span, arguments, result) -> None:
    span.attrs["points"] = result.point_count


def _bound_sources(span, arguments, result) -> None:
    search = arguments().get("search") or SearchSpec()
    span.attrs["passes"] = search.refinement_passes
    span.attrs["search_decided"] = sum(
        isinstance(x, SimplexPoint) for x in (result.argmin_t, result.argmax_t)
    )


def _targets():
    """(module, public name, attribute hook) for every wrapped lookup."""
    targets = [
        (runner, "predictive_bounds", _bound_sources),
        (runner, "posterior_predictive_at_t", None),
        (runner, "vacuity_diagnosis", None),
        (runner, "verify_theorem1", None),
        (runner, "scaled_beta_posterior_bounds", None),
        (runner, "scaled_beta_posterior_mean", None),
        (observation, "frequency_weights", _support),
        (observation, "vacuity_diagnosis", None),
        (observation, "log_marginal_probability", None),
        (idm, "log_marginal_probability", None),
        (vacuity, "posterior_ratio", _grid_points),
        (vacuity, "delta_set_mass", _grid_points),
        (manifest, "scaled_beta_posterior_mean", None),
    ]
    targets += [
        (module, "SimplexGrid", _built_points)
        for module in (runner, observation, vacuity, manifest)
    ]
    return targets


def _wrap(tracer: Tracer, name: str, original, hook):
    signature = inspect.signature(original) if hook else None

    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook:
            hook(span, lambda: signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the wrapped public names through `tracer`; restore them on exit."""
    saved = []
    try:
        for module, name, hook in _targets():
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, _wrap(tracer, name, original, hook))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one execution's spans."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    # sweep cells: lattice points x (1 + 2 passes) x |W|, counted only for
    # grids that predictive_bounds actually built, with |W| from its own DP.
    sweep_cells = 0
    decided = 0
    for span in named("predictive_bounds"):
        kids = children.get(span.id, [])
        support = max((k.attrs["support"] for k in kids if k.name == "frequency_weights"), default=0)
        points = sum(k.attrs["points"] for k in kids if k.name == "SimplexGrid")
        sweep_cells += points * (1 + 2 * span.attrs["passes"]) * support
        decided += span.attrs["search_decided"]
    bounds_computed = 2 * calls.get("predictive_bounds", 0)

    return {
        "frequency_weights.calls": calls.get("frequency_weights", 0),
        "frequency_weights.self_s": self_s.get("frequency_weights", 0.0),
        "support_size": max((s.attrs["support"] for s in named("frequency_weights")), default=0),
        "predictive_bounds.self_s": self_s.get("predictive_bounds", 0.0),
        "sweep_cells": sweep_cells,
        "search_decided_ratio": decided / bounds_computed if bounds_computed else 0.0,
        "posterior_predictive_at_t.calls": calls.get("posterior_predictive_at_t", 0),
        "posterior_predictive_at_t.self_s": self_s.get("posterior_predictive_at_t", 0.0),
        "vacuity_diagnosis.self_s": self_s.get("vacuity_diagnosis", 0.0),
        "log_marginal_probability.calls": calls.get("log_marginal_probability", 0),
        "log_marginal_probability.self_s": self_s.get("log_marginal_probability", 0.0),
        "SimplexGrid.builds": calls.get("SimplexGrid", 0),
        "SimplexGrid.self_s": self_s.get("SimplexGrid", 0.0),
        "grid_points": sum(s.attrs["points"] for s in named("SimplexGrid")),
        "verify_theorem1.self_s": self_s.get("verify_theorem1", 0.0),
        "posterior_ratio.calls": calls.get("posterior_ratio", 0),
        "delta_set_mass.calls": calls.get("delta_set_mass", 0),
        "grid_points_integrated": sum(
            s.attrs["points"] for s in spans if s.name in ("posterior_ratio", "delta_set_mass")
        ),
        "scaled_beta_posterior_bounds.self_s": self_s.get("scaled_beta_posterior_bounds", 0.0),
        "scaled_beta_posterior_mean.calls": calls.get("scaled_beta_posterior_mean", 0),
        "parse.self_s": self_s.get("parse", 0.0),
        "run_scenario.self_s": self_s.get("run_scenario", 0.0),
        "serialize.self_s": self_s.get("serialize", 0.0),
        "serialize.bytes": sum(s.attrs["bytes"] for s in named("serialize")),
    }


def median_metrics(per_execution: list[dict[str, float]]) -> dict[str, float]:
    """Median time of each layer over executions; counts repeat, so any sample is the count."""
    return {
        name: (statistics.median if name.endswith("_s") else statistics.median_low)(
            row[name] for row in per_execution
        )
        for name in per_execution[0]
    }


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self_s": s.self_s,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in spans
    ]
