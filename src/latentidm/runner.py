"""Scenario documents, execution, and machine-readable reports.

Scenarios are JSON objects with self-describing field names; reports echo
the scenario and carry a kind-specific results payload and a provenance
block.  A trend report's provenance names the method of each quantity,
read from the report the lab returned, and describes the lattice grid when
one was summed.  Serialization is canonical (sorted keys, two-space
indent), so re-running a scenario on the same platform reproduces the
report byte-for-byte apart from the timing block.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from . import __version__
from .errors import ScenarioError, SizeCapError
from .idm import BoundaryLimit, BoundaryStratum, PredictiveBounds
from .manifest import (
    BinaryChannel,
    direct_manifest_idm,
    naive_reconstruction,
    scaled_beta_posterior_bounds,
    scaled_beta_posterior_mean,
)
from .observation import (
    DP_MAX_K,
    EmissionMatrix,
    ManifestDataset,
    check_weight_pass_size,
    outcome_bounds,
    posterior_predictive_at_t,
    vacuity_diagnosis,
)

# Unused here; perfbench/spans.py wraps `runner.predictive_bounds` by name.
from .observation import predictive_bounds  # noqa: F401
from .simplex import GRID_MAX_K, DirichletParams, SimplexPoint, lattice_size

# Unused here; perfbench/spans.py wraps `runner.SimplexGrid` by name.
from .simplex import SimplexGrid  # noqa: F401
from .vacuity import (
    _BLOCK_CELLS,
    GRID,
    ConcentratingSequence,
    Polynomial,
    TrendReport,
    canonical_concentrating_sequence,
    constant_likelihood,
    coordinate_function,
    dataset_likelihood,
    fixed_strength_concentrating_sequence,
    mass_method,
    monomial_function,
    monomial_likelihood,
    verify_theorem1,
)

SCENARIO_DIR_ENV = "LATENTIDM_SCENARIO_DIR"

_CHANNEL_PRESET = re.compile(r"^binary-channel\(\s*([0-9.eE+-]+)\s*,\s*([0-9.eE+-]+)\s*\)$")
_DEFAULT_SCHEDULE = (10, 100, 1000)
_DEFAULT_TREND_GRID_RESOLUTION = 2000
# caps on a trend's moment ladders (idm.log_rising), which grow with k x (largest exponent + 1)
_MAX_EXPONENT = 10_000_000
_MAX_LADDER = GRID_MAX_K * (_MAX_EXPONENT + 1)
# cap on a trend's prior strength: the fixed-strength `sequence.s`, and every schedule index
# (the canonical family's strength).  The Beta CDF's continued fraction takes ~1,900 steps at
# a + b = 10^8 and ~35,000, past its 10,000, at 10^12.
_MAX_STRENGTH = 100_000_000
# cap on `diagnose` documents, whose `identity` preset is a k x k matrix: 8 MB at the cap
_DIAGNOSE_MAX_K = 1000


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario document, ready to run.

    `run` computes the results payload from the objects that parsing built
    and checked, and the provenance that describes the objects it used.
    `raw` is the document itself, kept only to be echoed in the report.
    """

    name: str
    kind: str
    raw: dict = field(repr=False)
    run: Callable[[], tuple[dict, dict]] = field(repr=False, compare=False)

    @staticmethod
    def from_dict(doc: Any) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"field 'scenario': the document must be a JSON object, got {type(doc).__name__}"
            )
        name, kind = _name_and_kind(doc)
        return Scenario(name=name, kind=kind, raw=doc, run=_PARSERS[kind](doc))


def _name_and_kind(doc: dict) -> tuple[str, str]:
    """The document's `name` and `kind`, checked; `custom_scenarios` checks them before listing."""
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("field 'name': required non-empty string")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise ScenarioError(f"field 'kind': must be one of {', '.join(_PARSERS)}; got {kind!r}")
    return name, kind


# ---------------------------------------------------------------------------
# Field helpers.  Every failure names the offending field.


@contextmanager
def _field(name: str):
    """Name `name` in any ValueError or TypeError raised while building it.

    ScenarioError already names its field, and SizeCapError keeps its own
    exit code, so both pass through unchanged.
    """
    try:
        yield
    except (ScenarioError, SizeCapError):
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"field '{name}': {exc}") from exc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ScenarioError(f"field '{key}': required for this scenario kind")
    return doc[key]


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"field '{name}': must be an object")
    return value


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"field '{name}': must be a list")
    return value


def _integer(value, name: str, minimum: int = 0) -> int:
    # JSON true/false arrive as bool, a subclass of int: never a count here.
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(f"field '{name}': must be an integer >= {minimum}, got {value!r}")
    return value


def _integers(value, name: str, minimum: int = 0) -> list[int]:
    return [_integer(v, name, minimum) for v in _list(value, name)]


def _positive(value, name: str) -> float:
    """Every real-valued scenario field is a positive, finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ScenarioError(f"field '{name}': must be a positive number, got {value!r}")
    return float(value)


def _numbers(value, name: str):
    """`value` itself, once no entry of it, a list of lists at any depth, is a JSON string or
    boolean: numpy would read "1.0" and true as numbers."""
    for entry in value if isinstance(value, list) else ():
        if isinstance(entry, list):
            _numbers(entry, name)
        elif isinstance(entry, (str, bool)):
            raise ScenarioError(f"field '{name}': entries must be numbers, got {entry!r}")
    return value


def _normal_prior(alpha, name: str) -> None:
    """Refuse a Dirichlet prior with an s t_h below the smallest normal float: its ladders
    and Beta prefactors take the log or lgamma of that rung, which is -inf or a domain error
    once it has underflowed to 0, and a subnormal one has lost its digits."""
    smallest = float(alpha.min())
    if smallest < sys.float_info.min:
        raise ScenarioError(
            f"field '{name}': every s x t_h must be at least {sys.float_info.min!r}, the "
            f"smallest normal float; got {smallest!r}"
        )


def _emission(spec, k: int, name: str) -> EmissionMatrix:
    if spec == "identity":
        return EmissionMatrix.identity(k)
    match = _CHANNEL_PRESET.match(spec) if isinstance(spec, str) else None
    with _field(name):
        if match:
            matrix = BinaryChannel(float(match.group(1)), float(match.group(2))).emission()
        elif isinstance(spec, list):
            matrix = EmissionMatrix(_numbers(spec, name))
        else:
            raise ScenarioError(
                f"field '{name}': use the preset 'identity' or 'binary-channel(eps1,eps2)', "
                f"or an inline matrix; got {spec!r}"
            )
    if matrix.k != k:
        raise ScenarioError(
            f"field '{name}': needs k={k} columns, one per hidden outcome; got {matrix.k}"
        )
    return matrix


def _dataset(doc: dict, k: int) -> ManifestDataset:
    model = _object(_require(doc, "model"), "model")
    observations = _integers(_require(doc, "observations"), "observations")
    if "emissions" in model:
        specs = _list(model["emissions"], "model.emissions")
        if len(specs) != len(observations):
            raise ScenarioError("field 'model.emissions': one matrix per observation required")
        emissions = [_emission(spec, k, "model.emissions") for spec in specs]
    elif "emission" in model:
        emissions = [_emission(model["emission"], k, "model.emission")] * len(observations)
    else:
        raise ScenarioError("field 'model': needs 'emission' or 'emissions'")
    with _field("observations"):
        return ManifestDataset(zip(emissions, observations), k=k)


def _exponents(spec: dict, k: int, name: str) -> list[int]:
    exponents = _integers(spec.get("exponents", []), name)
    if len(exponents) != k:
        raise ScenarioError(f"field '{name}': needs one exponent per coordinate, k={k}")
    if max(exponents) > _MAX_EXPONENT:
        raise SizeCapError(
            f"field '{name}': exponents capped at <= {_MAX_EXPONENT}; got {max(exponents)}"
        )
    return exponents


def _function(spec: dict, k: int) -> Polynomial:
    kind = spec.get("kind")
    if kind == "coordinate":
        index = _integer(spec.get("index", 0), "function.index")
        with _field("function.index"):
            return coordinate_function(index, k)
    if kind == "monomial":
        exponents = _exponents(spec, k, "function.exponents")
        with _field("function.exponents"):
            return monomial_function(exponents)
    raise ScenarioError(f"field 'function.kind': unknown kind {kind!r}")


def _likelihood(spec, k: int, name: str) -> Polynomial:
    kind = _object(spec, name).get("kind")
    if kind == "constant":
        return constant_likelihood(k)
    if kind == "coordinate":
        index = _integer(spec.get("index", 0), f"{name}.index")
        with _field(f"{name}.index"):
            return coordinate_function(index, k)
    if kind == "monomial":
        return monomial_likelihood(_exponents(spec, k, f"{name}.exponents"))
    if kind == "channel":
        if k != 2:
            raise ScenarioError(f"field '{name}': a channel likelihood needs a k=2 target")
        eps1 = _positive(spec.get("eps1", 0.1), f"{name}.eps1")
        eps2 = _positive(spec.get("eps2", 0.1), f"{name}.eps2")
        rows = _integers(spec.get("observations", []), f"{name}.observations")
        with _field(name):
            emission = BinaryChannel(eps1, eps2).emission()
        with _field(f"{name}.observations"):
            data = ManifestDataset.from_rows(emission, rows)
        try:
            return dataset_likelihood(data)
        except SizeCapError as exc:  # the weight pass's work cap
            raise SizeCapError(f"field '{name}.observations': {exc}") from exc
    raise ScenarioError(f"field '{name}.kind': unknown kind {kind!r}")


def _sequence(spec: dict, target: SimplexPoint) -> ConcentratingSequence:
    family = spec.get("family", "canonical")
    if family == "canonical":
        return canonical_concentrating_sequence(target)
    if family == "fixed-strength":
        s = _positive(spec.get("s", 2.0), "sequence.s")
        if s > _MAX_STRENGTH:
            raise SizeCapError(f"field 'sequence.s': capped at <= {_MAX_STRENGTH}; got {s!r}")
        return fixed_strength_concentrating_sequence(target, s)
    raise ScenarioError(f"field 'sequence.family': unknown family {family!r}")


def _channel(doc: dict) -> BinaryChannel:
    spec = _object(_require(doc, "channel"), "channel")
    eps1 = _positive(spec.get("eps1"), "channel.eps1")
    eps2 = _positive(spec.get("eps2"), "channel.eps2")
    with _field("channel"):
        return BinaryChannel(eps1, eps2)


def _counts(doc: dict) -> tuple[int, int]:
    spec = _object(_require(doc, "dataset"), "dataset")
    positives = _integer(spec.get("positives"), "dataset.positives")
    total = _integer(spec.get("total"), "dataset.total")
    if positives > total:
        raise ScenarioError("field 'dataset': needs integers 0 <= positives <= total")
    return positives, total


def _manifest_strength(doc: dict) -> float:
    return _positive(_object(doc.get("hyper", {}), "hyper").get("s", 2.0), "hyper.s")


# ---------------------------------------------------------------------------
# One parser per kind: each checks its fields while building what its run
# uses, and returns that run; a run returns its results and provenance.


def _describe_extremizer(value: BoundaryLimit | BoundaryStratum | SimplexPoint) -> dict:
    if isinstance(value, BoundaryLimit):
        return {"limit": {"coordinate": value.coordinate, "value": value.value}}
    if isinstance(value, BoundaryStratum):
        return {
            "stratum": {
                "vanishing": list(value.vanishing),
                "rates": list(value.rates),
                "multipliers": list(value.multipliers),
                "limit": list(value.limit.coords),
            }
        }
    return {"point": list(value.coords)}


def _bounds_payload(bounds: PredictiveBounds, **extra) -> dict:
    return {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "argmin_t": _describe_extremizer(bounds.argmin_t),
        "argmax_t": _describe_extremizer(bounds.argmax_t),
        **extra,
    }


def _trend_payload(report: TrendReport) -> dict:
    return {
        "side": report.side,
        "extremum": report.extremum,
        "deltas": list(report.deltas),
        "rows": [
            {
                "n": row.n,
                "expectation": row.expectation,
                "mass": list(row.delta_masses),
                "ratio": row.posterior_ratio,
            }
            for row in report.rows
        ],
        "tolerance": report.tolerance,
        "final_gap": report.final_gap,
        "extremum_reached": report.extremum_reached,
    }


def _trend_provenance(report: TrendReport) -> dict:
    provenance: dict[str, Any] = {"methods": report.methods}
    if report.grid is not None:
        provenance["grid"] = {
            "resolution": report.grid.resolution,
            "boundary_policy": report.grid.boundary_policy,
            "eps_clamp": report.grid.eps_clamp,
        }
    return provenance


def _parse_predict(doc: dict):
    k = _integer(doc.get("k", 2), "k", minimum=2)
    if k > DP_MAX_K:
        raise SizeCapError(f"field 'k': predictive bounds capped at k <= {DP_MAX_K}; got k={k}")
    data = _dataset(doc, k)
    hyper = _object(_require(doc, "hyper"), "hyper")
    s = _positive(hyper.get("s"), "hyper.s")
    if "search" in doc:
        raise ScenarioError(
            "field 'search': not accepted; predictive bounds are exact and take no search settings"
        )
    outcomes = _integers(doc.get("outcomes", list(range(data.k))), "outcomes")
    if any(j >= data.k for j in outcomes):
        raise ScenarioError(f"field 'outcomes': every entry must be below k={data.k}")
    prior = None
    if hyper.get("t") is not None:
        with _field("hyper.t"):
            prior = DirichletParams(s=s, t=SimplexPoint(_numbers(hyper["t"], "hyper.t")))
        if prior.k != data.k:
            raise ScenarioError(f"field 'hyper.t': needs k={data.k} coordinates, got {prior.k}")
        _normal_prior(prior.alpha, "hyper.t")

    def run() -> tuple[dict, dict]:
        try:
            bounds = outcome_bounds(data, s, outcomes)
            values = None if prior is None else posterior_predictive_at_t(data, prior)
        except SizeCapError as exc:  # the weight pass's and the search's work cap
            raise SizeCapError(f"field 'observations': {exc}") from exc
        results: dict[str, Any] = {
            "level": "latent",
            "bounds": [_bounds_payload(b, outcome=j) for j, b in zip(outcomes, bounds)],
        }
        if prior is not None:
            results["at_t"] = {"t": list(prior.t.coords), "values": [values[j] for j in outcomes]}
        return results, {}

    return run


def _parse_diagnose(doc: dict):
    k = _integer(doc.get("k", 2), "k", minimum=2)
    if k > _DIAGNOSE_MAX_K:
        raise SizeCapError(f"field 'k': diagnose capped at k <= {_DIAGNOSE_MAX_K}; got k={k}")
    data = _dataset(doc, k)

    def run() -> tuple[dict, dict]:
        diagnosis = vacuity_diagnosis(data)
        return {
            "outcomes": [
                {
                    "outcome": d.outcome,
                    "upper_strictly_below_one": d.upper_strictly_below_one,
                    "upper_witnesses": list(d.upper_witnesses),
                    "lower_strictly_above_zero": d.lower_strictly_above_zero,
                    "lower_witnesses": list(d.lower_witnesses),
                }
                for d in diagnosis.per_outcome
            ],
            "fully_vacuous": diagnosis.fully_vacuous,
        }, {}

    return run


def _parse_trend(doc: dict):
    with _field("target"):
        target = SimplexPoint(_numbers(_require(doc, "target"), "target"))
    k = target.k
    f = _function(_object(_require(doc, "function"), "function"), k)
    likelihoods = [_likelihood(_require(doc, "likelihood"), k, "likelihood")]
    if "contrast_likelihood" in doc:
        likelihoods.append(_likelihood(doc["contrast_likelihood"], k, "contrast_likelihood"))
    largest = max(int(p.exponents.max()) for p in (f, *likelihoods))
    if k * (largest + 1) > _MAX_LADDER:
        raise SizeCapError(
            f"field 'target': k x (largest exponent + 1) capped at <= {_MAX_LADDER}; "
            f"got {k} x {largest + 1}"
        )
    sequence = _sequence(_object(doc.get("sequence", {}), "sequence"), target)
    # The concentrating path t(n) stays on the simplex only for n >= k - 1.
    schedule = _integers(doc.get("schedule", list(_DEFAULT_SCHEDULE)), "schedule", max(2, k - 1))
    if not schedule:
        raise ScenarioError("field 'schedule': needs at least one index")
    if max(schedule) > _MAX_STRENGTH:
        raise SizeCapError(
            f"field 'schedule': indices capped at <= {_MAX_STRENGTH}; got {max(schedule)}"
        )
    if sequence.strength is not None:  # the canonical family's strength n keeps s t_h far above
        step = max(1, _BLOCK_CELLS // k)  # the priors table a block at a time, as the run reads it
        for j in range(0, len(schedule), step):
            _normal_prior(sequence.priors(schedule[j : j + step])[1], "sequence.s")
    deltas = [_positive(d, "deltas") for d in _list(doc.get("deltas", [0.1, 0.01]), "deltas")]
    # type-checked for every document, sized only for the ones whose slab masses are grid sums
    resolution = _integer(
        doc.get("grid_resolution", _DEFAULT_TREND_GRID_RESOLUTION), "grid_resolution", minimum=2
    )
    if mass_method(f.exponents[0]) == GRID:
        if k > GRID_MAX_K:
            raise ScenarioError(
                f"field 'target': grids hold k <= {GRID_MAX_K} coordinates, got {k}"
            )
        with _field("grid_resolution"):
            lattice_size(k, resolution)

    def run() -> tuple[dict, dict]:
        main, *contrast = verify_theorem1(
            f, likelihoods, sequence, schedule, deltas=deltas, grid_resolution=resolution
        )
        results = {
            "main": _trend_payload(main),
            "contrast": _trend_payload(contrast[0]) if contrast else None,
        }
        return results, _trend_provenance(main)

    return run


def _parse_scaled_beta(doc: dict):
    channel = _channel(doc)
    positives, total = _counts(doc)
    s = _manifest_strength(doc)
    t1 = doc.get("fixed_t1")
    if t1 is not None:
        if not _positive(t1, "fixed_t1") < 1.0:
            raise ScenarioError("field 'fixed_t1': must lie strictly in (0, 1)")
        _normal_prior(DirichletParams(s=s, t=SimplexPoint([t1, 1.0 - t1])).alpha, "fixed_t1")
        # the fixed-prior value takes one weight pass over `total` observations
        try:
            check_weight_pass_size(total, 2)
        except SizeCapError as exc:
            raise SizeCapError(f"field 'dataset.total': {exc}") from exc

    def run() -> tuple[dict, dict]:
        bounds = scaled_beta_posterior_bounds(channel, positives, total, s)
        fixed_t = None
        if t1 is not None:
            mean = scaled_beta_posterior_mean(channel, positives, total, s, t1)
            fixed_t = {"t1": t1, "posterior_mean": mean}
        return _bounds_payload(bounds, interval=list(channel.xi_range), fixed_t=fixed_t), {}

    return run


def _parse_naive(doc: dict):
    channel = _channel(doc)
    positives, total = _counts(doc)
    s = _manifest_strength(doc)

    def run() -> tuple[dict, dict]:
        manifest = direct_manifest_idm(positives, total, s)
        lower = naive_reconstruction(channel, manifest.lower)
        upper = naive_reconstruction(channel, manifest.upper)
        return {
            "manifest": {"lower": manifest.lower, "upper": manifest.upper},
            "reconstructed_lower": {"value": lower.value, "out_of_range": lower.out_of_range},
            "reconstructed_upper": {"value": upper.value, "out_of_range": upper.out_of_range},
        }, {}

    return run


def _parse_direct(doc: dict):
    positives, total = _counts(doc)
    s = _manifest_strength(doc)

    def run() -> tuple[dict, dict]:
        return _bounds_payload(direct_manifest_idm(positives, total, s), level="manifest"), {}

    return run


_PARSERS = {
    "predict": _parse_predict,
    "diagnose": _parse_diagnose,
    "verify-theorem1": _parse_trend,
    "theorem-a1a2": _parse_trend,
    "scaled-beta": _parse_scaled_beta,
    "naive-reconstruction": _parse_naive,
    "direct-manifest": _parse_direct,
}


def run_scenario(scenario: Scenario) -> dict:
    """Execute a parsed scenario; returns the full report dict."""
    started = time.perf_counter()
    results, provenance = scenario.run()
    elapsed = time.perf_counter() - started
    return {
        "scenario": scenario.raw,
        "results": results,
        "provenance": {"tool_version": __version__, **provenance},
        "timing": {"seconds": elapsed},
    }


# ---------------------------------------------------------------------------
# Serialization and the bundled catalog.


def report_to_doc(report: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline.

    The text of `json.dumps(report, indent=2, sort_keys=True)`, written by
    one recursive function: json's indenting encoder is a set of nested
    closures that leaves a reference cycle per call, which lingers until the
    next garbage collection.
    """
    parts: list[str] = []
    _write_doc(report, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_doc(value, newline: str, parts: list[str]) -> None:
    """Append `value` to `parts` as the indenting encoder writes it after `newline`.

    A member of a non-empty dict or list whose exact type is a key of `_LEAVES` is written
    inline after one dict lookup.  Containers, empty or not, and subclasses such as numpy
    scalars take a recursive call and the `isinstance` tests below.
    """
    if isinstance(value, dict) and value:
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            # json writes a non-string key as the quoted text of its value
            name = key if isinstance(key, str) else json.dumps(key)
            item = value[key]
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                parts.append(separator + encode_basestring_ascii(name) + ": ")
                _write_doc(item, inner, parts)
            else:
                parts.append(separator + encode_basestring_ascii(name) + ": " + leaf(item))
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                parts.append(separator)
                _write_doc(item, inner, parts)
            else:
                parts.append(separator + leaf(item))
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, float) and math.isfinite(value):
        parts.append(float.__repr__(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        parts.append(json.dumps(value))


# the text of each leaf type, looked up by exact type: json writes NaN and the infinities as
# NaN, Infinity and -Infinity, and a bool is no int here
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}.{i}", item, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def report_to_table(report: dict) -> str:
    """Flat tab-separated export; trend rows come out as one line per index."""
    results = report.get("results", {})
    lines = []
    for block_name in ("main", "contrast"):
        block = results.get(block_name) if isinstance(results, dict) else None
        if isinstance(block, dict) and "rows" in block:
            deltas = block.get("deltas", [])
            header = ["block", "n", "expectation"] + [f"mass_{d!r}" for d in deltas] + ["ratio"]
            if not lines:
                lines.append("\t".join(header))
            for row in block["rows"]:
                cells = [block_name, str(row["n"]), repr(row["expectation"])]
                cells += [repr(m) for m in row["mass"]]
                cells.append(repr(row["ratio"]))
                lines.append("\t".join(cells))
    if lines:
        return "\n".join(lines) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", results, rows)
    return "\n".join(f"{path}\t{value}" for path, value in rows) + "\n"


def write_report(report: dict, path: str, format: str = "doc") -> None:
    """Atomic write: serialize fully, then rename into place."""
    text = report_to_doc(report) if format == "doc" else report_to_table(report)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except OSError as exc:
        with suppress(OSError):
            os.remove(tmp_path)
        raise ScenarioError(f"{path}: cannot write the report: {exc.strerror}") from exc


def bundled_scenarios() -> dict[str, dict]:
    """Name -> scenario document for every bundled scenario, sorted by name."""
    root = importlib.resources.files("latentidm") / "bundled"
    catalog = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json") and entry.name != "assertions.json":
            doc = json.loads(entry.read_text(encoding="utf-8"))
            catalog[doc["name"]] = doc
    return catalog


def read_scenario_file(path: str) -> Any:
    """The JSON document in `path`; ScenarioError names the file it cannot read or parse."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the scenario: {exc.strerror}") from exc


def custom_scenarios(bundled: dict[str, dict]) -> dict[str, dict]:
    """Name -> document of every scenario file in $LATENTIDM_SCENARIO_DIR.

    A JSON object with a `name` or a `kind` key is a scenario, and both must
    be valid; any other JSON file, such as a report (which has neither at
    its top level), is skipped.  A name that a bundled scenario or an
    earlier file (in sorted order) already has is refused, naming both.
    """
    directory = os.environ.get(SCENARIO_DIR_ENV)
    if not directory or not os.path.isdir(directory):
        return {}
    catalog, sources = {}, dict.fromkeys(bundled, "the bundled scenario")
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".json"):
            path = os.path.join(directory, filename)
            doc = read_scenario_file(path)
            if isinstance(doc, dict) and ("name" in doc or "kind" in doc):
                try:
                    name, _ = _name_and_kind(doc)
                except ScenarioError as exc:
                    raise ScenarioError(f"{path}: {exc}") from exc
                if name in sources:
                    raise ScenarioError(
                        f"{path}: field 'name': {name!r} is already taken by {sources[name]}"
                    )
                catalog[name], sources[name] = doc, path
    return catalog


def assertion_manifest() -> dict[str, list[dict]]:
    path = importlib.resources.files("latentidm") / "bundled" / "assertions.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _resolve_path(payload, path: str):
    node = payload
    for piece in path.split("."):
        if isinstance(node, list):
            node = node[int(piece)]
        elif isinstance(node, dict):
            if piece not in node:
                raise KeyError(f"path {path!r}: missing key {piece!r}")
            node = node[piece]
        else:
            raise KeyError(f"path {path!r}: cannot descend into {type(node).__name__}")
    return node


def check_assertions(report: dict, checks: list[dict]) -> list[str]:
    """Evaluate assertion-manifest entries against a report's results.

    Returns a list of human-readable failure strings (empty = all pass).
    """
    failures = []
    for check in checks:
        path, op = check["path"], check["op"]
        try:
            actual = _resolve_path(report["results"], path)
        except (KeyError, IndexError, ValueError) as exc:
            failures.append(f"{path}: unresolvable ({exc})")
            continue
        expected = check.get("value")
        ok = False
        if op == "approx":
            ok = abs(float(actual) - float(expected)) <= float(check.get("tol", 1e-9))
        elif op == "le":
            ok = float(actual) <= float(expected)
        elif op == "ge":
            ok = float(actual) >= float(expected)
        elif op == "eq":
            ok = actual == expected
        elif op == "is_true":
            ok = actual is True
        elif op == "is_false":
            ok = actual is False
        else:
            failures.append(f"{path}: unknown op {op!r}")
            continue
        if not ok:
            failures.append(f"{path}: {op} {expected!r} failed (actual {actual!r})")
    return failures
