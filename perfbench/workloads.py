"""Seeded workloads: the scenario documents handed to latentidm, and the checks
applied to every report they produce.

The seed changes only values and order, never size:

- ``bundled``: the 12 bundled scenarios, in a seeded order per round, for
  ``BUNDLED_ROUNDS`` rounds.  This is what ``latentidm selftest`` and new
  users run; its time is spread over the manifest, vacuity and observation
  layers rather than one sweep.
- ``latent-vacuous``: one k=4, n=20, s=2 predict scenario with all 4
  outcomes and ``hyper.t``, through an all-positive channel (entries drawn in
  [0.05, 1], columns normalised).  Every bound is settled by an analytic
  limit at (0, 1), so nearly all the time is a sweep whose result is thrown
  away: the workload where skipping the sweep or sharing weights shows.
- ``latent-zeros``: the same shape with a fixed cyclic pattern of two
  nonzeros per column.  The search decides every upper bound, so a sweep
  skip must not fire here and any speed-up that narrows intervals shows.
  Per-row counts are fixed at 5/5/5/5 for both latent workloads: left free,
  they swing the support |W| and the run time from seed to seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

import numpy as np
from latentidm.manifest import BinaryChannel
from latentidm.observation import (
    EmissionMatrix,
    ManifestDataset,
    frequency_weights,
    vacuity_diagnosis,
)
from latentidm.runner import assertion_manifest, bundled_scenarios, check_assertions, report_to_doc

BUNDLED_ROUNDS = 10
LATENT_K, LATENT_N, LATENT_S = 4, 20, 2.0
EXPECTED_SUPPORT = {"latent-vacuous": 1771, "latent-zeros": 671}

_PRESET = re.compile(r"^binary-channel\(\s*([^,]+?)\s*,\s*([^)]+?)\s*\)$")


@dataclass(frozen=True)
class Op:
    """One scenario run: its name and the JSON text the library parses."""

    key: str
    text: str


@dataclass
class Workload:
    name: str
    ops: list[Op]
    assertions: dict[str, list] = field(default_factory=dict)
    support: int | None = None


def _bundled(seed: int) -> Workload:
    catalog = bundled_scenarios()
    texts = {name: json.dumps(doc, sort_keys=True) for name, doc in catalog.items()}
    rng = random.Random(seed)
    ops = []
    for _ in range(BUNDLED_ROUNDS):
        names = sorted(texts)
        rng.shuffle(names)
        ops += [Op(name, texts[name]) for name in names]
    return Workload("bundled", ops, assertions=assertion_manifest())


def support_size(emission: np.ndarray, rows) -> int:
    """|W| counted from the zero pattern alone: reachable frequency vectors."""
    states = {(0,) * emission.shape[1]}
    for h in rows:
        columns = np.flatnonzero(emission[h])
        states = {c[:j] + (c[j] + 1,) + c[j + 1 :] for c in states for j in columns}
    return len(states)


def _latent(name: str, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    k = LATENT_K
    if name == "latent-zeros":
        mask = np.zeros((k, k))
        for j in range(k):
            mask[j, j] = mask[(j + 1) % k, j] = 1.0
    else:
        mask = np.ones((k, k))
    values = rng.uniform(0.05, 1.0, size=(k, k)) * mask
    emission = values / values.sum(axis=0)
    rows = np.repeat(np.arange(k), LATENT_N // k)
    rng.shuffle(rows)
    gamma = rng.gamma(1.0, size=k)
    doc = {
        "name": name,
        "kind": "predict",
        "k": k,
        "model": {"emission": emission.tolist()},
        "observations": rows.tolist(),
        "hyper": {"s": LATENT_S, "t": (gamma / gamma.sum()).tolist()},
    }
    support = support_size(emission, rows)
    if support != EXPECTED_SUPPORT[name]:
        raise RuntimeError(f"{name}: generated |W| = {support}, expected {EXPECTED_SUPPORT[name]}")
    return Workload(name, [Op(name, json.dumps(doc))], support=support)


def build(name: str, seed: int) -> Workload:
    if name == "bundled":
        return _bundled(seed)
    return _latent(name, seed)


def dataset_of(doc: dict) -> ManifestDataset:
    """The dataset of a single-emission predict document (preset or inline)."""
    k = doc.get("k", 2)
    spec = doc["model"]["emission"]
    if spec == "identity":
        emission = EmissionMatrix.identity(k)
    elif isinstance(spec, str):
        eps1, eps2 = _PRESET.match(spec).groups()
        emission = BinaryChannel(float(eps1), float(eps2)).emission()
    else:
        emission = EmissionMatrix(spec)
    return ManifestDataset.from_rows(emission, doc["observations"])


def canonical(report: dict) -> str:
    """The report's canonical text without its timing block."""
    return report_to_doc({key: value for key, value in report.items() if key != "timing"})


def _latent_problems(doc: dict, results: dict) -> list[str]:
    diagnosis = vacuity_diagnosis(dataset_of(doc))
    problems = []
    if [entry["outcome"] for entry in results["bounds"]] != list(range(LATENT_K)):
        problems.append("bounds do not cover every outcome once, in order")
    for entry, value in zip(results["bounds"], results["at_t"]["values"], strict=True):
        j, lower, upper = entry["outcome"], entry["lower"], entry["upper"]
        flags = diagnosis[j]
        if (upper == 1.0) == flags.upper_strictly_below_one:
            problems.append(f"outcome {j}: upper {upper!r} disagrees with the upper witnesses")
        if (lower == 0.0) == flags.lower_strictly_above_zero:
            problems.append(f"outcome {j}: lower {lower!r} disagrees with the lower witnesses")
        if not 0.0 <= lower <= value <= upper <= 1.0:
            problems.append(f"outcome {j}: not 0 <= {lower!r} <= {value!r} <= {upper!r} <= 1")
    return problems


def problems(workload: Workload, op: Op, report: dict) -> list[str]:
    """Everything wrong with one report, apart from run-to-run determinism."""
    if workload.name == "bundled":
        return check_assertions(report, workload.assertions.get(op.key, []))
    return _latent_problems(json.loads(op.text), report["results"])


def predict_weights(op: Op) -> tuple[dict, float] | None:
    """W and s of a predict scenario, for the probe; None for other kinds."""
    doc = json.loads(op.text)
    if doc["kind"] != "predict":
        return None
    return frequency_weights(dataset_of(doc)), float(doc["hyper"]["s"])
