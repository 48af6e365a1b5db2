"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a `[acceptance] criterion-N ...: PASS/FAIL (elapsed)` line;
run with `pytest -s tests/test_acceptance.py` to see them all.  Runtime
budgets are asserted alongside the numeric checks.
"""

import json
import math
import time

import numpy as np
import pytest

from latentidm.cli import EXIT_OK, main
from latentidm.idm import (
    BoundaryLimit,
    FrequencyVector,
    log_marginal_probability,
    standard_idm_predictive_bounds,
    vacuous_prior_upper_predictive,
)
from latentidm.manifest import (
    BinaryChannel,
    direct_manifest_idm,
    naive_reconstruction,
    scaled_beta_posterior_bounds,
)
from latentidm.observation import (
    EmissionMatrix,
    ManifestDataset,
    frequency_weights,
    posterior_predictive_at_t,
    predictive_bounds,
    vacuity_diagnosis,
)
from latentidm.runner import (
    Scenario,
    assertion_manifest,
    bundled_scenarios,
    check_assertions,
    report_to_doc,
    run_scenario,
)
from latentidm.simplex import SimplexGrid, SimplexPoint
from latentidm.vacuity import (
    canonical_concentrating_sequence,
    coordinate_function,
    dataset_likelihood,
    fixed_strength_concentrating_sequence,
    monomial_function,
    monomial_likelihood,
    verify_theorem1,
)
from oracles import (
    brute_frequency_weights,
    dirichlet_log_density,
    latent_likelihood,
    random_interior_params,
)

GRID_2000 = SimplexGrid(k=2, resolution=2000)

# the five fixed observation sequences used by the vacuity-persistence check
SEQUENCES = ([0], [0, 1], [0, 0, 1], [1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 0])


class Criterion:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds
        self.started = time.perf_counter()

    def finish(self, ok=True):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.2f}s, budget {self.budget}s)")
        assert ok, self.label
        assert elapsed < self.budget, f"{self.label} exceeded budget: {elapsed:.2f}s"


def grid_density(params):
    return np.exp(np.array([dirichlet_log_density(params, p) for p in GRID_2000.points]))


def test_criterion_1_conjugacy_oracle_equivalence():
    crit = Criterion("criterion-1 conjugacy oracle equivalence", 10.0)
    rng = np.random.default_rng(101)
    for _ in range(20):
        prior = random_interior_params(rng, k=2)
        counts = tuple(int(c) for c in rng.integers(0, 4, size=2))
        if sum(counts) == 0:
            counts = (1, 2)
        # the conjugate posterior mean, as a report computes it: the predictive of a
        # perfectly observed dataset at a fixed prior
        data = ManifestDataset.from_rows(EmissionMatrix.identity(2), np.repeat([0, 1], counts))
        posterior_mean = posterior_predictive_at_t(data, prior)[0]
        log_marginal = log_marginal_probability(prior, FrequencyVector(counts))

        dens = grid_density(prior)
        monomial = GRID_2000.points[:, 0] ** counts[0] * GRID_2000.points[:, 1] ** counts[1]
        mean_oracle = float(
            (GRID_2000.points[:, 0] * monomial * dens).sum() / (monomial * dens).sum()
        )
        marginal_oracle = float((monomial * dens).sum() / dens.sum())

        assert posterior_mean == pytest.approx(mean_oracle, rel=1e-3, abs=1e-3)
        assert math.exp(log_marginal) == pytest.approx(marginal_oracle, rel=1e-3)
    crit.finish()


def test_criterion_2_posterior_predictive_oracle_equivalence():
    crit = Criterion("criterion-2 posterior-predictive oracle equivalence", 30.0)
    rng = np.random.default_rng(202)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        observations = []
        for _ in range(n):
            rows = int(rng.integers(2, 4))
            raw = rng.uniform(0.05, 1.0, size=(rows, 2))
            emission = EmissionMatrix(raw / raw.sum(axis=0, keepdims=True))
            observations.append((emission, int(rng.integers(0, rows))))
        data = ManifestDataset(tuple(observations), k=2)
        prior = random_interior_params(rng, k=2)

        # frequency weights against full enumeration
        dp = {fv.counts: w for fv, w in frequency_weights(data).items()}
        brute = brute_frequency_weights(data)
        assert set(dp) == set(brute)
        for key, w in brute.items():
            assert dp[key] == pytest.approx(w, rel=1e-12, abs=0.0)

        # predictive value against the integration oracle
        dens = grid_density(prior)
        like = latent_likelihood(data, GRID_2000.points)
        oracle = float((GRID_2000.points[:, 0] * like * dens).sum() / (like * dens).sum())
        value = posterior_predictive_at_t(data, prior)[0]
        assert value == pytest.approx(oracle, abs=1e-3)
    crit.finish()


def test_criterion_3_vacuity_for_all_positive_channels():
    crit = Criterion("criterion-3 vacuity under all-positive channels", 60.0)
    for eps in (0.1, 0.001):
        emission = BinaryChannel(eps, eps).emission()
        for rows in SEQUENCES:
            data = ManifestDataset.from_rows(emission, rows)
            for j in (0, 1):
                bounds = predictive_bounds(data, 2.0, j)
                assert 0.0 <= bounds.lower <= 1e-3
                assert 1.0 - 1e-3 <= bounds.upper <= 1.0
    crit.finish()


def _diagnosis_suite():
    """30 deterministic emission/observation combinations, k in {2, 3}."""
    rng = np.random.default_rng(404)
    combos = []
    for trial in range(30):
        k = 2 if trial < 20 else 3
        style = trial % 3
        rows = int(rng.integers(2, 4)) if style == 0 else k
        if style == 0:
            raw = rng.uniform(0.05, 1.0, size=(rows, k))
            entries = raw / raw.sum(axis=0, keepdims=True)
        elif style == 1:
            # a zero somewhere: excludes one outcome when that row shows up
            raw = rng.uniform(0.1, 1.0, size=(rows, k))
            raw[rng.integers(0, rows), rng.integers(0, k)] = 0.0
            entries = raw / raw.sum(axis=0, keepdims=True)
        else:
            # one certifying row per outcome, identity-style
            entries = np.eye(k)
        emission = EmissionMatrix(entries)
        n = int(rng.integers(1, 7))
        observed = [int(rng.integers(0, emission.manifest_count)) for _ in range(n)]
        combos.append(ManifestDataset.from_rows(emission, observed))
    return combos


def test_criterion_4_diagnosis_matches_bounds():
    crit = Criterion("criterion-4 learnability flags agree with bounds", 60.0)
    s = 2.0
    for data in _diagnosis_suite():
        diagnosis = vacuity_diagnosis(data)
        for j in range(data.k):
            bounds = predictive_bounds(data, s, j)
            assert (bounds.upper < 1.0 - 1e-6) == diagnosis[j].upper_strictly_below_one
            assert (bounds.lower > 1e-6) == diagnosis[j].lower_strictly_above_zero
            if diagnosis[j].lower_strictly_above_zero:
                assert bounds.lower >= 1.0 / (data.n + s) - 1e-6
    crit.finish()


def test_criterion_5_standard_idm_bounds():
    crit = Criterion("criterion-5 fully-observable bounds", 30.0)
    # limit formulas, exact to 1e-6
    bounds = standard_idm_predictive_bounds(2.0, FrequencyVector((2, 1)), 0)
    assert bounds.lower == pytest.approx(0.4, abs=1e-6)
    assert bounds.upper == pytest.approx(0.8, abs=1e-6)
    # grid optimization path, 2e-3
    data = ManifestDataset.from_rows(EmissionMatrix.identity(2), [0, 0, 1])
    swept = predictive_bounds(data, 2.0, 0)
    assert swept.lower == pytest.approx(0.4, abs=2e-3)
    assert swept.upper == pytest.approx(0.8, abs=2e-3)
    # one-outcome dataset: lower strictly positive, upper exactly 1
    one = standard_idm_predictive_bounds(2.0, FrequencyVector((3, 0)), 0)
    assert one.lower == pytest.approx(0.6, abs=1e-6) and one.lower > 0.0
    assert one.upper == 1.0
    one_swept = predictive_bounds(
        ManifestDataset.from_rows(EmissionMatrix.identity(2), [0, 0, 0]), 2.0, 0
    )
    assert one_swept.upper == 1.0 and one_swept.argmax_t == BoundaryLimit(0, 1.0)
    assert one_swept.lower == pytest.approx(0.6, abs=2e-3)
    crit.finish()


def test_criterion_6_vacuous_predictive_values():
    crit = Criterion("criterion-6 maximally imprecise future-pair value", 60.0)
    assert vacuous_prior_upper_predictive(FrequencyVector((1, 1))) == 0.25
    f = monomial_function([1, 1])
    channel_data = ManifestDataset.from_rows(BinaryChannel(0.1, 0.1).emission(), [0, 0])
    (report,) = verify_theorem1(
        f,
        [dataset_likelihood(channel_data)],
        canonical_concentrating_sequence(SimplexPoint([0.5, 0.5])),
        [10, 100, 1000],
    )
    assert report.extremum == 0.25
    assert report.rows[-1].posterior_ratio >= 0.24
    crit.finish()


def test_criterion_7_concentration_trends():
    crit = Criterion("criterion-7 concentration and posterior-ratio trends", 120.0)
    target = SimplexPoint([1.0, 0.0])
    f = coordinate_function(0, 2)
    seq = canonical_concentrating_sequence(target)
    positive_like = dataset_likelihood(
        ManifestDataset.from_rows(BinaryChannel(0.1, 0.1).emission(), [0, 0])
    )
    report, contrast = verify_theorem1(
        f, [positive_like, monomial_likelihood([1, 60])], seq, [10, 100, 1000]
    )
    masses = [row.delta_masses[0] for row in report.rows]  # delta = 0.1
    assert masses[0] <= masses[1] <= masses[2]
    assert masses[2] >= 0.99
    assert abs(report.rows[-1].posterior_ratio - 1.0) < 0.01

    # contrast: a mixed fully-observed dataset's likelihood vanishes at the
    # argmax and the final ratio stays at least 0.05 away from it
    assert all(abs(row.posterior_ratio - 1.0) >= 0.05 for row in contrast.rows)
    assert contrast.final_gap >= 0.05

    # same escape along a family inside the fixed-strength prior set,
    # where the margin is wide
    (fixed,) = verify_theorem1(
        f,
        [monomial_likelihood([1, 1])],
        fixed_strength_concentrating_sequence(target, 2.0),
        [10, 100, 1000],
    )
    assert fixed.final_gap >= 0.05
    crit.finish()


def test_criterion_8_manifest_side_approaches():
    crit = Criterion("criterion-8 manifest-side approaches", 60.0)
    channel = BinaryChannel(0.1, 0.1)
    for positives, total in ((0, 0), (2, 3), (3, 3), (1, 4), (3, 6)):
        bounds = scaled_beta_posterior_bounds(channel, positives, total, 2.0)
        assert bounds.lower == pytest.approx(0.1, abs=2e-3)
        assert bounds.upper == pytest.approx(0.9, abs=2e-3)

    manifest = direct_manifest_idm(3, 3, 2.0)
    assert (manifest.lower, manifest.upper) == (0.6, 1.0)
    witness = naive_reconstruction(channel, manifest.upper)
    assert witness.value == pytest.approx(1.125, abs=1e-9)
    assert witness.out_of_range
    crit.finish()


def test_criterion_9_cli_determinism(capsys):
    crit = Criterion("criterion-9 CLI selftest and determinism", 120.0)
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out

    manifest = assertion_manifest()
    for name, doc in bundled_scenarios().items():
        first = run_scenario(Scenario.from_dict(doc))
        second = run_scenario(Scenario.from_dict(doc))
        assert not check_assertions(first, manifest[name])
        a, b = json.loads(report_to_doc(first)), json.loads(report_to_doc(second))
        a.pop("timing"), b.pop("timing")
        # bit-identical serialization once the wall-clock block is removed
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), name
    crit.finish()
