import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentidm import runner, vacuity
from latentidm.cli import EXIT_OK, main
from latentidm.manifest import BinaryChannel
from latentidm.observation import EmissionMatrix, ManifestDataset
from latentidm.runner import Scenario, bundled_scenarios, run_scenario
from latentidm.simplex import DirichletParams, SimplexGrid, SimplexPoint
from latentidm.vacuity import (
    MAX_SIDE,
    MIN_SIDE,
    ConcentratingSequence,
    DeltaSet,
    Polynomial,
    canonical_concentrating_sequence,
    constant_likelihood,
    coordinate_function,
    dataset_likelihood,
    delta_set_mass,
    fixed_strength_concentrating_sequence,
    monomial_function,
    monomial_likelihood,
    posterior_ratio,
    verify_theorem1,
)
from oracles import (
    beta_cdf_binomial,
    beta_tail_quadrature,
    dirichlet_moment,
    equal_rows_ratio,
    expanded_likelihood,
    latent_likelihood,
    moment_ratio,
    monomial_interval,
    polynomial_posterior_ratio,
    prior_at,
    ratio_tolerance,
)

GRID = SimplexGrid(k=2, resolution=2000)
F_COORD = coordinate_function(0, 2)
VERTEX_10 = SimplexPoint([1.0, 0.0])

# likelihood of two observations of row 0 through the 0.1/0.1 channel:
# (0.1 + 0.8 theta)^2, strictly positive everywhere
CHANNEL_LIKELIHOOD = dataset_likelihood(
    ManifestDataset.from_rows(BinaryChannel(0.1, 0.1).emission(), [0, 0])
)
CHANNEL_POLY = [0.01, 0.16, 0.64]  # ascending coefficients of (0.1 + 0.8 x)^2


def beta_params(seq, n):
    params = prior_at(seq, n)
    return params.s * params.t.coords[0], params.s * params.t.coords[1]


class TestFunctionTypes:
    def test_coordinate_function_basics(self):
        values = F_COORD.values(GRID.points)
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert F_COORD.exponents.tolist() == [[1, 0]] and F_COORD.log_coeffs.tolist() == [0.0]

    def test_monomial_declared_max_is_vacuous_value(self):
        f = monomial_function([1, 1])
        assert DeltaSet(f, 0.25).level == 0.0
        seq = canonical_concentrating_sequence(SimplexPoint([0.5, 0.5]))
        (report,) = verify_theorem1(f, [constant_likelihood(2)], seq, [10])
        assert report.extremum == 0.25
        f2 = monomial_function([2, 1])
        assert DeltaSet(f2, 0.1).level + 0.1 == pytest.approx(4.0 / 27.0, abs=1e-15)

    def test_range_validation_fires(self):
        # exponents must be nonnegative, and a function of the lab is one monomial
        with pytest.raises(ValueError):
            Polynomial([[2, -1]], [0.0])
        with pytest.raises(ValueError):
            DeltaSet(Polynomial([[1, 0], [0, 1]], [0.0, 0.0]), 0.1)

    def test_polynomial_rejects_malformed_coefficients(self):
        with pytest.raises(ValueError):
            Polynomial([[1, 0], [0, 1]], [0.0])
        with pytest.raises(ValueError):
            Polynomial([[1, 0]], [math.inf])

    def test_channel_likelihood_values_are_its_weight_pass(self):
        data = ManifestDataset.from_rows(BinaryChannel(0.1, 0.2).emission(), [0, 1, 1, 0, 1])
        values = dataset_likelihood(data).values(GRID.points)
        assert np.allclose(values, latent_likelihood(data, GRID.points), rtol=1e-12, atol=0.0)


class TestConcentratingSequences:
    def test_canonical_strength_and_path(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        p = prior_at(seq, 10)
        assert p.s == 10.0
        assert p.t.coords == pytest.approx([0.9, 0.1])

    def test_mean_converges_to_target(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        gaps = [
            float(np.abs(prior_at(seq, n).t.coords - VERTEX_10.coords).max())
            for n in (10, 100, 1000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-3

    def test_canonical_exponents_stay_nonnegative(self):
        seq = canonical_concentrating_sequence(SimplexPoint([0.5, 0.5]))
        for n in (10, 100, 1000):
            assert (prior_at(seq, n).alpha - 1.0).min() >= -1e-12

    def test_fixed_strength_keeps_s(self):
        seq = fixed_strength_concentrating_sequence(VERTEX_10, 2.0)
        assert prior_at(seq, 50).s == 2.0
        assert prior_at(seq, 50).t.coords[0] == pytest.approx(1.0 - 1.0 / 50)

    def test_k3_target_path_valid(self):
        seq = canonical_concentrating_sequence(SimplexPoint([1.0, 0.0, 0.0]))
        p = prior_at(seq, 10)
        assert p.t.coords == pytest.approx([0.8, 0.1, 0.1])
        assert p.t.is_interior

    def test_path_refuses_indices_below_k_minus_1(self):
        seq = canonical_concentrating_sequence(SimplexPoint([1.0, 0.0, 0.0, 0.0]))
        assert seq.priors([3])[1].min() > 0.0
        with pytest.raises(ValueError, match="below index 3"):
            seq.priors([10, 2])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_table_rows_are_the_per_index_priors(self, data):
        # each row of a schedule's table is the prior built for its index alone, bit for
        # bit, in the open simplex; n = k - 1 at a vertex takes the interior fix
        k = data.draw(st.integers(2, 6))
        shape = data.draw(st.sampled_from(["vertex", "face", "interior"]))
        weights = np.zeros(k)
        if shape == "vertex":
            weights[data.draw(st.integers(0, k - 1))] = 1.0
        else:
            size = k if shape == "interior" else data.draw(st.integers(1, k - 1))
            support = data.draw(st.permutations(range(k)))[:size]
            weights[support] = data.draw(
                st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size)
            )
        target = SimplexPoint(weights / weights.sum())
        if data.draw(st.booleans()):
            seq = canonical_concentrating_sequence(target)
        else:
            strength = data.draw(st.floats(1e-3, 1e8))
            seq = fixed_strength_concentrating_sequence(target, strength)
        first = max(2, k - 1)
        indices = st.one_of(st.integers(first, first + 3), st.integers(first, 10**8))
        schedule = data.draw(st.lists(indices, min_size=1, max_size=12))
        strengths, alphas = seq.priors(schedule)
        assert alphas.shape == (len(schedule), k)
        for n, s, alpha in zip(schedule, strengths, alphas, strict=True):
            prior = prior_at(seq, n)
            assert s == prior.s
            assert alpha.tobytes() == prior.alpha.tobytes()
            assert alpha.min() > 0.0
            assert abs(alpha.sum() / s - 1.0) <= 1e-12


class TestDeltaSetMass:
    def test_full_range_delta_covers_everything(self):
        params = DirichletParams(3.0, SimplexPoint([0.4, 0.6]))
        mass = delta_set_mass(params, DeltaSet(F_COORD, 1.0), GRID)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_uniform_density_mass_is_slab_width(self):
        uniform = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        mass = delta_set_mass(uniform, DeltaSet(F_COORD, 0.1), GRID)
        assert mass == pytest.approx(0.1, abs=1e-3)

    def test_concentrated_density_fills_slab(self):
        params = prior_at(canonical_concentrating_sequence(VERTEX_10), 200)
        mass = delta_set_mass(params, DeltaSet(F_COORD, 0.1), GRID)
        assert mass >= 0.99
        # exact value is 1 - 0.9^199
        assert mass == pytest.approx(1.0 - 0.9**199, abs=1e-3)

    def test_mass_monotone_in_delta(self):
        params = DirichletParams(6.0, SimplexPoint([0.7, 0.3]))
        masses = [
            delta_set_mass(params, DeltaSet(F_COORD, d), GRID)
            for d in (0.02, 0.05, 0.1, 0.2, 0.5)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_mass_bounded_by_one(self):
        params = prior_at(canonical_concentrating_sequence(VERTEX_10), 1000)
        grid = SimplexGrid(k=2, resolution=20000)
        mass = delta_set_mass(params, DeltaSet(F_COORD, 0.1), grid)
        assert 0.0 <= mass <= 1.0 + 1e-3

    def test_min_side_slab(self):
        uniform = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        mass = delta_set_mass(uniform, DeltaSet(F_COORD, 0.25, mode=MIN_SIDE), GRID)
        assert mass == pytest.approx(0.25, abs=1e-3)

    def test_trend_at_fixed_resolution(self):
        # delta in {0.2, 0.1, 0.05}: nondecreasing over the schedule and
        # above 0.99 at the end, all at m=2000
        seq = canonical_concentrating_sequence(VERTEX_10)
        for delta in (0.2, 0.1, 0.05):
            masses = [
                delta_set_mass(prior_at(seq, n), DeltaSet(F_COORD, delta), GRID)
                for n in (10, 100, 1000)
            ]
            assert masses[0] <= masses[1] + 1e-12 <= masses[2] + 2e-12
            assert masses[2] >= 0.99


class TestPosteriorRatio:
    def test_constant_likelihood_recovers_prior_mean(self):
        params = DirichletParams(4.0, SimplexPoint([0.3, 0.7]))
        ratio = posterior_ratio(params, constant_likelihood(2), F_COORD, GRID)
        assert ratio == pytest.approx(0.3, abs=1e-3)

    def test_ratio_stays_in_declared_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = rng.uniform(0.2, 0.8)
            params = DirichletParams(rng.uniform(2.2, 8.0) / min(t, 1 - t), SimplexPoint([t, 1 - t]))
            ratio = posterior_ratio(params, CHANNEL_LIKELIHOOD, F_COORD, GRID)
            assert -1e-9 <= ratio <= 1.0 + 1e-9

    def test_positive_likelihood_ratio_climbs_to_max(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        ratios = []
        for n in (10, 100, 1000):
            grid = SimplexGrid(k=2, resolution=max(2000, 20 * n))
            ratios.append(posterior_ratio(prior_at(seq, n), CHANNEL_LIKELIHOOD, F_COORD, grid))
            # independent oracle: Beta-moment arithmetic on the polynomial likelihood
            a, b = beta_params(seq, n)
            expected = polynomial_posterior_ratio(a, b, [0.0, 1.0], CHANNEL_POLY)
            assert ratios[-1] == pytest.approx(expected, abs=1e-3)
        assert ratios[0] < ratios[1] < ratios[2]
        assert abs(ratios[2] - 1.0) < 0.01

    def test_vanishing_likelihood_along_strength_n_family(self):
        # L = theta_2 vanishes at the argmax, yet along the strength-n family
        # the ratio still climbs: closed form (n-1)/(n+1).  The recorded
        # margin at n=1000 is only ~2e-3; the genuine escape needs the
        # fixed-strength family below.
        seq = canonical_concentrating_sequence(VERTEX_10)
        for n in (10, 100, 1000):
            grid = SimplexGrid(k=2, resolution=max(2000, 20 * n))
            ratio = posterior_ratio(prior_at(seq, n), coordinate_function(1, 2), F_COORD, grid)
            assert ratio == pytest.approx((n - 1) / (n + 1), abs=2e-4)
            assert ratio < 1.0

    def test_fixed_strength_escape_gap(self):
        # mixed fully-observed dataset: L = theta_1 * theta_2 vanishes at the
        # argmax; along the fixed-strength family the ratio caps at
        # (s t_1 + 1)/(s + 2), far from 1
        seq = fixed_strength_concentrating_sequence(VERTEX_10, 2.0)
        mixed = monomial_likelihood([1, 1])
        for n in (10, 100, 1000):
            grid = SimplexGrid(k=2, resolution=max(2000, 20 * n))
            ratio = posterior_ratio(prior_at(seq, n), mixed, F_COORD, grid)
            expected = (2.0 * (1.0 - 1.0 / n) + 1.0) / 4.0
            assert ratio == pytest.approx(expected, abs=5e-4)
        assert abs(ratio - 1.0) > 0.05

    def test_degenerate_denominator_raises(self):
        params = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        # theta_2^(10^12) is 0.0 at every grid point, even at 1 - 1e-9
        zero = monomial_likelihood([0, 10**12])
        with pytest.raises(FloatingPointError, match="posterior normalizer underflowed"):
            posterior_ratio(params, zero, F_COORD, GRID)


class TestVerifyTheorem1:
    def test_max_side_with_positive_likelihood(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        (report,) = verify_theorem1(F_COORD, [CHANNEL_LIKELIHOOD], seq, [10, 100, 1000])
        assert report.side == MAX_SIDE
        assert report.rows[-1].posterior_ratio >= 0.99
        assert report.extremum_reached
        masses = [row.delta_masses[0] for row in report.rows]
        assert masses[0] <= masses[1] <= masses[2]

    def test_min_side_inferred_from_hint(self):
        seq = canonical_concentrating_sequence(SimplexPoint([0.0, 1.0]))
        (report,) = verify_theorem1(F_COORD, [CHANNEL_LIKELIHOOD], seq, [10, 100, 1000])
        assert report.side == MIN_SIDE
        assert report.rows[-1].posterior_ratio <= 0.01
        assert report.extremum_reached

    def test_monomial_reaches_vacuous_upper_value(self):
        f = monomial_function([1, 1])
        seq = canonical_concentrating_sequence(SimplexPoint([0.5, 0.5]))
        (report,) = verify_theorem1(f, [CHANNEL_LIKELIHOOD], seq, [10, 100, 1000])
        assert report.extremum == 0.25
        assert report.rows[-1].posterior_ratio >= 0.25 - 0.01
        assert report.extremum_reached

    def test_expectation_column_tracks_mean(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        (report,) = verify_theorem1(F_COORD, [constant_likelihood(2)], seq, [10, 100])
        for row, n in zip(report.rows, (10, 100)):
            assert row.expectation == pytest.approx(1.0 - 1.0 / n, abs=1e-3)

    def test_contrast_reports_failure(self):
        seq = fixed_strength_concentrating_sequence(VERTEX_10, 2.0)
        (report,) = verify_theorem1(F_COORD, [monomial_likelihood([1, 1])], seq, [10, 100, 1000])
        assert not report.extremum_reached
        assert report.final_gap > 0.05


# ---------------------------------------------------------------------------
# Exact values against independent oracles.


def _exact_mass(alpha, f_row, delta: float, side: str) -> float:
    """Slab mass of theta^f_row under Dirichlet(alpha), alpha integer, for k = 2 or
    one positive exponent: binomial-sum Beta CDFs at exact-rational level-set ends."""
    size = sum(f_row)
    peak = math.prod((Fraction(e, size) ** e for e in f_row if e), start=Fraction(1))
    level = peak - Fraction(delta) if side == MAX_SIDE else Fraction(delta)
    if level <= 0 or level >= peak:
        return 1.0
    positive = [h for h, e in enumerate(f_row) if e]
    if len(positive) == 1:
        (i,) = positive
        lo, _ = monomial_interval(f_row[i], 0, level)
        a, b = alpha[i], sum(alpha) - alpha[i]
        below = beta_cdf_binomial(float(lo), a, b)
        return float(1 - below if side == MAX_SIDE else below)
    lo, hi = (float(x) for x in monomial_interval(f_row[0], f_row[1], level))
    inside = beta_cdf_binomial(hi, *alpha) - beta_cdf_binomial(lo, *alpha)
    return float(inside if side == MAX_SIDE else 1 - inside)


def _trend_configurations():
    """(f, likelihoods, sequence, schedule, deltas): the three bundled trend
    scenarios, then a k=3 coordinate case with a contrast."""
    target_k3 = SimplexPoint([1.0, 0.0, 0.0])
    schedule = [10, 100, 1000]
    return [
        (  # theorem-a1-concentration
            F_COORD,
            [CHANNEL_LIKELIHOOD, monomial_likelihood([1, 60])],
            canonical_concentrating_sequence(VERTEX_10),
            schedule,
            [0.2, 0.1, 0.05],
        ),
        (  # theorem1-escape-contrast
            F_COORD,
            [monomial_likelihood([1, 1])],
            fixed_strength_concentrating_sequence(VERTEX_10, 2.0),
            schedule,
            [0.1, 0.01],
        ),
        (  # theorem1-monomial-vacuity
            monomial_function([1, 1]),
            [CHANNEL_LIKELIHOOD],
            canonical_concentrating_sequence(SimplexPoint([0.5, 0.5])),
            schedule,
            [0.1, 0.01],
        ),
        (
            coordinate_function(0, 3),
            [monomial_likelihood([2, 1, 1]), monomial_likelihood([0, 2, 1])],
            canonical_concentrating_sequence(target_k3),
            [10, 40],
            [0.2, 0.05],
        ),
    ]


def _terms(likelihood):
    """Exact coefficients of a likelihood built from exponents alone."""
    return {tuple(row): Fraction(1) for row in likelihood.exponents.tolist()}


CHANNEL_TERMS = expanded_likelihood(
    ManifestDataset.from_rows(BinaryChannel(0.1, 0.1).emission(), [0, 0])
)


class TestSharedDensity:
    """Every trend row equals standalone values of its quantities, computed
    independently of the lab."""

    @pytest.mark.parametrize("config", _trend_configurations())
    def test_rows_equal_standalone_integrals(self, config):
        f, likelihoods, seq, schedule, deltas = config
        f_row = f.exponents[0].tolist()
        reports = verify_theorem1(f, likelihoods, seq, schedule, deltas=deltas)
        assert len(reports) == len(likelihoods)
        for report, likelihood in zip(reports, likelihoods):
            assert [row.n for row in report.rows] == schedule
            method = vacuity.BETA_INTERVAL if f_row == [1, 1] else vacuity.BETA_TAIL
            assert report.methods["mass"] == method
            terms = CHANNEL_TERMS if likelihood is CHANNEL_LIKELIHOOD else _terms(likelihood)
            for row in report.rows:
                params = prior_at(seq, row.n)
                s, t = params.s, params.t.coords
                assert abs(row.expectation - float(dirichlet_moment(s, t, f_row))) <= 1e-12
                assert abs(row.posterior_ratio - float(moment_ratio(s, t, f_row, terms))) <= 1e-12
                alpha = params.alpha
                for delta, mass in zip(deltas, row.delta_masses):
                    if np.allclose(alpha, np.round(alpha), rtol=0, atol=1e-9):
                        expected = _exact_mass([round(a) for a in alpha], f_row, delta, report.side)
                    else:  # the fixed-strength family: Beta(2 - 2/n, 2/n), divergent at 1
                        expected = beta_tail_quadrature(1.0 - delta, alpha[0], alpha[1])
                    assert abs(mass - expected) <= 1e-12, (row.n, delta)

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_coordinate_documents_past_the_grid_cap(self, k):
        # default fields, so grid_resolution 2000: a coordinate's slabs are Beta tails, so
        # no lattice is sized; on the canonical family theta_0 ~ Beta(n - k + 1, k - 1)
        doc = {
            "name": f"k{k}-coordinate",
            "kind": "verify-theorem1",
            "target": [1.0] + [0.0] * (k - 1),
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "constant"},
        }
        report = run_scenario(Scenario.from_dict(doc))
        assert report["provenance"]["methods"]["mass"] == vacuity.BETA_TAIL
        main = report["results"]["main"]
        assert [row["n"] for row in main["rows"]] == [10, 100, 1000]
        for row in main["rows"]:
            n = row["n"]
            assert abs(row["expectation"] - (n - k + 1) / n) <= 1e-12
            for delta, mass in zip([0.1, 0.01], row["mass"]):
                expected = 1 - beta_cdf_binomial(1.0 - delta, n - k + 1, k - 1)
                assert abs(mass - float(expected)) <= 1e-12, (n, delta)

    def test_bundled_catalog_builds_no_grid(self, monkeypatch):
        built = []
        original = SimplexGrid

        def counting(*args, **kwargs):
            built.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "SimplexGrid", counting)
        monkeypatch.setattr(vacuity, "SimplexGrid", counting)
        catalog = bundled_scenarios()
        assert len(catalog) == 12
        for doc in catalog.values():
            report = run_scenario(Scenario.from_dict(doc))
            assert "grid" not in report["provenance"]
        assert built == []

    def test_k3_verdict_ignores_grid_resolution(self):
        doc = {
            "name": "k3-coordinate",
            "kind": "verify-theorem1",
            "target": [1.0, 0.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "monomial", "exponents": [2, 1, 1]},
            "sequence": {"family": "canonical"},
        }
        coarse, fine = (
            run_scenario(Scenario.from_dict(dict(doc, grid_resolution=m))) for m in (200, 2000)
        )
        assert coarse["results"] == fine["results"]
        assert coarse["provenance"] == fine["provenance"]
        main = fine["results"]["main"]
        assert abs(main["rows"][-1]["ratio"] - 1000 / 1004) <= 1e-12
        assert main["extremum_reached"] is True

    def test_grid_block_only_when_a_grid_is_summed(self):
        doc = {
            "name": "k3-monomial",
            "kind": "verify-theorem1",
            "target": [0.5, 0.5, 0.0],
            "function": {"kind": "monomial", "exponents": [1, 1, 0]},
            "likelihood": {"kind": "constant"},
            "schedule": [10, 20],
            "grid_resolution": 60,
        }
        provenance = run_scenario(Scenario.from_dict(doc))["provenance"]
        assert provenance["methods"] == {
            "expectation": "dirichlet-moment",
            "mass": "grid",
            "ratio": "dirichlet-moment",
        }
        assert provenance["grid"] == {
            "resolution": 60,
            "boundary_policy": "clamp-to-epsilon",
            "eps_clamp": 1e-9,
        }


TREND_NAMES = [
    name
    for name, doc in bundled_scenarios().items()
    if doc["kind"] in ("verify-theorem1", "theorem-a1a2")
]


def per_index_rows(f, likelihoods, seq, schedule, deltas, side):
    """Each likelihood's rows, computed one index at a time as a plain loop would:
    a ladder over that index's 1-D alpha, a 1-D `np.logaddexp.reduce` per side and
    the Beta parameters as NumPy scalars.  Beta-mass documents only."""

    def log_rising(alpha, counts):
        ladder = np.zeros((len(alpha), int(counts.max()) + 1))
        ladder[:, 1:] = np.cumsum(np.log(alpha[:, None] + np.arange(counts.max())), axis=1)
        return sum(ladder[h, counts[:, h]] for h in range(len(alpha)))

    f_row = f.exponents[0]
    i = 0 if len(f_row) == 2 else int(np.flatnonzero(f_row)[0])
    rest = np.arange(len(f_row)) != i
    peak = vacuity._peak(f_row)
    levels = [DeltaSet(f, d, mode=side).level for d in deltas]
    ends = [vacuity._level_interval(f_row[i], f_row[rest].sum(), v, peak) for v in levels]
    rows = [[] for _ in likelihoods]
    for n in schedule:
        params = prior_at(seq, n)
        a, b = params.alpha[i], params.alpha[rest].sum()
        inside = [vacuity._beta_cdf(hi, a, b) - vacuity._beta_cdf(lo, a, b) for lo, hi in ends]
        masses = tuple(m if side == MAX_SIDE else 1.0 - m for m in inside)

        def log_moment(exponents):
            sizes = exponents.sum(axis=1, keepdims=True)
            return log_rising(params.alpha, exponents) - log_rising(np.array([params.s]), sizes)

        expectation = math.exp(log_moment(f_row[None])[0])
        for L, out in zip(likelihoods, rows):
            top = np.logaddexp.reduce(log_moment(L.exponents + f_row) + L.log_coeffs)
            bottom = np.logaddexp.reduce(log_moment(L.exponents) + L.log_coeffs)
            out.append(vacuity.TrendRow(n, expectation, masses, math.exp(top - bottom)))
    return [tuple(out) for out in rows]


class TestPerDocumentWork:
    """What depends only on the document is found once per call; each index
    does only the work that needs its own Dirichlet parameters."""

    @pytest.mark.parametrize(
        "target, function, method",
        [
            ([1.0, 0.0, 0.0], {"kind": "coordinate", "index": 0}, vacuity.BETA_TAIL),
            ([0.5, 0.5], {"kind": "monomial", "exponents": [1, 1]}, vacuity.BETA_INTERVAL),
            ([0.5, 0.5, 0.0], {"kind": "monomial", "exponents": [1, 1, 0]}, vacuity.GRID),
        ],
    )
    def test_no_deltas_under_every_mass_method(self, target, function, method):
        doc = {
            "name": "no-deltas",
            "kind": "verify-theorem1",
            "target": target,
            "function": function,
            "likelihood": {"kind": "constant"},
            "schedule": [10, 20],
            "deltas": [],
            "grid_resolution": 60,
        }
        report = run_scenario(Scenario.from_dict(doc))
        assert [row["mass"] for row in report["results"]["main"]["rows"]] == [[], []]
        assert report["provenance"]["methods"]["mass"] == method
        assert "grid" not in report["provenance"]

    @pytest.mark.parametrize("name", TREND_NAMES)
    def test_rows_do_not_depend_on_the_schedule(self, name):
        doc = bundled_scenarios()[name]
        assert len(doc["schedule"]) == 3
        whole = run_scenario(Scenario.from_dict(doc))["results"]
        for j, n in enumerate(doc["schedule"]):
            alone = run_scenario(Scenario.from_dict(dict(doc, schedule=[n])))["results"]
            for key in ("main", "contrast"):
                if whole[key] is None:
                    assert alone[key] is None
                    continue
                assert alone[key]["rows"] == [whole[key]["rows"][j]]

    @pytest.mark.parametrize("name", TREND_NAMES)
    def test_document_work_is_done_once_per_call(self, name, monkeypatch):
        counts = {"_crossing": 0, "log_moments": 0}
        for module, attr in ((vacuity, "_crossing"), (vacuity, "log_moments")):
            original = getattr(module, attr)

            def counting(*args, _attr=attr, _original=original):
                counts[_attr] += 1
                return _original(*args)

            monkeypatch.setattr(module, attr, counting)
        doc = bundled_scenarios()[name]
        crossings = []
        for schedule in ([10], [10, 100, 1000], [10, 100, 1000], list(range(10, 210, 10))):
            counts.update({"_crossing": 0, "log_moments": 0})
            run_scenario(Scenario.from_dict(dict(doc, schedule=schedule)))
            # the bundled ladders are small: every index shares one block
            assert counts["log_moments"] == 1
            crossings.append(counts["_crossing"])
        # the same bisections whatever the schedule length, and again on a repeated
        # call: nothing is kept between calls
        assert crossings == [2 * len(doc["deltas"])] * 4

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_each_row_equals_its_index_run_alone(self, data):
        k = data.draw(st.sampled_from([2, 3]))
        shapes = ["coordinate", "power", "monomial"][: 3 if k == 2 else 2]
        shape = data.draw(st.sampled_from(shapes))
        if shape == "coordinate":
            f = coordinate_function(data.draw(st.integers(0, k - 1)), k)
        elif shape == "power":
            exponent = data.draw(st.integers(1, 5))
            f = monomial_function((np.arange(k) == data.draw(st.integers(0, k - 1))) * exponent)
        else:
            f = monomial_function(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2)))

        def likelihood():
            kind = data.draw(st.sampled_from(["constant", "coordinate", "monomial", "channel"]))
            if kind == "constant":
                return constant_likelihood(k)
            if kind == "coordinate":
                return coordinate_function(data.draw(st.integers(0, k - 1)), k)
            if kind == "monomial":
                exponents = st.lists(st.integers(0, 80), min_size=k, max_size=k)
                return monomial_likelihood(data.draw(exponents))
            # two manifest rows, one column per hidden outcome, every entry positive
            columns = data.draw(st.lists(st.sampled_from([0.05, 0.3, 0.6]), min_size=k, max_size=k))
            emission = EmissionMatrix(np.array([[x, 1.0 - x] for x in columns]).T)
            rows = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
            return dataset_likelihood(ManifestDataset.from_rows(emission, rows))

        likelihoods = [likelihood() for _ in range(data.draw(st.integers(1, 2)))]
        f_row = f.exponents[0]
        if data.draw(st.booleans()):  # max side: aim at the peak of f
            target = SimplexPoint(f_row / f_row.sum())
        else:  # min side: a vertex where f vanishes
            target = SimplexPoint(np.arange(k) == (int(np.argmax(f_row)) + 1) % k)
        if data.draw(st.booleans()):
            seq = canonical_concentrating_sequence(target)
        else:
            strength = data.draw(st.sampled_from([0.5, 2.0]))
            seq = fixed_strength_concentrating_sequence(target, strength)
        indices = data.draw(st.lists(st.integers(3, 3000), min_size=1, max_size=4))
        schedule = data.draw(st.lists(st.sampled_from(indices), min_size=1, max_size=8))
        deltas = data.draw(st.lists(st.sampled_from([0.2, 0.1, 0.01]), max_size=2))
        # a budget of one cell puts every index in a block of its own
        budget = data.draw(st.sampled_from([vacuity._BLOCK_CELLS, 1, 200]))
        with unittest.mock.patch.object(vacuity, "_BLOCK_CELLS", budget):
            whole = verify_theorem1(f, likelihoods, seq, schedule, deltas)
        for j, n in enumerate(schedule):
            alone = verify_theorem1(f, likelihoods, seq, [n], deltas)
            for whole_report, alone_report in zip(whole, alone, strict=True):
                assert alone_report.rows[0] == whole_report.rows[j]
        side = whole[0].side
        for report, row in zip(whole, per_index_rows(f, likelihoods, seq, schedule, deltas, side)):
            assert report.rows == row

    def test_ladder_memory_does_not_grow_with_k_times_the_schedule(self):
        # one index's ladders and row of the priors table are a few 10^5 bytes each at
        # k = 20,000, so every index takes a block of its own; holding the whole
        # schedule's table at once would add ~160 KB per index and copy
        k = 20_000
        doc = {
            "name": "wide-coordinate",
            "kind": "verify-theorem1",
            "target": [1.0] + [0.0] * (k - 1),
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "coordinate", "index": 1},
            "deltas": [0.1],
        }
        peaks = []
        for schedule in ([k], list(range(k, k + 8))):
            scenario = Scenario.from_dict(dict(doc, schedule=schedule))
            tracemalloc.start()
            try:
                run_scenario(scenario)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_parse_memory_does_not_grow_with_k_times_the_schedule(self):
        # the fixed-strength family's s x t_h check reads the priors table a few rows at a
        # time: the whole table of 64 indices at k = 20,000 is 10 MiB, and its temporaries more
        k = 20_000
        doc = {
            "name": "wide-fixed-strength",
            "kind": "verify-theorem1",
            "target": [1.0] + [0.0] * (k - 1),
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "coordinate", "index": 1},
            "sequence": {"family": "fixed-strength", "s": 2.0},
            "schedule": list(range(k, k + 64)),
            "deltas": [0.1],
        }
        tracemalloc.start()
        try:
            Scenario.from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_ladder_memory_does_not_grow_with_the_schedule(self, monkeypatch):
        # one index's ladders hold ~2 x 10^6 cells each, past the block budget, so every
        # index takes a block of its own and the peak stays that of one index
        block_sizes = []
        original = vacuity.log_moments

        def counting(alphas, strengths, counts):
            block_sizes.append(len(strengths))
            return original(alphas, strengths, counts)

        monkeypatch.setattr(vacuity, "log_moments", counting)
        doc = {
            "name": "long-ladders",
            "kind": "verify-theorem1",
            "target": [1.0, 0.0],
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "monomial", "exponents": [10**6, 10**6]},
        }
        peaks = []
        for schedule in ([10], list(range(10, 90, 10))):
            scenario = Scenario.from_dict(dict(doc, schedule=schedule))
            tracemalloc.start()
            try:
                run_scenario(scenario)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert block_sizes == [1] * 9
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize(
        "main",
        # normalizers at n = 10: [480, 480] ~1e-292, [496, 496] ~3e-302, [500, 500] ~1e-304
        [[480, 480], [496, 496]],
    )
    def test_tiny_normalizers_give_exact_ratios(self, main):
        seq = canonical_concentrating_sequence(VERTEX_10)
        params = prior_at(seq, 10)
        rows = [main, [500, 500]]
        reports = verify_theorem1(F_COORD, [monomial_likelihood(r) for r in rows], seq, [10])
        for report, row in zip(reports, rows):
            exact = moment_ratio(params.s, params.t.coords, [1, 0], {tuple(row): Fraction(1)})
            assert abs(report.rows[0].posterior_ratio - float(exact)) <= 1e-12


def _x_polynomial(terms: dict) -> list[Fraction]:
    """Ascending coefficients in x = theta_0 of a k = 2 likelihood sum_e c_e theta^e."""
    n = sum(next(iter(terms)))
    coeffs = [Fraction(0)] * (n + 1)
    for (a, b), c in terms.items():
        for j in range(b + 1):  # (1 - x)^b
            coeffs[a + j] += c * math.comb(b, j) * (-1) ** j
    return coeffs


class TestExactTrend:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        a=st.integers(1, 60),
        b=st.integers(1, 60),
        x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_incomplete_beta_matches_binomial_sum(self, a, b, x):
        assert abs(vacuity._beta_cdf(x, a, b) - float(beta_cdf_binomial(x, a, b))) <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        a=st.floats(min_value=1.0, max_value=4.0),
        b=st.floats(min_value=0.002, max_value=1.0),
        x=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_divergent_beta_tail_matches_quadrature(self, a, b, x):
        tail = vacuity._beta_cdf(1.0 - x, b, a)
        assert abs(tail - beta_tail_quadrature(x, a, b)) <= 1e-12

    def test_escape_contrast_is_exact(self):
        report = run_scenario(Scenario.from_dict(bundled_scenarios()["theorem1-escape-contrast"]))
        rows = report["results"]["main"]["rows"]
        for row in rows:
            n = row["n"]
            a, b = 2.0 - 2.0 / n, 2.0 / n
            assert abs(row["expectation"] - a / 2.0) <= 1e-12
            assert abs(row["ratio"] - (a + 1.0) / 4.0) <= 1e-12
            for delta, mass in zip((0.1, 0.01), row["mass"]):
                assert abs(mass - beta_tail_quadrature(1.0 - delta, a, b)) <= 1e-12
        assert abs(rows[0]["mass"][1] - 0.464910191992) <= 1e-12
        assert report["provenance"]["methods"]["mass"] == "beta-tail"

    def test_channel_likelihood_past_the_size_cap(self):
        # 30 observations: past the 20 that the predictive bounds once took; k = 2 has only
        # 31 frequency vectors
        rows = [0, 1, 1, 0, 0, 1] * 5
        doc = dict(
            bundled_scenarios()["theorem-a1-concentration"],
            likelihood={"kind": "channel", "eps1": 0.1, "eps2": 0.2, "observations": rows},
        )
        doc.pop("contrast_likelihood")
        report = run_scenario(Scenario.from_dict(doc))
        data = ManifestDataset.from_rows(BinaryChannel(0.1, 0.2).emission(), rows)
        poly = _x_polynomial(expanded_likelihood(data))
        seq = canonical_concentrating_sequence(VERTEX_10)
        for row in report["results"]["main"]["rows"]:
            params = prior_at(seq, row["n"])
            a, b = (Fraction(float(x)) for x in params.alpha)
            expected = polynomial_posterior_ratio(a, b, [Fraction(0), Fraction(1)], poly)
            assert abs(row["ratio"] - float(expected)) <= 1e-12
            grid_value = posterior_ratio(params, dataset_likelihood(data), F_COORD, GRID)
            assert abs(row["ratio"] - grid_value) <= 1e-3

    def test_long_channel_likelihood_is_exit_0_with_exact_ratios(self, tmp_path, capsys):
        # 360 observations of row 1 through the 0.1/0.1 channel: E_n(L) ~1e-305 at n = 10,
        # whose ratio is defined and reported like any other
        channel = {"kind": "channel", "eps1": 0.1, "eps2": 0.1, "observations": [1] * 360}
        doc = dict(bundled_scenarios()["theorem-a1-concentration"], likelihood=channel)
        doc.pop("contrast_likelihood")
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["results"]["main"]["rows"]
        entries = BinaryChannel(0.1, 0.1).emission().entries[1]
        seq = canonical_concentrating_sequence(VERTEX_10)
        for row in rows:
            a, b = prior_at(seq, row["n"]).alpha
            assert abs(row["ratio"] - float(equal_rows_ratio(a, b, entries, 360))) <= 1e-12

    @pytest.mark.parametrize(
        "target, schedule, side, t0",
        [
            # f vanishes at the target: the min side, on the path t_0 = 1/n
            ([0.0, 1.0], [10, 100, 1000], MIN_SIDE, lambda n: 1.0 / n),
            # at n = k - 1 the path reaches the boundary, t = (0, 1/2, 1/2), and is mixed
            # back into the interior with weight eps = 1e-6 / k, so t_0 = eps
            ([1.0, 0.0, 0.0], [2], MAX_SIDE, lambda n: 1e-6 / 3),
        ],
        ids=["min-side", "interior-fallback"],
    )
    def test_constant_likelihood_reports_the_path_mean(
        self, tmp_path, capsys, target, schedule, side, t0
    ):
        # f = theta_0 and a constant likelihood: E_n(f) and the ratio are both t_0 of the path
        doc = {
            "name": "path-mean",
            "kind": "verify-theorem1",
            "target": target,
            "function": {"kind": "coordinate", "index": 0},
            "likelihood": {"kind": "constant"},
            "schedule": schedule,
        }
        path = tmp_path / "path-mean.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]["main"]
        assert results["side"] == side
        assert [row["n"] for row in results["rows"]] == schedule
        for row in results["rows"]:
            assert row["expectation"] == pytest.approx(t0(row["n"]), rel=1e-12, abs=0)
            assert row["ratio"] == pytest.approx(t0(row["n"]), rel=1e-12, abs=0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        exponents=st.lists(st.integers(0, 10**5), min_size=2, max_size=3).filter(any),
        index=st.integers(0, 2),
        vertex=st.integers(0, 2),
        strength=st.one_of(st.none(), st.floats(1e-3, 1e8)),
        n=st.integers(2, 10**8),
    )
    @example(exponents=[0, 10**7], index=0, vertex=0, strength=2.0, n=1000)
    def test_one_row_ratio_error_model(self, exponents, index, vertex, strength, n):
        # f = theta_i and L = theta^l: the ratio is (alpha_i + l_i) / (s + |l|) in closed
        # form, within README's bound 2^-52 (64 + 2 |l| ln(s + |l|)) relative; the canonical
        # family (strength None) or the fixed-strength one, at any index up to the cap
        k, degree = len(exponents), sum(exponents)
        i = index % k
        target = SimplexPoint(np.arange(k) == vertex % k)
        if strength is None:
            seq = canonical_concentrating_sequence(target)
        else:
            seq = fixed_strength_concentrating_sequence(target, strength)
        likelihood = monomial_likelihood(exponents)
        (report,) = verify_theorem1(coordinate_function(i, k), [likelihood], seq, [n], deltas=())
        params = prior_at(seq, n)
        s = Fraction(params.s)
        exact = (s * Fraction(float(params.t.coords[i])) + exponents[i]) / (s + degree)
        error = abs(Fraction(report.rows[0].posterior_ratio) / exact - 1)
        assert error <= ratio_tolerance(params.s, degree)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rows_match_oracles(self, data):
        k = data.draw(st.sampled_from([2, 3]))
        if data.draw(st.booleans()):
            f = coordinate_function(data.draw(st.integers(0, k - 1)), k)
        else:
            exponents = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
            exponents[data.draw(st.integers(0, k - 1))] += 1
            f = monomial_function(exponents)
        f_row = f.exponents[0].tolist()
        kind = data.draw(st.sampled_from(["constant", "coordinate", "monomial", "channel"]))
        if kind == "constant":
            likelihood, terms = constant_likelihood(k), {(0,) * k: Fraction(1)}
        elif kind == "coordinate":
            likelihood = coordinate_function(data.draw(st.integers(0, k - 1)), k)
            terms = _terms(likelihood)
        elif kind == "monomial":
            likelihood = monomial_likelihood(
                data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
            )
            terms = _terms(likelihood)
        else:
            columns = data.draw(
                st.lists(
                    st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0]), min_size=2, max_size=2),
                    min_size=k,
                    max_size=k,
                )
            )
            columns = [c if sum(c) else [1.0, 0.0] for c in columns]
            emission = EmissionMatrix(np.array([[x / sum(c) for x in c] for c in columns]).T)
            rows = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
            rows = [r for r in rows if any(emission.entries[r])] or [
                0 if any(emission.entries[0]) else 1
            ]
            observed = ManifestDataset.from_rows(emission, rows)
            likelihood, terms = dataset_likelihood(observed), expanded_likelihood(observed)
        side = data.draw(st.sampled_from([MAX_SIDE, MIN_SIDE]))
        peak = float(np.prod([(e / sum(f_row)) ** e for e in f_row]))
        # away from delta = peak, where the max-side slab shrinks to the peak itself
        factors = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 1.2))
        deltas = [peak * data.draw(factors) for _ in range(2)]
        alphas = [data.draw(st.lists(st.integers(1, 30), min_size=k, max_size=k)) for _ in range(2)]
        priors = {
            n: DirichletParams(float(sum(a)), SimplexPoint(np.array(a) / sum(a)))
            for n, a in zip((10, 11), alphas)
        }
        # the max side aims at the peak of f, the min side at a vertex where f vanishes
        positive = f_row.index(max(f_row))
        peak_point = np.array(f_row) / sum(f_row)
        target = peak_point if side == MAX_SIDE else np.arange(k) == (positive + 1) % k
        seq = canonical_concentrating_sequence(SimplexPoint(target))

        def table(self, schedule):  # these priors in place of the family's path
            listed = [priors[n] for n in schedule]
            return np.array([p.s for p in listed]), np.array([p.alpha for p in listed])

        resolution = 20000 if k == 2 else 400
        with unittest.mock.patch.object(ConcentratingSequence, "priors", table):
            (report,) = verify_theorem1(f, [likelihood], seq, list(priors), deltas, resolution)
        assert report.side == side
        # every s t_i >= 1, so the density is bounded and the fine grid is an oracle;
        # over 400 random draws it stayed within a third of these tolerances
        fine = SimplexGrid(k=k, resolution=resolution)
        tolerance = 2e-3 if k == 2 else 3e-2
        for row, alpha in zip(report.rows, alphas):
            params = priors[row.n]
            s, t = params.s, params.t.coords
            assert abs(row.expectation - float(dirichlet_moment(s, t, f_row))) <= 1e-12
            assert abs(row.posterior_ratio - float(moment_ratio(s, t, f_row, terms))) <= 1e-12
            grid_ratio = posterior_ratio(params, likelihood, f, fine)
            assert abs(row.posterior_ratio - grid_ratio) <= tolerance
            for delta, mass in zip(deltas, row.delta_masses):
                grid_mass = delta_set_mass(params, DeltaSet(f, delta, side), fine)
                if report.methods["mass"] == vacuity.GRID:
                    assert abs(mass - grid_mass) <= 1e-12
                    continue
                assert abs(mass - _exact_mass(alpha, f_row, delta, side)) <= 1e-12
                assert abs(mass - grid_mass) <= tolerance


def test_catalog_runs_without_scipy():
    # SciPy may be installed, but it is no dependency: every bundled scenario must
    # run, and pass its assertions, with it unimportable
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from latentidm.runner import Scenario, assertion_manifest, bundled_scenarios, "
        "check_assertions, run_scenario\n"
        "checks = assertion_manifest()\n"
        "for name, doc in bundled_scenarios().items():\n"
        "    report = run_scenario(Scenario.from_dict(doc))\n"
        "    assert not check_assertions(report, checks[name]), name\n"
        "print('ok')\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
