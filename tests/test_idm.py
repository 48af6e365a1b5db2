import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm.idm import (
    BoundaryLimit,
    FrequencyVector,
    PredictiveBounds,
    log_marginal_probability,
    standard_idm_predictive_bounds,
    vacuous_prior_upper_predictive,
)
from latentidm.manifest import BinaryChannel, naive_reconstruction, scaled_beta_posterior_mean
from latentidm.observation import (
    EmissionMatrix,
    ManifestDataset,
    outcome_bounds,
    posterior_predictive_at_t,
)
from latentidm.simplex import DirichletParams, SimplexGrid, SimplexPoint
from latentidm.vacuity import DeltaSet, coordinate_function, fixed_strength_concentrating_sequence
from oracles import dirichlet_log_density, random_interior_params


def _grid_ratio(params, numerator_coord, grid, monomial):
    """Oracle: E[theta_j * prod theta^a] / E[prod theta^a] by grid sums."""
    log_dens = np.array([dirichlet_log_density(params, p) for p in grid.points])
    dens = np.exp(log_dens)
    mono = np.ones(grid.point_count)
    for i, e in enumerate(monomial):
        if e:
            mono *= grid.points[:, i] ** e
    weighted = mono * dens
    if numerator_coord is None:
        return float(weighted.sum() / dens.sum())
    return float((grid.points[:, numerator_coord] * weighted).sum() / weighted.sum())


class TestFrequencyVector:
    def test_totals(self):
        fv = FrequencyVector((2, 0, 3))
        assert fv.n == 5 and fv.k == 3 and fv[2] == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FrequencyVector((1, -1))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            FrequencyVector((1.5, 1))

    def test_hashable(self):
        assert {FrequencyVector((1, 0)): "x"}[FrequencyVector((1, 0))] == "x"


def _posterior_mean(prior, counts):
    """The conjugate posterior mean as a report computes it: the predictive of a perfectly
    observed dataset with these counts at a fixed prior."""
    k = len(counts)
    data = ManifestDataset.from_rows(EmissionMatrix.identity(k), np.repeat(np.arange(k), counts))
    return posterior_predictive_at_t(data, prior)


class TestPosteriorUpdate:
    """The conjugate update: `posterior_predictive_at_t` on an identity channel for the
    posterior mean, `log_marginal_probability` for the dataset's marginal."""

    def test_single_observation(self):
        prior = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        assert _posterior_mean(prior, (1, 0)) == pytest.approx([2 / 3, 1 / 3])
        logm = log_marginal_probability(prior, FrequencyVector((1, 0)))
        assert math.exp(logm) == pytest.approx(0.5, abs=1e-14)

    def test_marginal_small_dataset(self):
        prior = DirichletParams(1.0, SimplexPoint([0.5, 0.5]))
        logm = log_marginal_probability(prior, FrequencyVector((2, 1)))
        # (0.5 * 1.5 * 0.5) / (1 * 2 * 3)
        assert math.exp(logm) == pytest.approx(0.0625, abs=1e-14)

    def test_posterior_mean_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        grid = SimplexGrid(k=2, resolution=2000)
        for _ in range(10):
            prior = random_interior_params(rng, k=2)
            counts = tuple(int(c) for c in rng.integers(0, 4, size=2))
            oracle = _grid_ratio(prior, 0, grid, counts)
            assert _posterior_mean(prior, counts)[0] == pytest.approx(oracle, rel=1e-3, abs=1e-3)

    def test_posterior_mean_matches_grid_oracle_k3(self):
        rng = np.random.default_rng(37)
        grid = SimplexGrid(k=3, resolution=200)
        for _ in range(10):
            prior = random_interior_params(rng, k=3)
            counts = tuple(int(c) for c in rng.integers(0, 3, size=3))
            oracle = _grid_ratio(prior, 0, grid, counts)
            assert _posterior_mean(prior, counts)[0] == pytest.approx(oracle, rel=1e-3, abs=1e-3)

    def test_marginal_matches_grid_oracle(self):
        # ratio over the density normalizer, as the marginal's own oracle
        rng = np.random.default_rng(29)
        grid = SimplexGrid(k=2, resolution=2000)
        for _ in range(10):
            prior = random_interior_params(rng, k=2)
            counts = tuple(int(c) for c in rng.integers(0, 4, size=2))
            if sum(counts) == 0:
                counts = (1, 1)
            logm = log_marginal_probability(prior, FrequencyVector(counts))
            oracle = _grid_ratio(prior, None, grid, counts)
            assert math.exp(logm) == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_marginal_normalization_over_ordered_datasets(self, n):
        # frequency-level P(x) times the multinomial coefficient sums to 1
        prior = DirichletParams(1.7, SimplexPoint([0.35, 0.65]))
        total = 0.0
        for a1 in range(n + 1):
            fv = FrequencyVector((a1, n - a1))
            total += math.comb(n, a1) * math.exp(log_marginal_probability(prior, fv))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestStandardBounds:
    def test_mixed_counts(self):
        b = standard_idm_predictive_bounds(2.0, FrequencyVector((2, 1)), 0)
        assert (b.lower, b.upper) == (0.4, 0.8)
        assert b.argmin_t == BoundaryLimit(0, 0.0)
        assert b.argmax_t == BoundaryLimit(0, 1.0)

    def test_empty_data_prior_vacuity(self):
        b = standard_idm_predictive_bounds(2.0, FrequencyVector((0, 0)), 0)
        assert (b.lower, b.upper) == (0.0, 1.0)

    @pytest.mark.parametrize("s", [1.0, 2.0, 7.5])
    def test_one_outcome_dataset(self, s):
        b = standard_idm_predictive_bounds(s, FrequencyVector((3, 0)), 0)
        assert b.lower == pytest.approx(3.0 / (3.0 + s))
        assert b.lower > 0.0
        assert b.upper == 1.0

    def test_bounds_approached_by_grid_sweep(self):
        # sweep (a_j + s t_j)/(n+s) over a clamped t grid, m=2000
        s, counts, j = 2.0, (2, 1), 0
        grid = SimplexGrid(k=2, resolution=2000)
        values = (counts[j] + s * grid.points[:, j]) / (sum(counts) + s)
        b = standard_idm_predictive_bounds(s, FrequencyVector(counts), j)
        assert values.min() == pytest.approx(b.lower, abs=2e-3)
        assert values.max() == pytest.approx(b.upper, abs=2e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(min_value=0.2, max_value=10.0),
        counts=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    def test_binary_conjugacy_of_bounds(self, s, counts):
        fv = FrequencyVector(counts)
        b0 = standard_idm_predictive_bounds(s, fv, 0)
        b1 = standard_idm_predictive_bounds(s, fv, 1)
        assert b0.lower + b1.upper == pytest.approx(1.0, abs=1e-12)
        assert b1.lower + b0.upper == pytest.approx(1.0, abs=1e-12)


class TestVacuousUpper:
    def test_balanced_pair(self):
        assert vacuous_prior_upper_predictive(FrequencyVector((1, 1))) == 0.25

    def test_single_outcome(self):
        assert vacuous_prior_upper_predictive(FrequencyVector((2, 0))) == 1.0

    def test_two_one(self):
        value = vacuous_prior_upper_predictive(FrequencyVector((2, 1)))
        assert value == pytest.approx(4.0 / 27.0, abs=1e-15)

    def test_matches_grid_maximization(self):
        grid = SimplexGrid(k=2, resolution=2000)
        mono = grid.points[:, 0] ** 2 * grid.points[:, 1]
        assert float(mono.max()) == pytest.approx(
            vacuous_prior_upper_predictive(FrequencyVector((2, 1))), abs=1e-4
        )

    def test_requires_data(self):
        with pytest.raises(ValueError):
            vacuous_prior_upper_predictive(FrequencyVector((0, 0)))


class TestPredictiveBoundsType:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            PredictiveBounds(lower=0.9, upper=0.1)

    def test_snaps_float_noise(self):
        b = PredictiveBounds(lower=-1e-13, upper=1.0 + 1e-13)
        assert b.lower == 0.0 and b.upper == 1.0


IDENTITY_DATA = ManifestDataset.from_rows(EmissionMatrix.identity(2), [0, 1])
PRIOR_2 = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
PRIOR_3 = DirichletParams(2.0, SimplexPoint([0.2, 0.3, 0.5]))
CHANNEL = BinaryChannel(0.1, 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FrequencyVector((3,)), "a frequency vector needs k >= 2 outcome counts"),
        (lambda: BoundaryLimit(0, 0.5), "boundary limits are t_j -> 0 or t_j -> 1"),
        (
            lambda: log_marginal_probability(PRIOR_2, FrequencyVector((1, 1, 1))),
            "frequency vector has k=3, prior has k=2",
        ),
        (
            lambda: standard_idm_predictive_bounds(0.0, FrequencyVector((1, 1)), 0),
            "s must be positive",
        ),
        (
            lambda: standard_idm_predictive_bounds(2.0, FrequencyVector((1, 1)), 2),
            "outcome index 2 out of range for k=2",
        ),
        (
            lambda: scaled_beta_posterior_mean(CHANNEL, 1, 2, 2.0, 1.0),
            "t1 must lie strictly in (0, 1)",
        ),
        (lambda: naive_reconstruction(CHANNEL, 1.5), "manifest_bound must lie in [0, 1], got 1.5"),
        (lambda: ManifestDataset((), k=1), "k must be >= 2"),
        (
            lambda: posterior_predictive_at_t(IDENTITY_DATA, PRIOR_3),
            "prior has k=3, dataset has k=2",
        ),
        (lambda: outcome_bounds(IDENTITY_DATA, 0.0, [0]), "s must be positive"),
        (
            lambda: outcome_bounds(IDENTITY_DATA, 2.0, [2]),
            "outcome indices [2] must lie in [0, 2)",
        ),
        (lambda: DeltaSet(coordinate_function(0, 2), 0.0), "delta must be positive"),
        (
            lambda: DeltaSet(coordinate_function(0, 2), 0.1, "middle"),
            "mode must be 'max-side' or 'min-side'",
        ),
        (
            lambda: fixed_strength_concentrating_sequence(SimplexPoint([1.0, 0.0]), 0.0),
            "s must be positive",
        ),
        (
            lambda: fixed_strength_concentrating_sequence(SimplexPoint([1.0, 0.0]), math.inf),
            "s must be positive and finite",
        ),
    ],
)
def test_library_argument_checks_name_the_bad_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
