import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentidm import manifest, observation, strata
from latentidm.errors import SizeCapError
from latentidm.idm import BoundaryLimit, FrequencyVector, standard_idm_predictive_bounds
from latentidm.manifest import BinaryChannel
from latentidm.observation import (
    EmissionMatrix,
    ManifestDataset,
    frequency_weights,
    outcome_bounds,
    posterior_predictive_at_t,
    predictive_bounds,
    vacuity_diagnosis,
)
from latentidm.simplex import DirichletParams, SimplexGrid, SimplexPoint
from latentidm.vacuity import dataset_likelihood
from latentidm.runner import Scenario, run_scenario
from oracles import (
    brute_frequency_weights,
    diagnosis_witnesses,
    dirichlet_log_density,
    exact_predictive,
    latent_likelihood,
    manifest_given_latent,
    predictive_oracle,
    random_interior_params,
)

CHANNEL = BinaryChannel(0.1, 0.1)
IDENTITY2 = EmissionMatrix.identity(2)


def random_emission(rng, rows, k, all_positive=True):
    raw = rng.uniform(0.05 if all_positive else 0.0, 1.0, size=(rows, k))
    if not all_positive:
        raw[rng.integers(0, rows), rng.integers(0, k)] = 0.0
    return EmissionMatrix(raw / raw.sum(axis=0, keepdims=True))


def random_dataset(rng, k, n, all_positive=True):
    obs = []
    for _ in range(n):
        emission = random_emission(rng, int(rng.integers(2, 4)), k, all_positive)
        obs.append((emission, int(rng.integers(0, emission.manifest_count))))
    return ManifestDataset(tuple(obs), k=k)


def tiny_entry_dataset(rng, k, n):
    """Entries that are zero, moderate or as small as 1e-300, in random places.

    Every row keeps one moderate entry, so the weights never underflow as a
    whole, while products of the tiny entries do.
    """
    obs = []
    for _ in range(n):
        rows = int(rng.integers(2, 4))
        choice = rng.integers(0, 3, size=(rows, k))
        raw = np.where(choice == 0, 0.0, 10.0 ** rng.uniform(-300.0, -100.0, size=(rows, k)))
        raw = np.where(choice == 2, rng.uniform(0.05, 1.0, size=(rows, k)), raw)
        raw[np.arange(rows), rng.integers(0, k, size=rows)] = rng.uniform(0.05, 1.0, size=rows)
        for j in np.flatnonzero(raw.sum(axis=0) == 0.0):
            raw[rng.integers(0, rows), j] = rng.uniform(0.05, 1.0)
        emission = EmissionMatrix(raw / raw.sum(axis=0, keepdims=True))
        obs.append((emission, int(rng.integers(0, rows))))
    return ManifestDataset(tuple(obs), k=k)


class TestEmissionMatrix:
    def test_channel_matrix_layout(self):
        em = CHANNEL.emission()
        assert em.entries[0, 0] == 0.9  # observe row 0 given outcome 0
        assert em.entries[0, 1] == 0.1
        assert em.manifest_count == 2 and em.k == 2

    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="column 1"):
            EmissionMatrix([[0.9, 0.3], [0.1, 0.6]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            EmissionMatrix([[1.2, 0.5], [-0.2, 0.5]])

    def test_rectangular_allowed(self):
        em = EmissionMatrix([[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]])
        assert em.manifest_count == 3

    def test_entries_are_a_read_only_copy(self):
        given = np.array([[0.9, 0.3], [0.1, 0.7]])
        for entries in (given, given.tolist()):
            em = EmissionMatrix(entries)
            assert not np.shares_memory(em.entries, given)
            assert not em.entries.flags.writeable
            assert np.array_equal(em.entries, given)
        given[0, 0] = 0.5
        assert em.entries[0, 0] == 0.9
        identity = EmissionMatrix.identity(3)
        assert np.array_equal(identity.entries, np.eye(3))
        assert not identity.entries.flags.writeable
        with pytest.raises(ValueError, match="k >= 2"):
            EmissionMatrix.identity(1)


class TestManifestDataset:
    def test_from_rows(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 1, 0])
        assert data.n == 3 and data.k == 2

    def test_rejects_bad_row(self):
        with pytest.raises(ValueError):
            ManifestDataset.from_rows(IDENTITY2, [0, 2])

    def test_rejects_k_mismatch(self):
        em3 = EmissionMatrix.identity(3)
        with pytest.raises(ValueError):
            ManifestDataset(((IDENTITY2, 0), (em3, 0)), k=2)

    def test_empty_dataset(self):
        data = ManifestDataset((), k=2)
        assert data.n == 0

    def test_rejects_impossible_observation(self):
        # row 1 is emitted under no hidden outcome: it may exist, not be observed
        emission = EmissionMatrix([[0.5, 1.0], [0.0, 0.0], [0.5, 0.0]])
        ManifestDataset.from_rows(emission, [0, 2])
        with pytest.raises(ValueError, match="observation 1: row 1"):
            ManifestDataset.from_rows(emission, [0, 1])

    def test_names_the_first_failing_observation(self):
        # observation 2 is impossible and observation 5 has the wrong k: the zero row is
        # named, as if each observation were checked in turn
        emission = EmissionMatrix([[0.5, 1.0], [0.0, 0.0], [0.5, 0.0]])
        obs = [(emission, row) for row in (0, 2, 1, 0, 2)] + [(EmissionMatrix.identity(3), 0)]
        zero_row = "^observation 2: row 1 has probability zero under every hidden outcome$"
        with pytest.raises(ValueError, match=zero_row):
            ManifestDataset(tuple(obs), k=2)
        # a bad row before the zero row is named instead
        obs[1] = (emission, 3)
        with pytest.raises(ValueError, match="^observation 1: row 3 out of range$"):
            ManifestDataset(tuple(obs), k=2)

    def test_one_shot_pairs_build_the_same_dataset(self):
        # the pairs are read once: a generator gives what a tuple gives, errors included
        emission = EmissionMatrix([[0.5, 1.0], [0.0, 0.0], [0.5, 0.0]])
        pairs = [(emission, 2), (IDENTITY2, 1), (emission, 0)]
        built = ManifestDataset(iter(pairs), k=2)
        data = ManifestDataset(tuple(pairs), k=2)
        assert np.array_equal(built.row_entries, data.row_entries) and built.n == data.n == 3
        for bad, message in [
            ((EmissionMatrix.identity(3), 0), "^observation 1: emission has k=3, expected 2$"),
            ((emission, 3), "^observation 1: row 3 out of range$"),
            ((emission, 1), "^observation 1: row 1 has probability zero under every hidden outcome$"),
        ]:
            bad_pairs = [pairs[0], bad, pairs[2]]
            for observations in (tuple(bad_pairs), (pair for pair in bad_pairs)):
                with pytest.raises(ValueError, match=message):
                    ManifestDataset(observations, k=2)

    def test_row_entries_stack_the_observed_rows(self):
        emission = EmissionMatrix([[0.5, 1.0], [0.0, 0.0], [0.5, 0.0]])
        data = ManifestDataset(((emission, 2), (IDENTITY2, 1), (emission, 0)), k=2)
        assert data.row_entries.tolist() == [[0.5, 0.0], [0.0, 1.0], [0.5, 1.0]]
        assert not data.row_entries.flags.writeable
        assert ManifestDataset((), k=3).row_entries.shape == (0, 3)

    def test_matrices_made_on_the_fly_keep_their_own_rows(self):
        # a generator that makes each matrix and drops it leaves its address free for the
        # next one: every observation still reads its own matrix's row
        columns = [[0.1 * (i + 1), 1.0 - 0.1 * (i + 1)] for i in range(8)]
        data = ManifestDataset(
            ((EmissionMatrix(np.array([c, c[::-1]]).T), 0) for c in columns), k=2
        )
        assert data.row_entries.tolist() == [[c[0], c[1]] for c in columns]


class TestManifestGivenLatent:
    def test_identity_exact_match(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 1, 0])
        assert manifest_given_latent(data, [0, 1, 0]) == 1.0

    def test_identity_mismatch_is_zero(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 1])
        assert manifest_given_latent(data, [0, 0]) == 0.0

    def test_channel_two_observations(self):
        # observations (+, -) with both hidden outcomes = 0: 0.9 * 0.1
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 1])
        assert manifest_given_latent(data, [0, 0]) == pytest.approx(0.09, abs=1e-15)

    def test_length_check(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0])
        with pytest.raises(ValueError):
            manifest_given_latent(data, [0, 1])


class TestLatentLikelihood:
    def test_channel_single_positive(self):
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0])
        # 0.9 * theta + 0.1 * (1 - theta) at theta = 0.5
        assert latent_likelihood(data, SimplexPoint([0.5, 0.5])) == pytest.approx(0.5)

    def test_identity_reduces_to_multinomial(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 0, 1])
        theta = SimplexPoint([0.3, 0.7])
        assert latent_likelihood(data, theta) == pytest.approx(0.3**2 * 0.7, abs=1e-15)

    def test_all_positive_emissions_give_positive_likelihood(self):
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 1, 0, 0])
        grid = np.linspace(0.0, 1.0, 50)
        values = latent_likelihood(data, np.column_stack([grid, 1.0 - grid]))
        assert np.all(values > 0.0)

    def test_matrix_input_matches_scalar(self):
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 1])
        pts = np.array([[0.2, 0.8], [0.6, 0.4]])
        values = latent_likelihood(data, pts)
        for row, expected in zip(pts, values):
            assert latent_likelihood(data, row) == pytest.approx(expected, abs=1e-15)

    def test_equals_assignment_sum(self):
        # factorized form against the explicit sum over hidden assignments
        rng = np.random.default_rng(3)
        for k in (2, 3):
            for _ in range(10):
                data = random_dataset(rng, k, int(rng.integers(1, 6)))
                theta = rng.dirichlet(np.ones(k))
                direct = latent_likelihood(data, theta)
                import itertools

                total = sum(
                    manifest_given_latent(data, x) * np.prod(theta ** np.bincount(x, minlength=k))
                    for x in itertools.product(range(k), repeat=data.n)
                )
                assert direct == pytest.approx(total, rel=1e-12, abs=0.0)


class TestFrequencyWeights:
    def test_identity_concentrates(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 0, 1])
        weights = frequency_weights(data)
        assert weights == {FrequencyVector((2, 1)): 1.0}

    def test_channel_two_positives(self):
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 0])
        weights = frequency_weights(data)
        assert weights[FrequencyVector((2, 0))] == pytest.approx(0.81, abs=1e-15)
        assert weights[FrequencyVector((1, 1))] == pytest.approx(0.18, abs=1e-15)
        assert weights[FrequencyVector((0, 2))] == pytest.approx(0.01, abs=1e-15)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            data = random_dataset(rng, 2, int(rng.integers(1, 9)))
            dp = {fv.counts: w for fv, w in frequency_weights(data).items()}
            brute = brute_frequency_weights(data)
            assert set(dp) == set(brute)
            for key, w in brute.items():
                assert dp[key] == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_weights_sum_to_assignment_total(self):
        # factorized likelihood equals sum_a W(a) * prod theta^a
        rng = np.random.default_rng(19)
        for trial in range(20):
            k = 2 if trial % 2 == 0 else 3
            data = random_dataset(rng, k, int(rng.integers(1, 7)))
            theta = rng.dirichlet(np.ones(k))
            weights = frequency_weights(data)
            via_weights = sum(
                w * np.prod(theta ** np.asarray(fv.counts)) for fv, w in weights.items()
            )
            assert via_weights == pytest.approx(latent_likelihood(data, theta), rel=1e-12, abs=0.0)

    def test_size_cap(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0] * 2895)
        with pytest.raises(SizeCapError):
            frequency_weights(data)

    def test_index_cap_refuses_before_building(self):
        # k = 6, n = 40 would take 9,366,818 state updates over 1,221,759 states
        data = ManifestDataset.from_rows(EmissionMatrix(np.full((2, 6), 0.5)), [0, 1] * 20)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="k=6, n=40 needs 9,366,818 updates"):
                dataset_likelihood(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_index_cap_admits_predict_and_long_channel_shapes(self, monkeypatch):
        # every k <= 4 pass of up to 20 observations, and k = 2 passes of up to 2,894 by state
        # updates; 2,895 are refused before anything is built
        cap = observation.MAX_WORK
        assert math.comb(20 + 4, 4) - 1 <= cap and 4 * math.comb(20 + 3, 3) <= cap
        assert math.comb(2894 + 2, 2) - 1 <= cap < math.comb(2895 + 2, 2) - 1
        assert len(observation._state_index.__wrapped__(2, 2894)[2]) == 2895
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="k=2, n=2895 needs 4,194,855 updates"):
                observation._state_index.__wrapped__(2, 2895)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        # the cap admits exactly MAX_WORK updates (k = 2, n = 6: C(8, 2) - 1 = 27) and exactly
        # MAX_WORK cells (k = 9, n = 1: 9 * C(9, 8) = 81), uncached calls
        monkeypatch.setattr(observation, "MAX_WORK", 27)
        assert len(observation._state_index.__wrapped__(2, 6)[2]) == 7
        with pytest.raises(SizeCapError, match="k=2, n=7 needs 35 updates and 16 cells"):
            observation._state_index.__wrapped__(2, 7)
        monkeypatch.setattr(observation, "MAX_WORK", 81)
        assert len(observation._state_index.__wrapped__(9, 1)[2]) == 9
        with pytest.raises(SizeCapError, match="k=10, n=1 needs 10 updates and 100 cells"):
            observation._state_index.__wrapped__(10, 1)

    def test_empty_dataset(self):
        weights = frequency_weights(ManifestDataset((), k=2))
        assert weights == {FrequencyVector((0, 0)): 1.0}


class TestPosteriorPredictiveAtT:
    def test_identity_single_term(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 0, 1])
        prior = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        assert posterior_predictive_at_t(data, prior)[0] == pytest.approx(0.6, abs=1e-14)

    def test_empty_data_gives_prior_mean(self):
        data = ManifestDataset((), k=2)
        prior = DirichletParams(3.0, SimplexPoint([0.3, 0.7]))
        assert posterior_predictive_at_t(data, prior) == pytest.approx((0.3, 0.7), abs=1e-14)

    def test_channel_matches_integration_oracle(self):
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 0])
        prior = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        grid = SimplexGrid(k=2, resolution=2000)
        dens = np.exp(np.array([dirichlet_log_density(prior, p) for p in grid.points]))
        like = latent_likelihood(data, grid.points)
        oracle = float((grid.points[:, 0] * like * dens).sum() / (like * dens).sum())
        assert posterior_predictive_at_t(data, prior)[0] == pytest.approx(oracle, abs=1e-3)

    def test_subnormal_weights_match_exact_value(self):
        # every product of three entries is below the smallest normal float, so float
        # weights lose their ratios; the log-space pass keeps them
        emission = EmissionMatrix([[1e-108, 2e-108], [1 - 1e-108, 1 - 2e-108]])
        data = ManifestDataset.from_rows(emission, [0, 0, 0])
        expected = exact_predictive(data, 2.0, (0.5, 0.5))
        at_t = posterior_predictive_at_t(data, DirichletParams(2.0, SimplexPoint([0.5, 0.5])))
        assert at_t == pytest.approx([float(x) for x in expected], rel=1e-12, abs=0.0)

    def test_coherence_across_outcomes(self):
        rng = np.random.default_rng(31)
        for k in (2, 3):
            for _ in range(10):
                data = random_dataset(rng, k, int(rng.integers(0, 6)))
                prior = random_interior_params(rng, k, nonneg_exponents=False)
                values = posterior_predictive_at_t(data, prior)
                assert len(values) == k
                total = sum(values)
                assert total == pytest.approx(1.0, abs=1e-12)


class TestPredictiveBounds:
    def test_all_positive_emissions_fully_vacuous(self):
        for rows in ([0], [0, 1], [0, 0, 1], [1, 1, 0, 0, 1], [0] * 6):
            data = ManifestDataset.from_rows(CHANNEL.emission(), rows)
            b = predictive_bounds(data, 2.0, 0)
            assert b.lower <= 1e-3 and b.upper >= 1.0 - 1e-3
            assert b.argmin_t == BoundaryLimit(0, 0.0)
            assert b.argmax_t == BoundaryLimit(0, 1.0)

    def test_vacuity_persists_for_tiny_imperfection(self):
        for eps in (0.2, 0.05, 0.01, 0.001):
            channel = BinaryChannel(eps, eps)
            data = ManifestDataset.from_rows(channel.emission(), [0, 0, 1])
            b = predictive_bounds(data, 2.0, 0)
            assert b.lower <= 1e-3 and b.upper >= 1.0 - 1e-3

    def test_identity_reduces_to_standard_bounds(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 0, 1])
        b = predictive_bounds(data, 2.0, 0)
        std = standard_idm_predictive_bounds(2.0, FrequencyVector((2, 1)), 0)
        assert b.lower == pytest.approx(std.lower, abs=2e-3)
        assert b.upper == pytest.approx(std.upper, abs=2e-3)

    def test_one_outcome_identity_dataset(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0, 0, 0])
        b = predictive_bounds(data, 2.0, 0)
        assert b.lower == pytest.approx(0.6, abs=2e-3)
        assert b.upper == 1.0
        assert b.argmax_t == BoundaryLimit(0, 1.0)

    def test_partial_zero_upper_margin(self):
        # one emission zero in column 0, that row observed: the convex
        # combination argument caps the upper bound at (n-1+s)/(n+s)
        emission = EmissionMatrix([[0.0, 0.4], [1.0, 0.6]])
        data = ManifestDataset(
            ((emission, 0), (CHANNEL.emission(), 0), (CHANNEL.emission(), 1)), k=2
        )
        s = 2.0
        b = predictive_bounds(data, s, 0)
        n = data.n
        assert b.upper < 1.0 - 1e-6
        assert b.upper <= (n - 1 + s) / (n + s) + 1e-12

    def test_statement3_floor(self):
        # an observation certifying outcome 0 keeps the lower bound >= 1/(n+s)
        certifying = EmissionMatrix([[1.0, 0.0], [0.0, 1.0]])
        data = ManifestDataset(
            ((certifying, 0), (CHANNEL.emission(), 1)), k=2
        )
        s = 2.0
        b = predictive_bounds(data, s, 0)
        assert b.lower >= 1.0 / (data.n + s) - 1e-6
        assert b.lower > 1e-6

    def test_size_cap_propagates(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0] * 2895)
        with pytest.raises(SizeCapError):
            predictive_bounds(data, 2.0, 0)

    def test_k_cap_holds_when_both_limits_settle(self):
        emission = EmissionMatrix(np.full((5, 5), 0.2))
        data = ManifestDataset.from_rows(emission, [0, 1])
        assert all(d.vacuous for d in vacuity_diagnosis(data))
        with pytest.raises(SizeCapError, match="k <= 4"):
            predictive_bounds(data, 2.0, 0)

    def test_underflowed_weights_keep_vacuous_limits(self):
        # the all-x_j weight or every a_j = 0 weight underflows to 0.0, yet no
        # observed entry is zero, so both outcomes stay exactly (0, 1)
        cases = ((BinaryChannel(1e-17, 1e-17), [1] * 20), (BinaryChannel(1e-200, 1e-200), [0, 0]))
        for channel, rows in cases:
            data = ManifestDataset.from_rows(channel.emission(), rows)
            for j in range(2):
                b = predictive_bounds(data, 2.0, j)
                assert (b.lower, b.upper) == (0.0, 1.0)
                assert b.argmin_t == BoundaryLimit(j, 0.0)
                assert b.argmax_t == BoundaryLimit(j, 1.0)

    def test_fully_underflowed_weights_are_degenerate(self):
        # row 0 certifies outcome 0, but 1e-200 squared underflows: no float weight is
        # left, yet the log-space pass keeps the support {(2, 0)} and its weight, so
        # both open sides attain their envelopes and the fixed-prior value is exact
        emission = EmissionMatrix([[1e-200, 0.0], [1.0, 1.0]])
        data = ManifestDataset.from_rows(emission, [0, 0])
        assert frequency_weights(data) == {}
        assert predictive_bounds(data, 2.0, 0) == standard_idm_predictive_bounds(
            2.0, FrequencyVector((2, 0)), 0
        )
        at_t = posterior_predictive_at_t(data, DirichletParams(2.0, SimplexPoint([0.5, 0.5])))
        assert at_t == (0.75, 0.25)


def count_calls(monkeypatch, names, module=observation, counts=None):
    """Count the calls of each named global of `module` into `counts`; returns the live counts."""
    counts = {} if counts is None else counts
    counts.update(dict.fromkeys(names, 0))
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


class TestSearchSkipping:
    """The zero pattern settles limits and envelopes; only the rest pay for weights and a search."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = count_calls(monkeypatch, ["likelihood_terms", "frequency_weights"])
        return count_calls(monkeypatch, ["search"], strata, counts)

    def test_all_positive_dataset_does_no_search(self, calls):
        # n = 30 is past the weight pass's cap, which only open sides reach
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 1, 1] * 10)
        for j in range(2):
            b = predictive_bounds(data, 2.0, j)
            assert (b.lower, b.upper) == (0.0, 1.0)
        assert calls == dict.fromkeys(calls, 0)

    def test_one_open_side_refines_only_that_side(self, calls, monkeypatch):
        # outcome 0 of a channel with one zero: its upper is open and below its envelope
        searched = []
        original = strata.search

        def recorded(counts, log_w, s, sides):
            searched.append(sides)
            return original(counts, log_w, s, sides)

        monkeypatch.setattr(strata, "search", recorded)
        emission = EmissionMatrix([[0.0, 0.4], [1.0, 0.6]])
        data = ManifestDataset.from_rows(emission, [0, 1, 1])
        b = predictive_bounds(data, 2.0, 0)
        assert b.argmin_t == BoundaryLimit(0, 0.0) and b.lower == 0.0
        assert 0.0 < b.upper < (2 + 2.0) / (3 + 2.0)
        assert searched == [[(0, True)]]
        assert calls == {"likelihood_terms": 1, "frequency_weights": 0, "search": 1}

    def test_two_open_sides_refine_both(self, calls):
        # an identity channel attains every envelope: exact, from the zero patterns alone,
        # so no weight pass runs
        data = ManifestDataset.from_rows(IDENTITY2, [0, 1])
        for j, b in enumerate(outcome_bounds(data, 2.0, range(2))):
            assert b == standard_idm_predictive_bounds(2.0, FrequencyVector((1, 1)), j)
        assert calls == {"likelihood_terms": 0, "frequency_weights": 0, "search": 0}

    def test_cyclic_zero_document_runs_no_weight_pass(self, calls):
        # k = 4, n = 40, two nonzeros per column in a cyclic pattern, no hyper.t: no row
        # certifies an outcome, and each upper's rows that exclude j have the one minimum
        # hitting set {j + 2}, which no row allowing j meets, so every upper is
        # (20 + 2) / (40 + 2) = 11/21 and no weights are computed
        emission = [
            [0.6, 0.0, 0.0, 0.4],
            [0.4, 0.6, 0.0, 0.0],
            [0.0, 0.4, 0.6, 0.0],
            [0.0, 0.0, 0.4, 0.6],
        ]
        doc = {
            "name": "cyclic-zeros",
            "kind": "predict",
            "k": 4,
            "model": {"emission": emission},
            "observations": [0, 1, 2, 3] * 10,
            "hyper": {"s": 2.0},
        }
        bounds = run_scenario(Scenario.from_dict(doc))["results"]["bounds"]
        assert [(b["lower"], b["upper"]) for b in bounds] == [(0.0, 11 / 21)] * 4
        assert [b["argmax_t"] for b in bounds] == [
            {"limit": {"coordinate": j, "value": 1.0}} for j in range(4)
        ]
        assert calls == {"likelihood_terms": 0, "frequency_weights": 0, "search": 0}


def structural_zero_dataset(rng, k, n):
    """Two nonzero entries per column in a cyclic pattern, so sides open."""
    mask = np.eye(k) + np.roll(np.eye(k), 1, axis=0)
    raw = rng.uniform(0.05, 1.0, size=(k, k)) * mask
    emission = EmissionMatrix(raw / raw.sum(axis=0))
    return ManifestDataset.from_rows(emission, rng.integers(0, k, size=n).tolist())


class TestSharedOutcomes:
    """Every outcome of a dataset comes from one read of its zero patterns and one weight pass."""

    def test_dataset_bounds_equal_single_outcome_bounds(self):
        rng = np.random.default_rng(53)
        for trial in range(12):
            k = 2 + trial % 3
            data = structural_zero_dataset(rng, k, int(rng.integers(1, 7)))
            outcomes = list(range(k)) + [0]
            together = outcome_bounds(data, 2.0, outcomes)
            assert together == tuple(predictive_bounds(data, 2.0, j) for j in outcomes)

    def test_predict_run_computes_each_shared_step_once(self, monkeypatch):
        names = ["frequency_weights", "likelihood_terms", "vacuity_diagnosis"]
        counts = count_calls(monkeypatch, names)
        doc = {
            "name": "k4-open",
            "kind": "predict",
            "k": 4,
            "model": {"emission": "identity"},
            "observations": [0, 1],
            "hyper": {"s": 2.0, "t": [0.1, 0.2, 0.3, 0.4]},
        }
        report = run_scenario(Scenario.from_dict(doc))
        bounds = report["results"]["bounds"]
        assert all(b["argmax_t"] == {"limit": {"coordinate": b["outcome"], "value": 1.0}} for b in bounds)
        # the zero patterns open every side, with no diagnosis, and every side attains its
        # envelope from them; at_t runs the one weight pass
        assert counts == {"frequency_weights": 0, "likelihood_terms": 1, "vacuity_diagnosis": 0}

    def test_searched_predict_run_shares_its_weight_pass(self, monkeypatch):
        # outcome 0's upper misses its envelope, so the search and at_t both need weights
        counts = count_calls(monkeypatch, ["frequency_weights", "likelihood_terms"])
        count_calls(monkeypatch, ["search"], strata, counts)
        doc = {
            "name": "searched",
            "kind": "predict",
            "model": {"emission": [[0.0, 0.4], [1.0, 0.6]]},
            "observations": [0, 1, 1],
            "hyper": {"s": 2.0, "t": [0.3, 0.7]},
        }
        run_scenario(Scenario.from_dict(doc))
        assert counts == {"frequency_weights": 0, "likelihood_terms": 1, "search": 1}

    def test_frequency_weights_read_the_cached_pass(self, monkeypatch):
        counts = count_calls(monkeypatch, ["likelihood_terms"])
        data = structural_zero_dataset(np.random.default_rng(8), 3, 5)
        counts_w, log_w = data.weight_pass
        weights = frequency_weights(data)
        assert counts == {"likelihood_terms": 1}
        assert {fv.counts for fv in weights} == {tuple(a) for a in counts_w.tolist()}
        assert list(weights.values()) == [math.exp(w) for w in log_w.tolist()]

    def test_scaled_beta_mean_makes_one_weight_pass(self, monkeypatch):
        counts = count_calls(monkeypatch, ["frequency_weights", "likelihood_terms"])
        manifest.scaled_beta_posterior_mean(CHANNEL, 2, 3, 2.0, 0.3)
        assert counts == {"frequency_weights": 0, "likelihood_terms": 1}

    def test_bounds_weights_and_diagnosis_read_one_row_table(self, monkeypatch):
        # the zero patterns, the weight pass and the witnesses all read the table the dataset
        # builds on first use, so its rows are scanned once
        table = ManifestDataset.__dict__["observed_rows"]
        builds = []

        def build(data, _build=table.func):
            builds.append(data)
            return _build(data)

        monkeypatch.setattr(table, "func", build)
        data = structural_zero_dataset(np.random.default_rng(3), 3, 6)
        outcome_bounds(data, 2.0, range(3))
        posterior_predictive_at_t(data, DirichletParams(2.0, SimplexPoint([0.2, 0.3, 0.5])))
        vacuity_diagnosis(data)
        assert len(builds) == 1 and builds[0] is data


class TestPredictiveKernel:
    """The fixed-prior value against an exact oracle, up to the clamped boundary."""

    @pytest.mark.parametrize("k, resolution", [(2, 12), (3, 6), (4, 4)])
    def test_matches_exact_oracle(self, k, resolution):
        rng = np.random.default_rng(60 + k)
        # the lattice reaches the 1e-9-clamped boundary of the simplex
        points = SimplexGrid(k=k, resolution=resolution).points
        for _ in range(4):
            data = structural_zero_dataset(rng, k, int(rng.integers(1, 7)))
            s = float(rng.uniform(0.5, 5.0))
            for t in points:
                at_t = posterior_predictive_at_t(data, DirichletParams(s, SimplexPoint(t)))
                assert at_t == pytest.approx(predictive_oracle(data, s, t), rel=1e-12, abs=0.0)


ENTRIES = st.sampled_from([0.0, 0.0, 1e-300, 1e-200, 1e-150, 0.05, 0.3, 1.0])


@st.composite
def shared_and_own_matrices(draw) -> ManifestDataset:
    """k in 2..6, n <= 12 observations, each of one of 1-3 matrices of 1-4 rows of zeros and
    entries down to 1e-300: rows repeat, and observations differ in their matrices."""
    k = draw(st.integers(2, 6))
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(1, 4))
        raw = np.array(draw(st.lists(ENTRIES, min_size=rows * k, max_size=rows * k)))
        raw = raw.reshape(rows, k)
        raw[0, raw.sum(axis=0) == 0.0] = 1.0
        matrices.append((EmissionMatrix(raw / raw.sum(axis=0)), np.flatnonzero(raw.sum(axis=1))))
    observations = []
    for _ in range(draw(st.integers(0, 12))):
        emission, observable = draw(st.sampled_from(matrices))
        observations.append((emission, int(draw(st.sampled_from(observable.tolist())))))
    return ManifestDataset(observations, k=k)


class TestVacuityDiagnosis:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=shared_and_own_matrices())
    # two distinct rows certify outcome 0, observed in turn: its lower witnesses interleave
    @example(data=ManifestDataset.from_rows(EmissionMatrix([[0.3, 0], [0.7, 0], [0, 1]]), [0, 1, 0]))
    def test_row_table_matches_the_per_row_oracles(self, data):
        diagnosis = vacuity_diagnosis(data)
        assert [d.outcome for d in diagnosis] == list(range(data.k))
        found = [(d.upper_witnesses, d.lower_witnesses) for d in diagnosis]
        assert found == diagnosis_witnesses(data)
        assert all(type(i) is int for pair in found for witnesses in pair for i in witnesses)
        per_row = Counter(
            sum(1 << j for j in range(data.k) if row[j] != 0.0) for row in data.row_entries.tolist()
        )
        assert observation._zero_patterns(data) == per_row

    def test_row_table_matches_the_per_row_oracle_at_k_1000(self):
        # diagnose's cap: 300 identity observations, some rows repeated and most unobserved
        observed = np.random.default_rng(5).integers(0, 1000, size=300).tolist()
        data = ManifestDataset.from_rows(EmissionMatrix.identity(1000), observed)
        found = [(d.upper_witnesses, d.lower_witnesses) for d in vacuity_diagnosis(data)]
        assert found == diagnosis_witnesses(data)

    def test_channel_fully_vacuous(self):
        data = ManifestDataset.from_rows(CHANNEL.emission(), [0, 1, 0])
        diagnosis = vacuity_diagnosis(data)
        assert all(d.vacuous for d in diagnosis)
        for d in diagnosis:
            assert not d.upper_witnesses and not d.lower_witnesses

    def test_identity_observation_flags(self):
        data = ManifestDataset.from_rows(IDENTITY2, [0])
        diagnosis = vacuity_diagnosis(data)
        assert diagnosis[0].lower_strictly_above_zero
        assert diagnosis[0].lower_witnesses == (0,)
        assert not diagnosis[0].upper_strictly_below_one
        assert diagnosis[1].upper_strictly_below_one
        assert diagnosis[1].upper_witnesses == (0,)
        assert not diagnosis[1].lower_strictly_above_zero

    def test_shared_row_mass_unsets_lower_flag(self):
        # column 0 puts all its mass on row 0, but row 0 also serves column 1:
        # observing row 0 cannot certify outcome 0, and excludes nothing
        emission = EmissionMatrix([[1.0, 0.5], [0.0, 0.5]])
        data = ManifestDataset.from_rows(emission, [0])
        diagnosis = vacuity_diagnosis(data)
        assert not diagnosis[0].lower_strictly_above_zero
        assert not diagnosis[0].upper_strictly_below_one
        assert not diagnosis[1].upper_strictly_below_one
        assert not diagnosis[1].lower_strictly_above_zero
        # the unobserved row 1 would have excluded outcome 0
        other = ManifestDataset.from_rows(emission, [1])
        assert vacuity_diagnosis(other)[0].upper_strictly_below_one

    def test_witnesses_match_the_per_row_rule(self):
        # zero, tiny and moderate entries, every observation with its own matrix
        rng = np.random.default_rng(53)
        for trial in range(80):
            k = 2 + trial % 3
            data = tiny_entry_dataset(rng, k, int(rng.integers(0, 9)))
            diagnosis = vacuity_diagnosis(data)
            found = [(d.upper_witnesses, d.lower_witnesses) for d in diagnosis]
            assert found == diagnosis_witnesses(data)
            assert all(type(i) is int for pair in found for witnesses in pair for i in witnesses)

    def test_flags_agree_with_grid_bounds(self):
        # threshold 1e-6 agreement between the combinatorial flags and the
        # numeric bounds, k=2, n <= 6
        rng = np.random.default_rng(41)
        for trial in range(12):
            data = random_dataset(rng, 2, int(rng.integers(1, 7)), all_positive=(trial % 2 == 0))
            diagnosis = vacuity_diagnosis(data)
            for j in range(2):
                b = predictive_bounds(data, 2.0, j)
                assert (b.upper < 1.0 - 1e-6) == diagnosis[j].upper_strictly_below_one
                assert (b.lower > 1e-6) == diagnosis[j].lower_strictly_above_zero

    def test_limit_sources_match_flags_for_tiny_entries(self):
        # exact agreement for entries down to 1e-300: a side is a BoundaryLimit
        # (exactly 0 or 1) iff the diagnosis has no witness for it
        rng = np.random.default_rng(43)
        for trial in range(60):
            k = 2 + trial % 2
            data = tiny_entry_dataset(rng, k, int(rng.integers(1, 7)))
            diagnosis = vacuity_diagnosis(data)
            for j in range(k):
                b = predictive_bounds(data, 2.0, j)
                lower_open = diagnosis[j].lower_strictly_above_zero
                upper_open = diagnosis[j].upper_strictly_below_one
                # an open side may be a boundary limit too, when it attains its envelope
                if not lower_open:
                    assert b.argmin_t == BoundaryLimit(j, 0.0)
                if not upper_open:
                    assert b.argmax_t == BoundaryLimit(j, 1.0)
                assert (b.lower > 0.0) == lower_open
                assert (b.upper < 1.0) == upper_open
