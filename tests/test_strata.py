"""Exact predictive bounds: the support, the boundary strata, the envelope and the search.

The search is checked from both sides: against the numpy multistart oracle
(no reported side may lie inside what the oracle attains), and along its own
reported extremizer (the reported value must be approached there, so it
cannot overshoot).
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm import (
    BinaryChannel,
    BoundaryLimit,
    EmissionMatrix,
    FrequencyVector,
    ManifestDataset,
    SimplexPoint,
    SizeCapError,
    frequency_weights,
    outcome_bounds,
    standard_idm_predictive_bounds,
)
from latentidm import observation, strata
from latentidm.idm import BoundaryStratum
from latentidm.observation import likelihood_terms
from oracles import (
    brute_frequency_weights,
    dict_log_weights,
    envelope_limit,
    lexicographic_likelihood_terms,
    predictive_at_log_t,
    predictive_extremes,
)


def channel_with_zeros(seed: int, k: int, n: int) -> ManifestDataset:
    """2-4 manifest rows, ~40% structural zeros, every column and observed row nonzero."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 5))
    raw = rng.uniform(0.05, 1.0, size=(rows, k)) * (rng.uniform(size=(rows, k)) < 0.6)
    for j in np.flatnonzero(raw.sum(axis=0) == 0.0):
        raw[rng.integers(rows), j] = 0.5
    observable = np.flatnonzero(raw.sum(axis=1) > 0.0)
    emission = EmissionMatrix(raw / raw.sum(axis=0))
    return ManifestDataset.from_rows(emission, rng.choice(observable, size=n).tolist())


def value_along(data: ManifestDataset, s: float, where, eps: float) -> np.ndarray:
    """Predictive of every outcome at the prior mean a descriptor names, eps along its curve."""
    weights = brute_frequency_weights(data)
    counts = np.array(list(weights))
    log_w = np.log(np.array(list(weights.values())))
    if isinstance(where, SimplexPoint):
        log_t = np.log(where.coords)
    else:
        log_t = np.full(data.k, -np.inf)
        for h, rate, c in zip(where.vanishing, where.rates, where.multipliers):
            log_t[h] = np.log(c) + rate * np.log(eps)
        rest = np.log1p(-np.exp(np.logaddexp.reduce(log_t[list(where.vanishing)])))
        free = [h for h in range(data.k) if h not in where.vanishing]
        log_t[free] = np.log(where.limit.coords[free]) + rest
    return predictive_at_log_t(counts, log_w, s, log_t[None, :])[0]


def support_of(data: ManifestDataset) -> list[tuple[int, ...]]:
    counts, _ = data.weight_pass
    return [tuple(a) for a in counts.tolist()]


class TestFrequencySupport:
    """The support of the log-space weight pass is exact and sorted."""

    def test_equals_weight_keys_without_underflow(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            k = 2 + trial % 3
            data = channel_with_zeros(int(rng.integers(2**31)), k, int(rng.integers(0, 8)))
            assert support_of(data) == sorted(fv.counts for fv in frequency_weights(data))

    def test_keeps_the_full_support_of_a_1e_200_channel(self):
        data = ManifestDataset.from_rows(BinaryChannel(1e-200, 1e-200).emission(), [0, 0])
        assert {fv.counts for fv in frequency_weights(data)} == {(2, 0), (1, 1)}
        assert support_of(data) == [(0, 2), (1, 1), (2, 0)]

    def test_matches_log_space_weights(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            data = channel_with_zeros(int(rng.integers(2**31)), 3, int(rng.integers(1, 7)))
            counts, log_w = data.weight_pass
            brute = brute_frequency_weights(data)
            assert [tuple(a) for a in counts.tolist()] == sorted(brute)
            assert np.allclose(log_w, [np.log(brute[tuple(a)]) for a in counts.tolist()], rtol=1e-12)

    def test_size_caps(self):
        with pytest.raises(SizeCapError, match="n <= 20"):
            ManifestDataset.from_rows(EmissionMatrix.identity(2), [0] * 21).weight_pass
        with pytest.raises(SizeCapError, match="k <= 4"):
            ManifestDataset.from_rows(EmissionMatrix.identity(5), [0]).weight_pass


# zeros, entries at or below 1e-150 whose products underflow, and moderate entries
ENTRIES = st.sampled_from([0.0, 0.0, 1e-300, 1e-200, 1e-150, 0.05, 0.3, 1.0])


@st.composite
def tiny_channels(draw, min_n: int = 0, max_n: int = 8) -> ManifestDataset:
    """k in {2, 3, 4}, min_n <= n <= max_n, 2-4 rows of structural zeros and tiny entries."""
    k = draw(st.integers(2, 4))
    rows = draw(st.integers(2, 4))
    raw = np.array(draw(st.lists(ENTRIES, min_size=rows * k, max_size=rows * k))).reshape(rows, k)
    raw[0, raw.sum(axis=0) == 0.0] = 1.0
    observable = np.flatnonzero(raw.sum(axis=1) > 0.0).tolist()
    observed = draw(st.lists(st.sampled_from(observable), min_size=min_n, max_size=max_n))
    return ManifestDataset.from_rows(EmissionMatrix(raw / raw.sum(axis=0)), observed)


def workload_shaped(zeros: bool, seed: int = 0) -> ManifestDataset:
    """k=4, n=20, each row observed 5 times: all-positive, or two cyclic nonzeros per column."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(4, 4))
    if zeros:
        raw *= np.eye(4) + np.roll(np.eye(4), 1, axis=0)
    emission = EmissionMatrix(raw / raw.sum(axis=0))
    return ManifestDataset.from_rows(emission, rng.permutation(np.repeat(np.arange(4), 5)).tolist())


def assert_matches_dict_pass(data: ManifestDataset) -> np.ndarray:
    """Same int64 counts in the same order as the dict pass, log W within 1e-12; returns the counts."""
    counts, log_w = data.weight_pass
    oracle_counts, oracle_log_w = dict_log_weights(data)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, oracle_counts)
    np.testing.assert_allclose(log_w, oracle_log_w, rtol=1e-12, atol=1e-13)
    return counts


class TestVectorisedWeightPass:
    """The vectorised pass against the plain-Python dict pass and the lexicographic pass."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=tiny_channels())
    def test_matches_the_dict_pass(self, data):
        assert_matches_dict_pass(data)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.integers(0, 20).flatmap(lambda n: tiny_channels(min_n=n, max_n=n)))
    def test_bit_identical_to_the_lexicographic_pass(self, data):
        counts, log_w = likelihood_terms(data)
        oracle_counts, oracle_log_w = lexicographic_likelihood_terms(data)
        assert counts.dtype == oracle_counts.dtype == np.int64
        assert np.array_equal(counts, oracle_counts)
        assert np.array_equal(log_w, oracle_log_w)

    def test_index_is_built_once_per_shape(self):
        observation._state_index.cache_clear()
        counts, _ = workload_shaped(zeros=False).weight_pass
        workload_shaped(zeros=True).weight_pass
        info = observation._state_index.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        index_counts, predecessors, rank, ends = observation._state_index(4, 20)
        assert len(ends) == 20 and ends[-1] == len(rank) == 1771
        for array in (index_counts, rank, *predecessors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # the pass hands out its own copy of the support, not the cached rows
        assert counts.flags.writeable and not np.shares_memory(counts, index_counts)

    @pytest.mark.parametrize("zeros, support", [(False, 1771), (True, 671)])
    def test_workload_shaped_supports(self, zeros, support):
        assert len(assert_matches_dict_pass(workload_shaped(zeros))) == support

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_empty_dataset(self, k):
        counts, log_w = ManifestDataset((), k=k).weight_pass
        assert counts.tolist() == [[0] * k]
        assert log_w.tolist() == [0.0]

    def test_peak_memory(self):
        # a cold call: the state index is built inside the traced window
        data = workload_shaped(zeros=False)
        observation._state_index.cache_clear()
        tracemalloc.start()
        try:
            data.weight_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * 2**20


def brute_faces(patterns: np.ndarray) -> set[frozenset]:
    """Minimiser sets of <r, pattern> over every integer rate vector r in {1..20}^d."""
    d = patterns.shape[1]
    rates = np.array(list(itertools.product(range(1, 21), repeat=d)))
    orders = rates @ patterns.T
    winners = orders == orders.min(axis=1, keepdims=True)
    return {frozenset(np.flatnonzero(row).tolist()) for row in np.unique(winners, axis=0)}


class TestFaces:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_over_integer_rates(self, d):
        rng = np.random.default_rng(d)
        cubes = np.array(list(itertools.product([0, 1], repeat=d)), dtype=bool)
        for _ in range(40):
            patterns = cubes[rng.integers(0, len(cubes), size=int(rng.integers(1, 7)))]
            faces = strata.faces(patterns)
            found = {frozenset(np.flatnonzero(members).tolist()) for _, members in faces}
            assert found == brute_faces(patterns)
            for rates, members in faces:
                # each reported rate vector is positive and exposes exactly its face
                assert all(isinstance(r, int) and r > 0 for r in rates)
                orders = patterns.astype(int) @ np.array(rates)
                assert np.array_equal(members, orders == orders.min())

    def test_infeasible_system_has_no_rates(self):
        # r_0 = r_1 and r_0 > r_1 cannot both hold
        assert strata._positive_solution([(1, -1)], [(1, -1)], 2) is None
        assert strata._positive_solution([(1, -1)], [(1, 0)], 2) == (1, 1)


def envelope(support, j: int, upper: bool, s: float = 2.0):
    """`observation._envelope_limits` of the single side (j, upper)."""
    return observation._envelope_limits(np.array(support), [(j, upper)], s)[0]


class TestEnvelope:
    @pytest.mark.parametrize("k", [2, 3])
    def test_identity_channel_equals_standard_idm(self, k):
        # Walley's fully observable bounds, descriptors included (Walley 1996)
        for counts in itertools.product(range(3), repeat=k):
            if not sum(counts):
                continue
            rows = [h for h, c in enumerate(counts) for _ in range(c)]
            data = ManifestDataset.from_rows(EmissionMatrix.identity(k), rows)
            for s in (0.5, 2.0):
                expected = tuple(
                    standard_idm_predictive_bounds(s, FrequencyVector(counts), j) for j in range(k)
                )
                assert outcome_bounds(data, s, range(k)) == expected

    def test_upper_on_the_straight_path(self):
        # outcome 0, n = 3, A = 1: with t_1, t_2 vanishing alike, (1, 0, 1) and (1, 1, 0) survive
        support = [(0, 2, 1), (1, 0, 1), (1, 1, 0)]
        assert envelope(support, 0, True) == (0.6, BoundaryLimit(0, 1.0))

    def test_upper_with_unequal_rates(self):
        # the straight path keeps (0, 0, 2) too, whose a_0 = 0 < A = 1; letting t_2
        # vanish faster than t_1 leaves (1, 1, 0) alone
        support = [(0, 0, 2), (1, 1, 0)]
        value, where = envelope(support, 0, True)
        assert (value, where.vanishing, where.limit) == (0.75, (1, 2), SimplexPoint([1, 0, 0]))
        assert where.rates[0] < where.rates[1]

    def test_lower_needs_a_larger_vanishing_set(self):
        # every a_0 >= 1, but a_0 is not constant: t_0 alone vanishing keeps both
        # vectors; with t_2 vanishing too, only (1, 2, 0) survives, and a_0 = 1 = B
        support = [(1, 2, 0), (2, 0, 1)]
        value, where = envelope(support, 0, False)
        assert value == 1 / (3 + 2.0)
        assert isinstance(where, BoundaryStratum) and where.vanishing == (0, 2)
        assert where.limit == SimplexPoint([0, 1, 0])

    def test_unattained_envelope_is_left_to_the_search(self):
        support = [(0, 1, 1), (0, 2, 0), (1, 1, 0)]
        assert envelope(support, 0, True) is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(2, 4),
        n=st.integers(1, 12),
        s=st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_every_side_matches_the_per_vector_rule(self, seed, k, n, s):
        # all 2k sides in one call, against the plain-Python rule one side at a time:
        # the same value (a Python float), the same descriptor, or None for the same sides
        counts, _ = channel_with_zeros(seed, k, n).weight_pass
        sides = [(j, upper) for j in range(k) for upper in (False, True)]
        limits = observation._envelope_limits(counts, sides, s)
        for (j, upper), limit in zip(sides, limits, strict=True):
            expected = envelope_limit(counts.tolist(), j, upper, s)
            assert limit == expected
            if limit is not None:
                assert type(limit[0]) is float


# A k=4, n=2 channel whose upper for outcome 2 the 1e-6-clamped lattice of the
# previous release reported as 0.6933291812055639, 1.0e-2 short.
LATTICE_SHORT = (
    [[0.516, 0.166, 0.362, 0.0], [0.373, 0.237, 0.638, 1.0], [0.111, 0.597, 0.0, 0.0]],
    [2, 0],
)


class TestSearch:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(2, 4),
        n=st.integers(1, 6),
        s=st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_no_side_inside_the_oracle_extremes(self, seed, k, n, s):
        data = channel_with_zeros(seed, k, n)
        bounds = outcome_bounds(data, s, range(k))
        low, high = predictive_extremes(data, s, seed=seed % 1000)
        for j, b in enumerate(bounds):
            assert b.upper >= high[j] - 1e-9
            assert b.lower <= low[j] + 1e-9

    def test_reported_values_are_approached_along_their_extremizers(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(3, 5))
            s = float(rng.choice([0.5, 2.0, 5.0]))
            data = channel_with_zeros(int(rng.integers(2**31)), k, int(rng.integers(2, 6)))
            for j, b in enumerate(outcome_bounds(data, s, range(k))):
                for value, where in ((b.lower, b.argmin_t), (b.upper, b.argmax_t)):
                    if not isinstance(where, BoundaryLimit):
                        assert value_along(data, s, where, 1e-40)[j] == pytest.approx(value, abs=1e-12)

    def test_lattice_regression_case(self):
        emission, rows = LATTICE_SHORT
        data = ManifestDataset.from_rows(EmissionMatrix(emission), rows)
        b = outcome_bounds(data, 2.0, range(4))[2]
        assert b.upper > 0.6933291812055639 + 1e-3
        assert b.upper >= predictive_extremes(data, 2.0)[1][2] - 1e-9
        assert isinstance(b.argmax_t, BoundaryStratum)
        assert value_along(data, 2.0, b.argmax_t, 1e-40)[2] == pytest.approx(b.upper, abs=1e-12)
