"""Exact predictive bounds: the support, the boundary strata, the envelope and the search.

The search is checked from both sides: against the numpy multistart oracle
(no reported side may lie inside what the oracle attains), and along its own
reported extremizer (the reported value must be approached there, so it
cannot overshoot).
"""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm import observation, strata
from latentidm.errors import SizeCapError
from latentidm.idm import (
    BoundaryLimit,
    BoundaryStratum,
    FrequencyVector,
    standard_idm_predictive_bounds,
)
from latentidm.manifest import BinaryChannel
from latentidm.observation import (
    EmissionMatrix,
    ManifestDataset,
    frequency_weights,
    likelihood_terms,
    outcome_bounds,
    posterior_predictive_at_t,
    vacuity_diagnosis,
)
from latentidm.runner import Scenario, run_scenario
from latentidm.simplex import DirichletParams, SimplexPoint
from oracles import (
    brute_frequency_weights,
    dict_log_weights,
    elimination_faces,
    envelope_limit,
    exact_frequency_predictive,
    exact_log_weights,
    lexicographic_likelihood_terms,
    positive_solution,
    predictive_at_log_t,
    predictive_extremes,
    support_envelope_limits,
)
from test_cli import FACE_DOC


def channel_parts(seed: int, k: int, n: int) -> tuple[EmissionMatrix, list[int]]:
    """2-4 manifest rows, ~40% structural zeros, every column and observed row nonzero."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 5))
    raw = rng.uniform(0.05, 1.0, size=(rows, k)) * (rng.uniform(size=(rows, k)) < 0.6)
    for j in np.flatnonzero(raw.sum(axis=0) == 0.0):
        raw[rng.integers(rows), j] = 0.5
    observable = np.flatnonzero(raw.sum(axis=1) > 0.0)
    return EmissionMatrix(raw / raw.sum(axis=0)), rng.choice(observable, size=n).tolist()


def channel_with_zeros(seed: int, k: int, n: int) -> ManifestDataset:
    """The dataset of `channel_parts`."""
    return ManifestDataset.from_rows(*channel_parts(seed, k, n))


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
    """The support of the weight pass, in either space, is exact and sorted."""

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
        # one work cap: the weight pass refuses a 2,895th observation at k = 2
        with pytest.raises(SizeCapError, match="k=2, n=2895 needs 4,194,855 updates"):
            ManifestDataset.from_rows(EmissionMatrix.identity(2), [0] * 2895).weight_pass
        # k is capped for the bounds alone: a k = 5 pass of one observation is cheap
        data = ManifestDataset.from_rows(EmissionMatrix.identity(5), [0])
        assert data.weight_pass[0].tolist() == [[1, 0, 0, 0, 0]]
        with pytest.raises(SizeCapError, match="k <= 4"):
            outcome_bounds(data, 2.0, range(5))
        # every dataset of k <= 4 and up to 20 observations fits the search's cap: at most 8
        # sides, C(23, 3) = 1,771 vectors and 51 strata, 1 + 4 * 1 + 6 * 3 + 4 * 7, since the
        # faces of d vanishing coordinates are subsets of an antichain of 0/1 patterns, which
        # has at most C(d, d // 2) members
        strata_at_most = sum(
            math.comb(4, d) * (2 ** math.comb(d, d // 2) - 1) for d in range(1, 4)
        ) + 1
        assert 8 * strata_at_most * math.comb(23, 3) * 4 == 2_890_272 <= observation.MAX_WORK


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


# ulps of max(1, |log W|) against `exact_log_weights`.  The derandomized examples of
# `rows_allowing_three_or_more` stay within 4, but 4 is not the log pass's worst case: 10,000
# numpy draws of that shape at each of seeds 1 and 2 reached 5 and 6 ulps on rows that take
# the log pass.  Each of the n <= 8 steps rounds once as it adds a log entry
LOG_W_ULPS = 4


@st.composite
def rows_allowing_three_or_more(draw) -> ManifestDataset:
    """k in {3, 4}, n <= 8, 2-4 rows of 3-4 nonzero entries drawn from 1e-300 to 1."""
    k, rows = draw(st.integers(3, 4)), draw(st.integers(2, 4))
    exponents = draw(st.lists(st.floats(-300.0, 0.0), min_size=rows * k, max_size=rows * k))
    raw = 10.0 ** np.array(exponents).reshape(rows, k)
    if k == 4:  # a row may rule out one hidden outcome, as long as its column keeps an entry
        for r, j in enumerate(draw(st.lists(st.integers(-1, 3), min_size=rows, max_size=rows))):
            if j >= 0 and np.count_nonzero(raw[:, j]) > 1:
                raw[r, j] = 0.0
    observed = draw(st.lists(st.integers(0, rows - 1), max_size=8))
    return ManifestDataset.from_rows(EmissionMatrix(raw / raw.sum(axis=0)), observed)


@st.composite
def rows_in_linear_range(draw) -> ManifestDataset:
    """k in {2, 3, 4}, n <= 8, 2-4 rows of entries drawn from 1e-3 to 1 or zero.

    A normalised entry is at least 2.5e-4, so every product of 8 of them
    lies above 2^-1000 and every draw takes the linear pass.
    """
    k, rows = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    exponents = draw(st.lists(st.floats(-3.0, 0.0), min_size=rows * k, max_size=rows * k))
    zeros = draw(st.lists(st.booleans(), min_size=rows * k, max_size=rows * k))
    raw = 10.0 ** np.array(exponents).reshape(rows, k) * ~np.array(zeros).reshape(rows, k)
    raw[0, raw.sum(axis=0) == 0.0] = 1.0
    observable = np.flatnonzero(raw.sum(axis=1) > 0.0).tolist()
    observed = draw(st.lists(st.sampled_from(observable), max_size=8))
    return ManifestDataset.from_rows(EmissionMatrix(raw / raw.sum(axis=0)), observed)


def workload_shaped(zeros: bool, seed: int = 0) -> ManifestDataset:
    """k=4, n=20, each row observed 5 times: all-positive, or two cyclic nonzeros per column."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(4, 4))
    if zeros:
        raw *= np.eye(4) + np.roll(np.eye(4), 1, axis=0)
    emission = EmissionMatrix(raw / raw.sum(axis=0))
    return ManifestDataset.from_rows(emission, rng.permutation(np.repeat(np.arange(4), 5)).tolist())


def workload_prior_mean(seed: int) -> list[float]:
    """The `hyper.t` of perfbench's `latent-*` document of this seed, drawn after its dataset."""
    rng = np.random.default_rng(seed)
    rng.uniform(size=(4, 4)), rng.permutation(20)  # the draws of `workload_shaped`
    gamma = rng.gamma(1.0, size=4)
    return (gamma / gamma.sum()).tolist()


def spy_on_sums(monkeypatch) -> list[str]:
    """The names of the row sums the weight pass calls, in order."""
    calls = []
    for name in ("_linear_sum", "_log_sum_exp"):
        original = getattr(observation, name)

        def spied(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(observation, name, spied)
    return calls


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=rows_allowing_three_or_more())
    def test_max_shifted_sums_within_ulps_of_exact_weights(self, data):
        # every observation takes the max-shifted sum; the support must be exact, and log W
        # within LOG_W_ULPS of the exact rational weights' log
        counts, log_w = likelihood_terms(data)
        exact_counts, exact_log_w = exact_log_weights(data)
        assert np.array_equal(counts, exact_counts)
        ulps = np.abs(log_w - exact_log_w) / np.spacing(np.maximum(1.0, np.abs(exact_log_w)))
        assert ulps.max() <= LOG_W_ULPS

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=rows_in_linear_range())
    def test_linear_pass_within_ulps_of_exact_weights(self, data):
        # the support must be exact, and log W within LOG_W_ULPS of the exact weights' log
        # (3 ulps at worst over 20,000 random draws of this shape)
        counts, log_w = likelihood_terms(data)
        exact_counts, exact_log_w = exact_log_weights(data)
        assert np.array_equal(counts, exact_counts)
        ulps = np.abs(log_w - exact_log_w) / np.spacing(np.maximum(1.0, np.abs(exact_log_w)))
        assert ulps.max() <= LOG_W_ULPS

    @pytest.mark.parametrize("n, linear", [(9, True), (11, False)])
    def test_smallest_entries_pick_the_space(self, monkeypatch, n, linear):
        # a 2^-100 entry observed n times: 2^-900 lies inside the linear range, and 2^-1100
        # lies below the smallest float, so only the log pass keeps the vector (n, 0)
        calls = spy_on_sums(monkeypatch)
        emission = EmissionMatrix([[2.0**-100, 0.5], [1.0 - 2.0**-100, 0.5]])
        data = ManifestDataset.from_rows(emission, [0] * n)
        counts, log_w = likelihood_terms(data)
        exact_counts, exact_log_w = exact_log_weights(data)
        assert np.array_equal(counts, exact_counts) and len(counts) == n + 1
        ulps = np.abs(log_w - exact_log_w) / np.spacing(np.maximum(1.0, np.abs(exact_log_w)))
        assert ulps.max() <= LOG_W_ULPS
        assert set(calls) == {"_linear_sum" if linear else "_log_sum_exp"}

    @pytest.mark.parametrize("n, linear", [(999, True), (1030, False)])
    def test_row_sums_pick_the_space(self, monkeypatch, n, linear):
        # a row of sum 2 observed n times: W(a) = C(n, a), whose total 2^999 lies inside the
        # linear range; C(1030, 515) > 2^1024 would overflow there, and the log pass keeps it
        calls = spy_on_sums(monkeypatch)
        data = ManifestDataset.from_rows(EmissionMatrix([[1.0, 1.0]]), [0] * n)
        counts, log_w = likelihood_terms(data)
        assert counts.tolist() == [[a, n - a] for a in range(n + 1)]
        np.testing.assert_allclose(log_w, [math.log(math.comb(n, a)) for a in range(n + 1)], rtol=1e-12)
        assert set(calls) == {"_linear_sum" if linear else "_log_sum_exp"}

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_at_t_within_4e_15_of_the_exact_value(self, zeros, seed):
        # the latent-* documents of these seeds, at their own prior mean: the log-space pass
        # read 4.5e-15 (latent-vacuous, seed 3) and 7.4e-15 (latent-zeros, seed 5)
        data, t = workload_shaped(zeros, seed), workload_prior_mean(seed)
        values = posterior_predictive_at_t(data, DirichletParams(2.0, SimplexPoint(t)))
        exact = exact_frequency_predictive(data, 2.0, t)
        assert max(abs(Fraction(v) - e) / e for v, e in zip(values, exact)) <= 4e-15

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

    def test_index_cache_holds_at_most_four_indexes(self):
        # an index's bytes grow with its shape (39.6 MiB at k = 7, n = 24), so the cache keeps
        # the last 4: after cold passes at 6 distinct k = 5 shapes it holds less than 4 times
        # the largest of them, which the 6 together exceed
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.05, 1.0, size=(3, 5))
        emission = EmissionMatrix(raw / raw.sum(axis=0))
        observation._state_index.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            observation._state_index(5, 35)
            largest = tracemalloc.get_traced_memory()[0] - base
            observation._state_index.cache_clear()
            base = tracemalloc.get_traced_memory()[0]
            for n in range(30, 36):
                likelihood_terms(ManifestDataset.from_rows(emission, rng.integers(0, 3, n)))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            observation._state_index.cache_clear()
        assert largest > 2**20
        assert held < 4 * largest

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

    @pytest.mark.parametrize("k, n", [(5, 43), (6, 19)])
    def test_peak_memory_without_a_position_table(self, k, n):
        # cold passes at k = 5 and 6 over an all-positive channel, so every one of the
        # C(n + k - 1, k - 1) states is in the support; a position table of (n + 2)^(k - 1)
        # slots took these to 80.4 and 67.3 MiB
        rng = np.random.default_rng(k)
        raw = rng.uniform(0.05, 1.0, size=(3, k))
        data = ManifestDataset.from_rows(EmissionMatrix(raw / raw.sum(axis=0)), rng.integers(0, 3, n))
        observation._state_index.cache_clear()
        tracemalloc.start()
        try:
            counts, log_w = likelihood_terms(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert len(counts) == math.comb(n + k - 1, k - 1)
        oracle_counts, oracle_log_w = lexicographic_likelihood_terms(data)
        assert np.array_equal(counts, oracle_counts)
        assert np.array_equal(log_w, oracle_log_w)


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

    @pytest.mark.parametrize("d", range(1, observation.DP_MAX_K))
    def test_rate_box_matches_elimination_on_every_pattern_set(self, d):
        # every nonempty set of distinct 0/1 patterns over the d <= 3 vanishing coordinates
        # that the k cap admits, each row twice and shuffled as a support's patterns come:
        # the same member masks in the same order as exact elimination, each with the rates
        # of {1..d}^d that expose exactly it, the first by sum and then lexicographically
        rng = np.random.default_rng(d)
        cube = np.array(list(itertools.product([0, 1], repeat=d)), dtype=bool)
        box = list(itertools.product(range(1, d + 1), repeat=d))
        sets = 0
        for size in range(1, len(cube) + 1):
            for chosen in itertools.combinations(range(len(cube)), size):
                patterns = cube[np.array(chosen)][rng.permutation(np.arange(2 * size) % size)]
                orders = patterns.astype(int) @ np.array(box).T
                exposed = (orders == orders.min(axis=0)).T
                faces = strata.faces(patterns)
                expected = elimination_faces(patterns)
                assert len(faces) == len(expected)
                for (rates, members), (_, oracle_members) in zip(faces, expected):
                    assert np.array_equal(members, oracle_members)
                    assert all(type(r) is int for r in rates)
                    exposing = [r for r, mask in zip(box, exposed) if (mask == members).all()]
                    assert rates == min(exposing, key=lambda r: (sum(r), r))
                sets += 1
        assert sets == 2 ** len(cube) - 1

    def test_infeasible_system_has_no_rates(self):
        # r_0 = r_1 and r_0 > r_1 cannot both hold
        assert positive_solution([(1, -1)], [(1, -1)], 2) is None
        assert positive_solution([(1, -1)], [(1, 0)], 2) == (1, 1)


def patterned(rows, k: int = 3) -> ManifestDataset:
    """One observation per entry of `rows`, each allowing exactly the outcomes it lists."""
    raw = np.array([[float(j in row) for j in range(k)] for row in rows] + [[1.0] * k])
    return ManifestDataset.from_rows(EmissionMatrix(raw / raw.sum(axis=0)), range(len(rows)))


def envelope(rows, j: int, upper: bool, s: float = 2.0):
    """`observation._envelope_limits` of the single side (j, upper) of the `patterned` rows."""
    patterns = observation._zero_patterns(patterned(rows))
    return observation._envelope_limits(patterns, [(j, upper)], s)[0]


def face_envelope(rows, j: int, s: float = 2.0):
    """`observation._face_limit` of the upper of j, which failed its equal-rate check.

    Held to the support oracle: the same value, descriptor and rates, or None.
    """
    assert envelope(rows, j, True, s) is None
    data = patterned(rows)
    limit = observation._face_limit(observation._zero_patterns(data), data.k, j, s)
    assert limit == envelope_limit(support_of(data), j, True, s)
    return limit


def all_sides(k: int) -> list[tuple[int, bool]]:
    return [(j, upper) for j in range(k) for upper in (False, True)]


def open_sides(data: ManifestDataset) -> list[tuple[int, bool]]:
    """The sides `vacuity_diagnosis` witnesses: uppers a row rules out, lowers a row certifies."""
    outcomes = vacuity_diagnosis(data).per_outcome
    flags = [(d.lower_strictly_above_zero, d.upper_strictly_below_one) for d in outcomes]
    return [(j, upper) for j, upper in all_sides(data.k) if flags[j][upper]]


def pattern_limits(data: ManifestDataset, sides, s: float) -> list:
    """The zero-pattern rules of `outcome_bounds` on each side, with no weight pass.

    The equal-rate envelope (`_envelope_limits`), then, for an upper it
    leaves open, the faces with unequal rates (`_face_limit`).
    """
    patterns = observation._zero_patterns(data)
    limits = observation._envelope_limits(patterns, sides, s)
    return [
        observation._face_limit(patterns, data.k, j, s) if upper and limit is None else limit
        for (j, upper), limit in zip(sides, limits, strict=True)
    ]


def assert_pattern_rule_matches_the_support(data: ManifestDataset, s: float) -> Counter:
    """Every open side against `oracles.envelope_limit` on the support of the weight pass.

    The same value (a Python float) and descriptor, rates included, or None
    for the same sides.  Returns how many sides each check settled: keys
    "envelope", "face" and "search".
    """
    sides = open_sides(data)
    support = [tuple(a) for a in data.weight_pass[0].tolist()]
    settled = Counter()
    for (j, upper), limit in zip(sides, pattern_limits(data, sides, s), strict=True):
        assert limit == envelope_limit(support, j, upper, s), (j, upper)
        if limit is None:
            settled["search"] += 1
        else:
            assert type(limit[0]) is float
            settled["face" if isinstance(limit[1], BoundaryStratum) else "envelope"] += 1
    return settled


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
        # outcome 0, n = 3, A = 1: both rows that exclude 0 are {1}, whose one minimum
        # hitting set {1} misses the row {0, 2}; with t_1, t_2 vanishing alike, of the
        # support {(0, 2, 1), (1, 2, 0)} only (1, 2, 0) survives
        assert envelope([[0, 2], [1], [1]], 0, True) == (0.6, BoundaryLimit(0, 1.0))

    def test_upper_with_unequal_rates(self):
        # the row {1, 2} excludes 0; of its minimum hitting sets {1} and {2}, {2} meets the
        # row {0, 2}:
        # the straight path keeps (0, 0, 2) too, whose a_0 = 0 < A = 1; letting t_2
        # vanish faster than t_1 leaves (1, 1, 0) alone
        value, where = face_envelope([[0, 2], [1, 2]], 0)
        assert (value, where.vanishing, where.limit) == (0.75, (1, 2), SimplexPoint([1, 0, 0]))
        assert where.rates[0] < where.rates[1]

    @pytest.mark.parametrize("k,n", [(3, 4), (4, 2)])
    def test_open_lower_never_settles_on_a_face(self, k, n):
        # every multiset of up to n row patterns: an open lower (some row allows only j)
        # attains B / (n + s) iff every row that allows j allows only j, and the
        # per-vector oracle, which also tries every face that t_j vanishes on, agrees.
        # When some row allows j and h, it can pick j instead of h in any vector with
        # a_j = B >= 1 and stay on the face, so no face holds a_j = B alone
        for size in range(1, n + 1):
            for masks in itertools.combinations_with_replacement(range(1, 1 << k), size):
                rows = [[j for j in range(k) if m >> j & 1] for m in masks]
                data = patterned(rows, k)
                support = [tuple(a) for a in data.weight_pass[0].tolist()]
                for j in range(k):
                    if [j] not in rows:
                        continue
                    expected = envelope_limit(support, j, False, 2.0)
                    limit = observation._envelope_limits(
                        observation._zero_patterns(data), [(j, False)], 2.0
                    )[0]
                    assert limit == expected
                    assert (limit is None) == any(j in row and len(row) > 1 for row in rows)

    def test_unattained_envelope_is_left_to_the_search(self):
        assert face_envelope([[1], [0, 1, 2]], 0) is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(2, 4),
        n=st.integers(1, 12),
        s=st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_every_side_matches_the_per_vector_rule(self, seed, k, n, s):
        # every open side in one call, the equal-rate rule and then the faces of the uppers it
        # leaves, all from the zero patterns, against the plain-Python rule on the support one
        # side at a time: the same value (a Python float), the same descriptor, or None for
        # the same sides
        assert_pattern_rule_matches_the_support(channel_with_zeros(seed, k, n), s)

    def test_pattern_rule_matches_the_support_on_random_channels(self):
        # 1,000 channels of `channel_parts`, k 2-4, n 1-8: the zero-pattern rules settle sides
        # both on the straight path and on faces with unequal rates, and leave some to the
        # search, each exactly where the support oracle does
        rng = np.random.default_rng(28)
        settled = Counter()
        for seed in range(1000):
            k, n = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            s = float(rng.choice([0.5, 2.0]))
            settled += assert_pattern_rule_matches_the_support(channel_with_zeros(seed, k, n), s)
        assert min(settled["envelope"], settled["face"], settled["search"]) >= 100

    @pytest.mark.parametrize("k, n", [(3, 4), (4, 3)])
    def test_pattern_rule_matches_the_support_on_every_row_multiset(self, k, n):
        # every multiset of up to n row patterns, at s = 0.5 and 2
        settled = Counter()
        for size in range(1, n + 1):
            for masks in itertools.combinations_with_replacement(range(1, 1 << k), size):
                data = patterned([[j for j in range(k) if m >> j & 1] for m in masks], k)
                for s in (0.5, 2.0):
                    settled += assert_pattern_rule_matches_the_support(data, s)
        assert min(settled["envelope"], settled["face"], settled["search"]) > 0

    def test_face_settled_documents_skip_the_weight_pass(self, monkeypatch):
        # `FACE_DOC` and the rows of `test_upper_with_unequal_rates` settle every open side on
        # a face with unequal rates, from the zero patterns alone: no weight pass runs, and no
        # table of strata is built
        calls = []
        for module, name in ((observation, "likelihood_terms"), (strata, "_strata")):
            original = getattr(module, name)

            def spied(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, spied)
        report = run_scenario(Scenario.from_dict(FACE_DOC))
        assert [b["argmax_t"].keys() for b in report["results"]["bounds"][1:]] == [{"stratum"}] * 2
        bounds = outcome_bounds(patterned([[0, 2], [1, 2]]), 2.0, range(3))
        assert [type(b.argmax_t) for b in bounds[:2]] == [BoundaryStratum] * 2
        assert calls == []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 4),
        masks=st.lists(st.integers(1, 15), min_size=1, max_size=8),
        s=st.sampled_from([0.5, 2.0]),
    )
    def test_zero_pattern_rule_equals_the_support_rule(self, k, masks, s):
        # random zero patterns: every side, open or not, gets the same value and descriptor,
        # or None, from the rows' distinct patterns as from the support of their weight pass
        rows = [[j for j in range(k) if m >> j & 1] or [m % k] for m in masks]
        data = patterned(rows, k)
        counts, _ = data.weight_pass
        sides = all_sides(k)
        limits = observation._envelope_limits(observation._zero_patterns(data), sides, s)
        assert limits == support_envelope_limits(counts, sides, s)


def test_bundled_and_cyclic_zero_documents_never_import_strata():
    # the zero pattern and the equal-rate checks settle every side of the bundled catalog
    # and of a k = 4, n = 20 channel with two nonzeros per column in a cyclic pattern, so
    # the search module (~0.5 MB of resident memory) is never loaded
    rng = np.random.default_rng(5)
    mask = np.eye(4) + np.roll(np.eye(4), 1, axis=0)
    raw = rng.uniform(0.05, 1.0, size=(4, 4)) * mask
    doc = {
        "name": "cyclic-zeros",
        "kind": "predict",
        "k": 4,
        "model": {"emission": (raw / raw.sum(axis=0)).tolist()},
        "observations": rng.permutation(np.repeat(np.arange(4), 5)).tolist(),
        "hyper": {"s": 2.0, "t": [0.1, 0.2, 0.3, 0.4]},
    }
    script = (
        "import json, sys\n"
        "from latentidm.runner import Scenario, bundled_scenarios, run_scenario\n"
        "for doc in [*bundled_scenarios().values(), json.loads(sys.argv[1])]:\n"
        "    run_scenario(Scenario.from_dict(doc))\n"
        "print(sorted(m for m in sys.modules if m.startswith('latentidm.')))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(doc)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.strip()
    assert "latentidm.observation" in loaded and "latentidm.strata" not in loaded


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

    def test_faces_of_each_vanishing_set_are_found_once(self, monkeypatch):
        # this k = 4 dataset reaches both the unequal-rate face check and the search: the
        # check reads the faces of the hitting sets of its one open upper (d = 3), and the
        # search builds one table of strata, which visits all 14 proper vanishing sets once
        calls, tables = [], []
        faces, build = strata.faces, strata._strata

        def counted(patterns):
            calls.append((len(tables), patterns.shape[1]))
            return faces(patterns)

        def built(counts):
            tables.append(1)
            return build(counts)

        monkeypatch.setattr(strata, "faces", counted)
        monkeypatch.setattr(strata, "_strata", built)
        emission, rows = LATTICE_SHORT
        data = ManifestDataset.from_rows(EmissionMatrix(emission), rows)
        outcome_bounds(data, 2.0, range(4))
        sets = [z for size in (1, 2, 3) for z in itertools.combinations(range(4), size)]
        assert tables == [1]
        assert calls == [(0, 3)] + [(1, len(z)) for z in sets]

    @pytest.mark.parametrize("seed, n", [(0, 30), (2, 60), (3, 30), (5, 60)])
    def test_label_symmetry_and_exchangeability_past_twenty_observations(
        self, monkeypatch, seed, n
    ):
        # k = 3 channels that reach the search: permuting the hidden labels, with the
        # emission columns, permutes the bounds, and reordering the observations leaves
        # them as they are.  The multistart stops once a step promises less than 1e-15,
        # so each orientation finds the extremum to within a few ulps.
        searched = []
        search = strata.search
        monkeypatch.setattr(strata, "search", lambda *args: searched.append(1) or search(*args))
        emission, rows = channel_parts(seed, 3, n)
        base = outcome_bounds(ManifestDataset.from_rows(emission, rows), 2.0, range(3))
        assert searched
        rng = np.random.default_rng(100 + seed)
        labels = rng.permutation(3)
        relabelled = ManifestDataset.from_rows(EmissionMatrix(emission.entries[:, labels]), rows)
        reordered = ManifestDataset.from_rows(emission, rng.permutation(rows))
        pairs = zip(outcome_bounds(relabelled, 2.0, range(3)), (base[j] for j in labels))
        pairs = [*pairs, *zip(outcome_bounds(reordered, 2.0, range(3)), base)]
        for moved, expected in pairs:
            assert abs(moved.lower - expected.lower) <= 8 * np.finfo(float).eps
            assert abs(moved.upper - expected.upper) <= 8 * np.finfo(float).eps

    def test_lattice_regression_case(self):
        emission, rows = LATTICE_SHORT
        data = ManifestDataset.from_rows(EmissionMatrix(emission), rows)
        b = outcome_bounds(data, 2.0, range(4))[2]
        assert b.upper > 0.6933291812055639 + 1e-3
        assert b.upper >= predictive_extremes(data, 2.0)[1][2] - 1e-9
        assert isinstance(b.argmax_t, BoundaryStratum)
        assert value_along(data, 2.0, b.argmax_t, 1e-40)[2] == pytest.approx(b.upper, abs=1e-12)
