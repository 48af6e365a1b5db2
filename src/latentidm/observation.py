"""Inference about a categorical latent variable observed through noisy channels.

A manifest observation carries information about the hidden outcome through a
known column-stochastic emission matrix.  The observed sequence's likelihood
factorizes per index, a dynamic program collapses the sum over hidden
assignments into weights on frequency vectors, and the posterior predictive
for the next hidden outcome becomes a convex combination of conjugate-update
fractions.

Whether a predictive bound can move off 0/1 at all is decided exactly, from
the zero pattern of the observed emission entries: a bound with no witness
in `vacuity_diagnosis` is its analytic limit, 0 or 1.  A side the zero
pattern leaves open is first checked against its conjugate envelope, also
exactly from the zero pattern; only a side whose envelope is not attained
is searched, over the interior of the prior-mean simplex and over each of
its boundary strata.  An observation whose row is zero under every hidden
outcome is impossible and is rejected when the dataset is built.

The key bookkeeping split: the probability of the observed sequence given a
hidden assignment depends on the full ordered assignment, while the prior
probability of an assignment depends only on its frequencies.  The dynamic
program therefore aggregates ordered assignments into frequency weights
W(a), after which no further multiplicity factor is needed.  It runs in log
space over each observation's emission row, all a dataset keeps
(`likelihood_terms`); a dataset runs it at most once, under the size cap,
as its cached `weight_pass`, which the bounds, the fixed-prior values and
`frequency_weights` all read.  Its states are ordered by grade, the sum of
the first k - 1 counts, so each observation updates only the states it can
reach; that index is built once per (k, n).  Uncapped, the same pass is a
channel likelihood's coefficient map in the trend lab.  Brute-force
enumeration, a dict pass and a lexicographic pass are test oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeCapError
from .idm import BoundaryLimit, BoundaryStratum, FrequencyVector, PredictiveBounds, log_rising
from .simplex import DirichletParams, SimplexPoint

# Unused here; perfbench/spans.py wraps `observation.log_marginal_probability`
# and `observation.SimplexGrid` by name.
from .idm import log_marginal_probability  # noqa: F401
from .simplex import SimplexGrid  # noqa: F401

DP_MAX_N = 20
DP_MAX_K = 4

_COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class EmissionMatrix:
    """Conditional observation probabilities, one column per hidden outcome.

    entries[h, j] = P(observe row h | hidden outcome j).  Every column must
    sum to 1; rows enumerate the possible manifest outcomes.
    """

    entries: np.ndarray

    def __init__(self, entries) -> None:
        arr = np.asarray(entries, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError("emission matrix must be 2-D with k >= 2 columns")
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            raise ValueError("emission entries must lie in [0, 1]")
        sums = arr.sum(axis=0)
        for j, s in enumerate(sums):
            if abs(s - 1.0) > _COLUMN_SUM_TOL:
                raise ValueError(f"emission column {j} sums to {s!r}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def manifest_count(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    @staticmethod
    def identity(k: int) -> "EmissionMatrix":
        return EmissionMatrix(np.eye(k))


@dataclass(frozen=True, eq=False)
class ManifestDataset:
    """An ordered sequence of observations, built from an iterable of (emission, row) pairs.

    An observation enters the likelihood only through its emission row, so
    that is all a dataset keeps: row_entries[i, j] = P(observation i | hidden
    outcome j), read-only.  The weight pass and `vacuity_diagnosis` read it.
    """

    k: int
    row_entries: np.ndarray = field(repr=False)

    def __init__(self, observations: Iterable[tuple[EmissionMatrix, int]], k: int) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        rows, labels, mismatch = [], [], None
        for i, (emission, row) in enumerate(observations):
            if emission.k != k:
                mismatch = f"observation {i}: emission has k={emission.k}, expected {k}"
                break
            if not 0 <= row < emission.manifest_count:
                mismatch = f"observation {i}: row {row} out of range"
                break
            rows.append(emission.entries[row])
            labels.append(row)
        entries = np.array(rows).reshape(len(rows), k)
        # a zero row before the first mismatch is the first failing observation
        impossible = np.flatnonzero(~entries.any(axis=1))
        if len(impossible):
            i = int(impossible[0])
            raise ValueError(
                f"observation {i}: row {labels[i]} has probability zero under every hidden outcome"
            )
        if mismatch:
            raise ValueError(mismatch)
        entries.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "row_entries", entries)

    @property
    def n(self) -> int:
        return len(self.row_entries)

    @cached_property
    def weight_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """`likelihood_terms` under the n <= 20, k <= 4 cap, run on first use for every consumer."""
        if self.n > DP_MAX_N or self.k > DP_MAX_K:
            raise SizeCapError(
                f"frequency-weight pass capped at n <= {DP_MAX_N}, k <= {DP_MAX_K}; "
                f"got n={self.n}, k={self.k}"
            )
        return likelihood_terms(self)

    @staticmethod
    def from_rows(emission: EmissionMatrix, rows: Sequence[int]) -> "ManifestDataset":
        """Shorthand for one emission matrix shared by every index."""
        return ManifestDataset(((emission, int(r)) for r in rows), k=emission.k)


@dataclass(frozen=True)
class OutcomeDiagnosis:
    """The witnessing indices of one hidden outcome's learnability, and the flags they decide."""

    outcome: int
    upper_witnesses: tuple[int, ...]
    lower_witnesses: tuple[int, ...]

    @property
    def upper_strictly_below_one(self) -> bool:
        """True when some observed row rules the outcome out, so the upper moves off 1."""
        return bool(self.upper_witnesses)

    @property
    def lower_strictly_above_zero(self) -> bool:
        """True when some observed row certifies the outcome, so the lower moves off 0."""
        return bool(self.lower_witnesses)

    @property
    def vacuous(self) -> bool:
        """True when neither bound can move off its analytic limit, 0 or 1."""
        return not (self.upper_witnesses or self.lower_witnesses)


@dataclass(frozen=True)
class VacuityDiagnosis:
    per_outcome: tuple[OutcomeDiagnosis, ...]

    @property
    def fully_vacuous(self) -> bool:
        """True when no outcome's bounds can move off (0, 1)."""
        return all(d.vacuous for d in self.per_outcome)

    def __getitem__(self, j: int) -> OutcomeDiagnosis:
        return self.per_outcome[j]


def frequency_weights(data: ManifestDataset) -> dict[FrequencyVector, float]:
    """Total observation probability per hidden frequency vector.

    W(a) = sum over ordered hidden assignments with frequencies a of
    P(observations | assignment): the exponentials of the cached `weight_pass`,
    whose graded forward pass costs O(k * binomial(n+k, k)) instead of the k^n
    enumeration.  Frequency vectors whose weight rounds to 0.0 are omitted.
    """
    counts, log_w = data.weight_pass
    weights = zip(counts.tolist(), map(math.exp, log_w.tolist()))
    return {FrequencyVector(tuple(a)): w for a, w in weights if w != 0.0}


@functools.lru_cache(maxsize=32)
def _state_index(k: int, n: int) -> tuple[np.ndarray, tuple, np.ndarray, tuple[int, ...]]:
    """The states of `likelihood_terms` in graded order, built once per (k, n).

    A state is a vector of the first k - 1 counts with sum <= n (the k-th is
    the step minus their sum); its grade is that sum.  States are ordered by
    grade, lexicographically within a grade, so after i observations the
    reachable states, those of grade <= i, are the prefix of length
    ends[i - 1].  predecessors[j][i] is the state one x_j before state i
    (j < k - 1), which has one grade less and so lies in the previous
    prefix, or len(states), an extra -inf slot, when count j is 0; x_k
    leaves the state as is.  rank[i] is the graded position of the i-th
    state in lexicographic order, and counts holds the full count vectors
    (the k-th at step n) in that order.  The arrays are read-only: the
    cache hands the same ones to every dataset of this (k, n).
    """
    # (grade, first k - 2 counts) in lexicographic order, each prefix extended by every
    # count that keeps their sum <= the grade; the (k - 1)-th is the grade minus that sum
    grade = np.arange(n + 1)
    heads = np.zeros((n + 1, 0), dtype=np.int64)
    for _ in range(k - 2):
        room = grade + 1 - heads.sum(axis=1)
        last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        heads = np.column_stack((np.repeat(heads, room, axis=0), last))
        grade = np.repeat(grade, room)
    counts = np.column_stack((heads, grade - heads.sum(axis=1), n - grade))
    heads, size = counts[:, :-1], len(counts)
    # a position table over the counts plus one, in base n + 2: a count of -1 lands on a
    # slot that is no state, and every such slot holds `size`; the slots of states, in
    # code order, are the states in lexicographic order
    strides = np.array([(n + 2) ** (k - 2 - j) for j in range(k - 1)], dtype=np.int64)
    codes = (heads + 1) @ strides
    position = np.full((n + 2) ** (k - 1), size, dtype=np.int64)
    position[codes] = np.arange(size)
    predecessors = tuple(position[codes - stride] for stride in strides)
    rank = position[np.flatnonzero(position - size)]
    counts = counts[rank]
    for array in (counts, rank, *predecessors):
        array.setflags(write=False)
    ends = tuple(math.comb(i + k - 1, k - 1) for i in range(1, n + 1))
    return counts, predecessors, rank, ends


def likelihood_terms(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """The support of W, in sorted order, and log W(a) of each of its vectors.

    The likelihood of the observed sequence is sum_a W(a) theta^a, so these
    are its exponent rows and log coefficients.  A forward pass in log
    space, so no weight underflows however small the entries are: a vector
    is kept iff some hidden assignment with its frequencies meets only
    nonzero emission entries.  Observation i updates only the states it
    can reach, the prefix of grade <= i of the graded index
    (`_state_index`): it gathers log W at their predecessors under every
    outcome its row allows (x_k's is the prefix itself), adds their log
    emission entries and combines the rows pairwise with `np.logaddexp`.
    That is C(n+k, k) - 1 state updates in all, against n * C(n+k-1, k-1)
    over every state.  Unreached states stay -inf; after the last step the
    index's permutation puts log W back in lexicographic order, and the
    finite entries are the support.  This is the library's one weight pass;
    its one capped entry is `ManifestDataset.weight_pass`, and only a trend
    `channel` likelihood calls it uncapped.
    """
    k, n = data.k, data.n
    counts, predecessors, rank, ends = _state_index(k, n)
    size = len(rank)
    log_w = np.full(size + 1, -np.inf)
    log_w[0] = 0.0  # the zero vector
    terms = np.empty((k, size))
    for m, lam in zip(ends, data.row_entries.tolist()):
        allowed = [j for j in range(k) if lam[j] != 0.0]
        rows = terms[: len(allowed), :m]
        for r, j in enumerate(allowed):
            source = log_w[:m] if j == k - 1 else log_w[predecessors[j][:m]]
            np.add(source, math.log(lam[j]), out=rows[r])
        np.logaddexp.reduce(rows, axis=0, out=log_w[:m])
    log_w = log_w[rank]
    reached = np.flatnonzero(log_w > -np.inf)
    return counts[reached], log_w[reached]


def posterior_predictive_at_t(data: ManifestDataset, prior: DirichletParams) -> tuple[float, ...]:
    """Posterior probability that the next hidden outcome is x_j, for every j, at a fixed prior.

    A convex combination over frequency vectors: the weight of a is
    proportional to W(a) * P(a) and the combined value is the conjugate
    fraction (a_j + s t_j) / (n + s).  W already aggregates ordered
    assignments, so the ordered-dataset marginal P(a) needs no multiplicity
    factor, and only the ascending-factorial part of log P(a),
    sum_h log (s t_h)^{(a_h)}, is needed: the rest cancels in the
    normalised weights.  The log terms are shifted by their maximum before
    exponentiating, so a value keeps its accuracy when every W(a) is below
    the smallest float.
    """
    if prior.k != data.k:
        raise ValueError(f"prior has k={prior.k}, dataset has k={data.k}")
    counts, log_w = data.weight_pass
    s, t, n = prior.s, prior.t.coords, data.n
    terms = log_rising(s * t, counts) + log_w
    weights = np.exp(terms - terms.max())
    total = weights.sum()
    return tuple(
        float((weights * ((counts[:, j] + s * t[j]) / (n + s))).sum() / total)
        for j in range(data.k)
    )


# Unused here; perfbench/spans.py imports it and reads `refinement_passes` from
# a default instance.  Bounds take no search settings any more.
@dataclass(frozen=True)
class SearchSpec:
    refinement_passes: int = 0


def _envelope_limits(counts: np.ndarray, sides: Sequence[tuple[int, bool]], s: float) -> list:
    """(value, descriptor) of each open side (j, upper) that attains its envelope, else None.

    Every conjugate fraction (a_j + s t_j)/(n + s) lies below (A + s)/(n + s)
    and above B/(n + s), with A and B the largest and smallest a_j of the
    support `counts` (one row per vector).  The upper reaches its envelope
    iff, as every coordinate but j vanishes, the surviving face holds only
    vectors with a_j = A; the lower reaches its envelope iff, for some
    vanishing set containing j, it holds only vectors with a_j = B.  Both
    are decided on the exact support.  The equal-rate checks come first,
    for every side at once in one array pass: on the straight path to the
    vertex the vectors with the fewest nonzeros off column j survive, and
    with t_j alone vanishing all of them do, so the lower needs a_j
    constant.  Only a side that fails its check goes on to the faces with
    unequal rates (`strata.faces`).
    """
    n, k = sum(counts[0].tolist()), counts.shape[1]
    highest, lowest = counts.max(axis=0), counts.min(axis=0)
    present = counts > 0
    spread = present.sum(axis=1, keepdims=True) - present  # nonzeros off each column
    fewest = spread == spread.min(axis=0)
    straight = ~(fewest & (counts != highest)).any(axis=0)
    highest, lowest, straight = highest.tolist(), lowest.tolist(), straight.tolist()
    limits = []
    for j, upper in sides:
        if upper:
            target, value = highest[j], (highest[j] + s) / (n + s)
            if straight[j]:
                limits.append((value, BoundaryLimit(j, 1.0)))
                continue
            candidates = [tuple(h for h in range(k) if h != j)]
        else:
            target, value = lowest[j], lowest[j] / (n + s)
            if target == highest[j]:
                limits.append((value, BoundaryLimit(j, 0.0)))
                continue
            candidates = [
                z for size in range(2, k) for z in itertools.combinations(range(k), size) if j in z
            ]
        limits.append(_face_limit(counts, j, target, candidates, value))
    return limits


def _face_limit(counts: np.ndarray, j: int, target: int, candidates, value: float):
    """(value, stratum) of the first exposed face whose members all have a_j = target, else None.

    The vanishing sets `candidates` are tried in order, each face of one set
    with the rates that expose it.
    """
    from . import strata  # on first use: the equal-rate checks settle most sides

    for vanishing in candidates:
        for rates, members in strata.faces(counts[:, vanishing] > 0):
            if (counts[members, j] == target).all():
                rest = np.isin(np.arange(counts.shape[1]), vanishing, invert=True)
                limit = SimplexPoint(rest / rest.sum())
                return value, BoundaryStratum(vanishing, rates, (1.0,) * len(vanishing), limit)
    return None


def outcome_bounds(
    data: ManifestDataset, s: float, outcomes: Sequence[int]
) -> tuple[PredictiveBounds, ...]:
    """Lower/upper posterior predictive of each listed next hidden outcome over all t.

    Each side is first settled, where it can be, from the exact zero pattern
    of the observed emission entries (`vacuity_diagnosis`).  With no upper
    witness the all-x_j assignment has positive probability, it dominates as
    t_j -> 1, and the upper bound is exactly 1.  With no lower witness some
    assignment avoiding x_j has positive probability, the combination
    collapses onto such assignments as t_j -> 0, and the lower bound is
    exactly 0.  These limits are recorded as `BoundaryLimit`s.

    A side left open is next checked against its conjugate envelope on the
    exact support (`_envelope_limits`), the keys of the dataset's log-space
    weight pass.  Only the sides that do not attain it are searched
    (`strata.search`), over the weights of that same pass.  So when the
    diagnosis settles every side no weights are computed, and the n cap
    applies only to open sides.  Returns one entry per listed outcome, in
    order.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    if not all(0 <= j < data.k for j in outcomes):
        raise ValueError(f"outcome indices {list(outcomes)} must lie in [0, {data.k})")
    if data.k > DP_MAX_K:
        raise SizeCapError(f"predictive bounds capped at k <= {DP_MAX_K}; got k={data.k}")
    diagnosis = vacuity_diagnosis(data)
    found = {
        j: PredictiveBounds(0.0, 1.0, BoundaryLimit(j, 0.0), BoundaryLimit(j, 1.0))
        for j in outcomes
    }
    sides = [
        (j, upper)
        for j in found
        for upper, witnessed in (
            (False, diagnosis[j].lower_strictly_above_zero),
            (True, diagnosis[j].upper_strictly_below_one),
        )
        if witnessed
    ]
    if not sides:
        return tuple(found[j] for j in outcomes)

    counts, log_w = data.weight_pass
    settled = dict(zip(sides, _envelope_limits(counts, sides, s)))
    searched = [side for side, limit in settled.items() if limit is None]
    if searched:
        from . import strata  # on first use: most scenarios never search

        settled.update(zip(searched, strata.search(counts, log_w, s, searched)))
    for (j, upper), (value, where) in settled.items():
        if upper:
            found[j] = replace(found[j], upper=value, argmax_t=where)
        else:
            found[j] = replace(found[j], lower=value, argmin_t=where)
    return tuple(found[j] for j in outcomes)


def predictive_bounds(data: ManifestDataset, s: float, j: int) -> PredictiveBounds:
    """`outcome_bounds` for the single outcome j."""
    return outcome_bounds(data, s, (j,))[0]


def vacuity_diagnosis(data: ManifestDataset) -> VacuityDiagnosis:
    """Combinatorial learnability check from the observed emission entries.

    For each hidden outcome j: the upper predictive moves strictly below 1
    iff some observed (emission, row h) has lambda_{hj} = 0, and the lower
    moves strictly above 0 iff some observed row certifies x_j, i.e. has
    lambda_{hj} != 0 while lambda_{hr} = 0 for every r != j.  If every
    entry of every observed matrix is nonzero, both flags are false for all
    outcomes and the posterior predictive stays vacuous.  Zero tests are
    exact comparisons on the user-supplied entries.

    The diagnosis is stated for the fixed-strength Dirichlet near-ignorance
    set; other near-ignorance sets are only covered by the trend checks of
    the vacuity lab.
    """
    zero = (data.row_entries == 0.0).tolist()
    certifying = [row.count(True) == data.k - 1 for row in zero]
    per_outcome = []
    for j in range(data.k):
        upper_witnesses = tuple(i for i, row in enumerate(zero) if row[j])
        lower_witnesses = tuple(
            i
            for i, (row, certifies) in enumerate(zip(zero, certifying))
            if certifies and not row[j]
        )
        per_outcome.append(OutcomeDiagnosis(j, upper_witnesses, lower_witnesses))
    return VacuityDiagnosis(per_outcome=tuple(per_outcome))
