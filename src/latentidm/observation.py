"""Inference about a categorical latent variable observed through noisy channels.

A manifest observation carries information about the hidden outcome through a
known column-stochastic emission matrix.  The observed sequence's likelihood
factorizes per index, a dynamic program collapses the sum over hidden
assignments into weights on frequency vectors, and the posterior predictive
for the next hidden outcome becomes a convex combination of conjugate-update
fractions.

Whether a predictive bound can move off 0/1 at all is decided exactly, from
the distinct zero patterns of the observed rows: a bound with no witness
(`vacuity_diagnosis` lists them for `diagnose` documents) is its analytic
limit, 0 or 1.  A side the zero patterns leave open is first checked
against its conjugate envelope, also exactly from those patterns: on the
straight path to a vertex, and for an upper then on the faces with unequal
rates.  Only a side whose envelope is not attained there is searched, over
the interior of the prior-mean simplex and over each of its boundary
strata.  An observation whose row is zero under every hidden outcome is
impossible and is rejected when the dataset is built.

The key bookkeeping split: the probability of the observed sequence given a
hidden assignment depends on the full ordered assignment, while the prior
probability of an assignment depends only on its frequencies.  The dynamic
program therefore aggregates ordered assignments into frequency weights
W(a), after which no further multiplicity factor is needed.  It runs over
each observation's emission row, all a dataset keeps (`likelihood_terms`),
in one of two spaces that the rows pick before it starts.  When the
product of the rows' smallest nonzero entries exceeds 2^-1000 and the
product of their sums, each floored at 1, stays below 2^1000, no weight can
underflow or overflow, and it runs on W itself: a product per allowed
outcome and their sum.  Otherwise it runs on log W and combines the rows an
observation allows by `np.logaddexp` when there are one or two and by one
max-shifted log-sum-exp when there are more.  A dataset runs it at most
once, as its cached `weight_pass`, and only when something reads it: the
search of a side the zero patterns do not settle, a fixed-prior value
(`hyper.t`) or `frequency_weights`.  Its states are
ordered by grade, the sum of the first k - 1 counts, so each observation
updates only the states it can reach; that index is built once per (k, n).
The same pass is a channel likelihood's coefficient map in the trend lab.
One cap, `MAX_WORK`, bounds it and the search by their work.  Brute-force
enumeration, a dict pass, an exact-rational pass and a lexicographic pass
are test oracles.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
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

DP_MAX_K = 4  # the search's k cap
# one work cap: a weight pass's state updates and cells (`check_weight_pass_size`) and a
# search's cells (`strata.search`); every dataset of k <= 4 and up to 20 observations meets both
MAX_WORK = 1 << 22

_COLUMN_SUM_TOL = 1e-12


def check_weight_pass_size(n: int, k: int) -> None:
    """Raise SizeCapError for a weight pass past MAX_WORK state updates or index cells."""
    updates, cells = math.comb(n + k, k) - 1, k * math.comb(n + k - 1, k - 1)
    if max(updates, cells) > MAX_WORK:
        work = f"k={k}, n={n} needs {updates:,} updates and {cells:,} cells"
        raise SizeCapError(f"weight pass capped at {MAX_WORK:,} state updates and cells; {work}")


@dataclass(frozen=True)
class EmissionMatrix:
    """Conditional observation probabilities, one column per hidden outcome.

    entries[h, j] = P(observe row h | hidden outcome j).  Every column must
    sum to 1; rows enumerate the possible manifest outcomes.
    """

    entries: np.ndarray

    def __init__(self, entries) -> None:
        self._hold(np.array(entries, dtype=float))  # a copy: the caller may change its own

    def _hold(self, arr: np.ndarray) -> None:
        """Check and keep `arr` itself, read-only."""
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError("emission matrix must be 2-D with k >= 2 columns")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
            raise ValueError("emission entries must lie in [0, 1]")
        for j, total in enumerate(arr.sum(axis=0).tolist()):
            if abs(total - 1.0) > _COLUMN_SUM_TOL:
                raise ValueError(f"emission column {j} sums to {total!r}, expected 1")
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
        matrix = object.__new__(EmissionMatrix)
        matrix._hold(np.eye(k))  # held without a copy: nothing else refers to it
        return matrix


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
        # each distinct matrix is checked once, with which of its rows are possible, and its
        # rows are gathered with one `take`; the first observation that fails is the one named
        matrices = {}  # id -> (matrix, its possible rows, the positions and rows it serves)
        for i, (emission, row) in enumerate(observations):
            if id(emission) not in matrices:  # each matrix is held here, so no id is reused
                if emission.k != k:
                    raise ValueError(f"observation {i}: emission has k={emission.k}, expected {k}")
                matrices[id(emission)] = emission, emission.entries.any(axis=1).tolist(), [], []
            _, possible, positions, rows = matrices[id(emission)]
            if not 0 <= row < emission.manifest_count:
                raise ValueError(f"observation {i}: row {row} out of range")
            if not possible[row]:
                raise ValueError(
                    f"observation {i}: row {row} has probability zero under every hidden outcome"
                )
            positions.append(i)
            rows.append(row)
        entries = np.empty((sum(len(served[2]) for served in matrices.values()), k))
        for emission, _, positions, rows in matrices.values():
            entries[positions] = emission.entries.take(rows, axis=0)
        entries.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "row_entries", entries)

    @property
    def n(self) -> int:
        return len(self.row_entries)

    @cached_property
    def weight_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """`likelihood_terms`, run on first use and shared by every consumer."""
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


# an index holds up to 39.6 MiB (k = 7, n = 24), so the cache keeps only the last 4 shapes
@functools.lru_cache(maxsize=4)
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
    (the k-th at step n) in that order, as int16 (the work cap keeps every
    count below 2^15).  prefixes[i - 1][j] is predecessors[j] cut to
    ends[i - 1], the slice observation i gathers at, cut once here rather
    than at every pass; prefixes[-1] holds them whole.  Positions are ranks
    in the combinatorial number system (Knuth, TAOCP Vol. 4A, 7.2.1.3), on
    binomial[p, x] = C(x + p, p).
    The arrays are read-only: the cache hands the same ones to every
    dataset of this (k, n).  The work is checked from (k, n) first.
    """
    check_weight_pass_size(n, k)
    binomial = np.array([[math.comb(x + p, p) for x in range(n + 1)] for p in range(k)])
    size = int(binomial[k - 1, n])
    # the count vectors in lexicographic order, one count at a time: a prefix of the first
    # i + 1 counts with sum `total` stands for its binomial[k - 2 - i, n - total] completions
    counts = np.empty((size, k), dtype=np.int16)
    total = np.zeros(1, dtype=np.int64)
    for i in range(k - 1):
        room = n + 1 - total
        part = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        total = np.repeat(total, room) + part
        counts[:, i] = np.repeat(part, binomial[k - 2 - i][n - total])
    counts[:, k - 1] = n - total
    # graded position: the C(g + k - 2, k - 1) states of lower grade, then the rank within the
    # grade, sum_i C(r_i + p_i, p_i) - C(r_i - c_i + p_i, p_i), r_i the grade left at count i
    rank, rest = binomial[k - 1][total] - binomial[k - 2][total], total
    for i in range(k - 2):
        rank += binomial[k - 2 - i][rest] - binomial[k - 2 - i][rest - counts[:, i]]
        rest = rest - counts[:, i]
    # one x_j back maps the states of each grade with count j >= 1, in order, onto the whole
    # grade below, so their predecessors are the states of grade < n, in order
    graded = np.empty_like(counts)
    graded[rank] = counts
    predecessors = tuple(np.full(size, size) for _ in range(k - 1))
    for j, predecessor in enumerate(predecessors):
        predecessor[np.flatnonzero(graded[:, j])] = np.arange(size - binomial[k - 2, n])
    for array in (counts, rank, *predecessors):
        array.setflags(write=False)
    ends = tuple(binomial[k - 1, 1:].tolist())
    prefixes = tuple(tuple(predecessor[:m] for predecessor in predecessors) for m in ends)
    return counts, prefixes, rank, ends


_LOWEST = np.finfo(float).min  # the max shift's floor: -inf - -inf would be NaN
# the linear pass's range: every weight it reaches lies within it, a normal float well inside
# 2^-1022 and 2^1024, so none underflows or overflows and one that is reached is positive
_LINEAR_LOW, _LINEAR_HIGH = 2.0**-1000, 2.0**1000


def _linear_sum(rows: np.ndarray, spare: np.ndarray, out: np.ndarray) -> None:
    """out = sum_r rows[r], elementwise, row after row."""
    np.add.reduce(rows, axis=0, out=out)


def _log_sum_exp(rows: np.ndarray, spare: np.ndarray, out: np.ndarray) -> None:
    """out = log sum_r exp(rows[r]), elementwise; overwrites `rows` and `spare`.

    Two rows or fewer take one `np.logaddexp.reduce`, a call that costs a
    scalar exp and log1p per element and pair.  Three or more take the
    max-shifted sum, six array calls that cost more per call and less per
    element: `out` holds the shift, so its old values must already be
    gathered into `rows`, and `spare` the sum.  The shift's floor is the
    lowest finite float, so a column of -inf sums to 0 and stays -inf
    under its log.  Call under np.errstate(divide="ignore").
    """
    if len(rows) < 3:
        np.logaddexp.reduce(rows, axis=0, out=out)
        return
    np.maximum.reduce(rows, axis=0, initial=_LOWEST, out=out)
    np.subtract(rows, out, out=rows)
    np.exp(rows, out=rows)
    np.add.reduce(rows, axis=0, out=spare)
    np.log(spare, out=spare)
    np.add(out, spare, out=out)


def likelihood_terms(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """The support of W, in sorted order, and log W(a) of each of its vectors.

    The likelihood of the observed sequence is sum_a W(a) theta^a, so these
    are its exponent rows and log coefficients.  A vector is kept iff some
    hidden assignment with its frequencies meets only nonzero emission
    entries.  Observation i updates only the states it can reach, the
    prefix of grade <= i of the graded index (`_state_index`): it gathers
    W at their predecessors under every outcome its row allows (x_k's is
    the prefix itself), scales each gathered row by its emission entry and
    combines the rows.  That is C(n+k, k) - 1 state updates in all,
    against n * C(n+k-1, k-1) over every state.

    The rows pick the pass's space before it starts.  When the product of
    the rows' smallest nonzero entries exceeds 2^-1000 and the product of
    their sums, each floored at 1, stays below 2^1000, every weight the pass
    reaches lies between the two, a normal float, so it runs on W itself:
    one product per allowed outcome and their sum (`_linear_sum`), which
    rounds far less than logs do.  Otherwise a weight could underflow or
    overflow, and it runs on log W: it adds log entries and combines the
    rows by `_log_sum_exp`, one or two by `np.logaddexp`, three or more by
    their max-shifted sum.  Each step reads its predecessor slices off the
    index, cut once per (k, n), and each distinct emission row is scanned
    once.  Unreached states stay 0 or -inf; after the last step the index's
    permutation puts W back in lexicographic order, and the reached entries
    are the support, gathered with `compress` (a boolean index of the
    int16 counts takes numpy's slower general path) and returned as int64.
    This is the library's one weight pass, capped by its work in the index;
    `ManifestDataset.weight_pass` caches it per dataset, and a trend
    `channel` likelihood calls it directly.
    """
    k, n = data.k, data.n
    counts, prefixes, rank, ends = _state_index(k, n)
    size = len(rank)
    # the product of the rows' smallest nonzero entries bounds every reached weight from below,
    # that of their sums floored at 1 from above; a product that underflows or overflows is out.
    # Each distinct row is scanned once: its allowed (outcome, entry) pairs, least entry and sum
    scans, rows, low, high = {}, [], 1.0, 1.0
    for lam in map(tuple, data.row_entries.tolist()):
        scan = scans.get(lam)
        if scan is None:
            allowed = [(j, x) for j, x in enumerate(lam) if x != 0.0]
            scan = scans[lam] = allowed, min(x for _, x in allowed), max(1.0, sum(lam))
        rows.append(scan[0])
        low *= scan[1]
        high *= scan[2]
    linear = low > _LINEAR_LOW and high < _LINEAR_HIGH
    if linear:
        unreached, scale, combine = 0.0, np.multiply, _linear_sum
    else:
        logs = {id(scan[0]): [(j, math.log(x)) for j, x in scan[0]] for scan in scans.values()}
        rows = [logs[id(allowed)] for allowed in rows]
        unreached, scale, combine = -np.inf, np.add, _log_sum_exp
    w = np.full(size + 1, unreached)  # an extra slot, unreached, stands for a count of -1
    w[0] = 1.0 if linear else 0.0  # the zero vector
    terms = np.empty((k + 1, size))  # a gathered row per allowed outcome, and a spare
    head, block = w, terms  # each step's prefixes of the two, cut once per step
    with np.errstate(divide="ignore"):  # log(0) is how an unreached state stays -inf
        for m, before, allowed in zip(ends, prefixes, rows):
            head, block = w[:m], terms[:, :m]
            for r, (j, x) in enumerate(allowed):  # unnamed, each gathered row is freed before the next
                scale(head if j == k - 1 else w[before[j]], x, out=block[r])
            combine(block[: len(allowed)], block[k], out=head)
    del terms, head, block  # the working rows, freed before the support is gathered
    w = w[rank]
    reached = w > unreached
    w = w[reached]
    return counts.compress(reached, axis=0).astype(np.int64), np.log(w) if linear else w


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
    s, alpha, n = prior.s, prior.alpha, data.n
    terms = log_rising(alpha, counts) + log_w
    weights = np.exp(terms - terms.max())
    total = weights.sum()
    # one table of weighted fractions, a row per outcome; each row is summed on its own, as
    # the 1-D sum it always was (a sum along the table's axis adds in another order)
    table = np.add(counts.T, alpha[:, None], order="C")
    table /= n + s
    table *= weights
    return tuple(float(row.sum() / total) for row in table)


# Unused here; perfbench/spans.py imports it and reads `refinement_passes` from
# a default instance.  Bounds take no search settings any more.
@dataclass(frozen=True)
class SearchSpec:
    refinement_passes: int = 0


def _zero_patterns(data: ManifestDataset) -> Counter:
    """The observed rows' distinct zero patterns, {bit mask of the outcomes a row allows: rows}."""
    return Counter(((data.row_entries != 0.0) @ (1 << np.arange(data.k))).tolist())


# the sets of at most DP_MAX_K outcomes as bit masks (bit h for outcome h), grouped by size
_SUBSETS = [[t for t in range(1 << DP_MAX_K) if t.bit_count() == c] for c in range(DP_MAX_K + 1)]


def _envelope_limits(patterns: dict[int, int], sides: Sequence[tuple[int, bool]], s: float) -> list:
    """(value, descriptor) of each open side (j, upper) that an equal-rate path settles, else None.

    `patterns` maps each distinct zero pattern of the observed rows, the bit
    mask of the outcomes a row allows, to its number of rows.  With A_j the
    rows that allow j and B_j those that allow only j, every conjugate
    fraction (a_j + s t_j)/(n + s) of the support lies below (A_j + s)/(n + s)
    and above B_j/(n + s).  With t_j alone vanishing every vector survives,
    so the lower reaches its envelope iff a_j is constant: B_j = A_j.  On the
    straight path to the vertex the vectors with the fewest outcomes but j
    survive: those whose other outcomes form a minimum-size hitting set T of
    the rows that exclude j (T empty when no row does).  So the upper
    reaches its envelope iff no such T meets a row that allows j, for then
    every such row can still pick j.  Sets of patterns are bit masks too
    (bit m for pattern m), so each of the at most 2^(DP_MAX_K - 1) = 8 sets
    T takes one mask test.  An upper that fails its check goes on to the
    faces with unequal rates (`_face_limit`), a lower to the search.
    """
    n = sum(patterns.values())
    # the patterns that allow each outcome, and those that meet each set t of outcomes,
    # built up from t without its lowest outcome
    allowing = [sum(1 << m for m in patterns if m >> h & 1) for h in range(DP_MAX_K)]
    meeting = [0] * (1 << DP_MAX_K)
    for t in range(1, 1 << DP_MAX_K):
        meeting[t] = meeting[t & (t - 1)] | allowing[(t & -t).bit_length() - 1]
    limits = []
    for j, upper in sides:
        if upper:
            excluding = meeting[-1] & ~allowing[j]
            for group in _SUBSETS:  # a smallest hitting set holds no outcome past k - 1
                met = 0  # the outcomes of the smallest hitting sets
                for t in group:
                    if not t >> j & 1 and meeting[t] & excluding == excluding:
                        met |= t
                if met or not excluding:
                    break
            if not meeting[met] & allowing[j]:
                rows = sum(c for m, c in patterns.items() if m >> j & 1)
                limits.append(((rows + s) / (n + s), BoundaryLimit(j, 1.0)))
                continue
        elif not allowing[j] & ~(1 << (1 << j)):  # no pattern but {j} allows j
            limits.append((patterns.get(1 << j, 0) / (n + s), BoundaryLimit(j, 0.0)))
            continue
        limits.append(None)
    return limits


def _face_limit(patterns: dict[int, int], k: int, j: int, s: float):
    """(value, stratum) where the upper of j reaches its envelope at unequal rates, else None.

    With every outcome but j vanishing, a vector's pattern {h != j: a_h > 0}
    hits each row that excludes j, and each minimal hitting set is the
    pattern of a vector whose rows that allow j all pick j.  Positive rates
    r minimise <r, P> over the hitting sets P only on minimal ones, so the
    hitting sets expose the faces of the support, in its order and with its
    rates (`strata.faces`).  The first face whose sets meet no row that
    allows j holds only vectors with a_j = A_j, for such a row could pick an
    outcome of the face instead, and settles the upper at (A_j + s)/(n + s).
    """
    from . import strata  # on first use: the equal-rate check settles most uppers

    z = tuple(h for h in range(k) if h != j)
    excluding = [m for m in patterns if not m >> j & 1]
    hitting = [t for t in range(1 << k) if not t >> j & 1 and all(t & m for m in excluding)]
    sets = np.array([[t >> h & 1 for h in z] for t in hitting], dtype=bool)
    for rates, members in strata.faces(sets):
        face = [t for t, member in zip(hitting, members.tolist()) if member]
        if not any(t & m for t in face for m in patterns if m >> j & 1):
            rows = sum(c for m, c in patterns.items() if m >> j & 1)
            where = BoundaryStratum(z, rates, (1.0,) * len(z), SimplexPoint(np.eye(k)[j]))
            return (rows + s) / (sum(patterns.values()) + s), where
    return None


def outcome_bounds(
    data: ManifestDataset, s: float, outcomes: Sequence[int]
) -> tuple[PredictiveBounds, ...]:
    """Lower/upper posterior predictive of each listed next hidden outcome over all t.

    Each side is first settled, where it can be, from the exact zero pattern
    of the observed emission entries, read off the rows' distinct zero
    patterns (`_zero_patterns`); they decide the same flags as the witnesses
    of `vacuity_diagnosis`.  With no row that rules x_j out, the all-x_j
    assignment has positive probability, it dominates as t_j -> 1, and the
    upper bound is exactly 1.  With no row that allows x_j alone, some
    assignment avoiding x_j has positive probability, the combination
    collapses onto such assignments as t_j -> 0, and the lower bound is
    exactly 0.  These limits are recorded as `BoundaryLimit`s.

    A side left open is next checked against its conjugate envelope on the
    equal-rate paths, again from the rows' distinct zero patterns alone
    (`_envelope_limits`), and an upper that fails there on the faces with
    unequal rates, from the same patterns (`_face_limit`).  Only the sides
    that fail both read the dataset's weight pass, for the search
    (`strata.search`).  So the pass runs here only for a searched side, and
    a fixed-prior value (`posterior_predictive_at_t`) runs it otherwise.
    The pass's work cap is checked whenever a side is open, so a refusal
    does not depend on which check settles it; k is capped for every side.
    Returns one entry per listed outcome, in order.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    if not all(0 <= j < data.k for j in outcomes):
        raise ValueError(f"outcome indices {list(outcomes)} must lie in [0, {data.k})")
    if data.k > DP_MAX_K:
        raise SizeCapError(f"predictive bounds capped at k <= {DP_MAX_K}; got k={data.k}")
    patterns = _zero_patterns(data)
    # an upper is open iff some row rules j out, a lower iff some row allows j alone
    sides = [
        (j, upper)
        for j in dict.fromkeys(outcomes)
        for upper, witnessed in (
            (False, 1 << j in patterns),
            (True, any(not m >> j & 1 for m in patterns)),
        )
        if witnessed
    ]
    settled = {}
    if sides:
        check_weight_pass_size(data.n, data.k)
        settled = dict(zip(sides, _envelope_limits(patterns, sides, s)))
        for j, upper in sides:
            if upper and settled[j, upper] is None:
                settled[j, upper] = _face_limit(patterns, data.k, j, s)
        searched = [side for side, limit in settled.items() if limit is None]
        if searched:
            from . import strata  # on first use: the zero-pattern checks settle most sides

            counts, log_w = data.weight_pass
            settled.update(zip(searched, strata.search(counts, log_w, s, searched)))
    bounds = []
    for j in outcomes:
        lower, argmin_t = settled.get((j, False)) or (0.0, BoundaryLimit(j, 0.0))
        upper, argmax_t = settled.get((j, True)) or (1.0, BoundaryLimit(j, 1.0))
        bounds.append(PredictiveBounds(lower, upper, argmin_t, argmax_t))
    return tuple(bounds)


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
