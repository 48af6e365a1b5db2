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
W(a), after which no further multiplicity factor is needed.  The library
runs it once per dataset, vectorised in log space (`log_weights`), and the
bounds, the fixed-prior values and `frequency_weights` all read that one
pass.  The same pass without the size cap (`likelihood_terms`) is the
coefficient map of a channel likelihood in the trend lab.  Brute-force
enumeration and a dict pass are kept as test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

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


@dataclass(frozen=True)
class ManifestDataset:
    """An ordered sequence of observations, each an (emission, row) pair."""

    observations: tuple[tuple[EmissionMatrix, int], ...]
    k: int

    def __post_init__(self) -> None:
        obs = tuple(self.observations)
        object.__setattr__(self, "observations", obs)
        if self.k < 2:
            raise ValueError("k must be >= 2")
        for i, (emission, row) in enumerate(obs):
            if emission.k != self.k:
                raise ValueError(f"observation {i}: emission has k={emission.k}, expected {self.k}")
            if not 0 <= row < emission.manifest_count:
                raise ValueError(f"observation {i}: row {row} out of range")
            if not np.any(emission.entries[row, :] != 0.0):
                raise ValueError(
                    f"observation {i}: row {row} has probability zero under every hidden outcome"
                )

    @property
    def n(self) -> int:
        return len(self.observations)

    @cached_property
    def weight_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """`log_weights` of this dataset, computed on first use and shared by every consumer."""
        return log_weights(self)

    @staticmethod
    def from_rows(emission: EmissionMatrix, rows: Sequence[int]) -> "ManifestDataset":
        """Shorthand for one emission matrix shared by every index."""
        return ManifestDataset(tuple((emission, int(r)) for r in rows), k=emission.k)


@dataclass(frozen=True)
class OutcomeDiagnosis:
    """Learnability flags for one hidden outcome, with witnessing indices."""

    outcome: int
    upper_strictly_below_one: bool
    upper_witnesses: tuple[int, ...]
    lower_strictly_above_zero: bool
    lower_witnesses: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.upper_strictly_below_one != bool(self.upper_witnesses):
            raise ValueError("upper flag must mirror its witness list")
        if self.lower_strictly_above_zero != bool(self.lower_witnesses):
            raise ValueError("lower flag must mirror its witness list")

    @property
    def vacuous(self) -> bool:
        """True when neither bound can move off its analytic limit, 0 or 1."""
        return not (self.upper_strictly_below_one or self.lower_strictly_above_zero)


@dataclass(frozen=True)
class VacuityDiagnosis:
    per_outcome: tuple[OutcomeDiagnosis, ...]

    @property
    def fully_vacuous(self) -> bool:
        """True when no outcome's bounds can move off (0, 1)."""
        return all(d.vacuous for d in self.per_outcome)

    def __getitem__(self, j: int) -> OutcomeDiagnosis:
        return self.per_outcome[j]


def _check_size(data: ManifestDataset) -> None:
    if data.n > DP_MAX_N or data.k > DP_MAX_K:
        raise SizeCapError(
            f"frequency-weight pass capped at n <= {DP_MAX_N}, k <= {DP_MAX_K}; "
            f"got n={data.n}, k={data.k}"
        )


def frequency_weights(data: ManifestDataset) -> dict[FrequencyVector, float]:
    """Total observation probability per hidden frequency vector.

    W(a) = sum over ordered hidden assignments with frequencies a of
    P(observations | assignment): the exponentials of `log_weights`, whose
    forward pass costs O(n * binomial(n+k-1, k-1) * k) instead of the k^n
    enumeration.  Frequency vectors whose weight rounds to 0.0 are omitted.
    """
    counts, log_w = log_weights(data)
    weights = zip(counts.tolist(), map(math.exp, log_w.tolist()))
    return {FrequencyVector(tuple(a)): w for a, w in weights if w != 0.0}


def _state_index(k: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The states of `likelihood_terms`, in lexicographic order, and their predecessors.

    A state is a vector of the first k - 1 counts with sum <= n (the k-th is
    the step minus their sum).  predecessors[j][i] is the state one x_j
    before state i, or len(states), an extra -inf slot, when count j is 0;
    x_k leaves the state as is, and a state whose sum exceeds the step is
    unreached, so it reads -inf as well.
    """
    # each prefix extends by each count that keeps the sum <= n
    heads = np.zeros((1, 0), dtype=np.int64)
    for _ in range(k - 1):
        room = n + 1 - heads.sum(axis=1)
        last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        heads = np.column_stack((np.repeat(heads, room, axis=0), last))
    size = len(heads)
    # a position table over the counts plus one, in base n + 2: a count of -1 lands on a
    # slot that is no state, and every such slot holds `size`
    strides = np.array([(n + 2) ** (k - 2 - j) for j in range(k - 1)], dtype=np.int64)
    codes = (heads + 1) @ strides
    position = np.full((n + 2) ** (k - 1), size, dtype=np.int64)
    position[codes] = np.arange(size)
    return heads, [position[codes - stride] for stride in strides] + [np.arange(size)]


def log_weights(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """`likelihood_terms` under the n <= 20, k <= 4 cap of the bounds and fixed-prior values.

    A dataset runs it at most once, through `ManifestDataset.weight_pass`.
    """
    _check_size(data)
    return likelihood_terms(data)


def likelihood_terms(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """The support of W, in sorted order, and log W(a) of each of its vectors.

    The likelihood of the observed sequence is sum_a W(a) theta^a, so these
    are its exponent rows and log coefficients.  A forward pass in log
    space, so no weight underflows however small the entries are: a vector
    is kept iff some hidden assignment with its frequencies meets only
    nonzero emission entries.  Each observation gathers log W at the
    predecessors (`_state_index`) under every outcome its row allows, adds
    their log emission entries and combines the rows pairwise with
    `np.logaddexp`.  Unreached states stay -inf; the finite ones after the
    last step are the support, already sorted.  This is the library's one
    weight pass; it has no size cap of its own.
    """
    k, n = data.k, data.n
    heads, predecessors = _state_index(k, n)
    size = len(heads)
    log_w = np.full(size + 1, -np.inf)
    log_w[0] = 0.0  # the zero vector
    terms = np.empty((k, size))
    for emission, row in data.observations:
        lam = emission.entries[row]
        allowed = [j for j in range(k) if lam[j] != 0.0]
        rows = terms[: len(allowed)]
        for r, j in enumerate(allowed):
            np.add(log_w[predecessors[j]], math.log(lam[j]), out=rows[r])
        np.logaddexp.reduce(rows, axis=0, out=log_w[:size])
    reached = np.flatnonzero(log_w[:size] > -np.inf)
    heads = heads[reached]
    return np.column_stack((heads, n - heads.sum(axis=1))), log_w[reached]


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


def _envelope_limit(support: Sequence[Sequence[int]], j: int, upper: bool, s: float):
    """(value, descriptor) of an open side that attains its conjugate envelope, else None.

    Every conjugate fraction (a_j + s t_j)/(n + s) lies below (A + s)/(n + s)
    and above B/(n + s), with A and B the largest and smallest a_j of the
    support.  The upper reaches its envelope iff, as every coordinate but j
    vanishes, the surviving face holds only vectors with a_j = A; the lower
    reaches its envelope iff, for some vanishing set containing j, it holds
    only vectors with a_j = B.  Both are decided on the exact support, with
    equal rates (the straight path to the vertex, or t_j alone vanishing)
    tried first.  Plain Python: most runs stop at those first checks.
    """
    n, k = sum(support[0]), len(support[0])
    column = [a[j] for a in support]
    if upper:
        target = max(column)
        value = (target + s) / (n + s)
        others = tuple(h for h in range(k) if h != j)
        spread = [sum(a[h] > 0 for h in others) for a in support]
        least = min(spread)
        if all(c == target for c, w in zip(column, spread) if w == least):
            return value, BoundaryLimit(j, 1.0)
        candidates = [others]
    else:
        target = min(column)
        value = target / (n + s)
        if all(c == target for c in column):
            return value, BoundaryLimit(j, 0.0)
        candidates = [z for size in range(2, k) for z in itertools.combinations(range(k), size)]
        candidates = [z for z in candidates if j in z]
    from . import strata  # on first use: the equal-rate checks above settle most sides

    counts = np.array(support)
    for vanishing in candidates:
        for rates, members in strata.faces(counts[:, vanishing] > 0):
            if (counts[members, j] == target).all():
                rest = np.isin(np.arange(k), vanishing, invert=True)
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
    exact support (`_envelope_limit`), the keys of the dataset's log-space
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
    support = counts.tolist()
    settled = {side: _envelope_limit(support, *side, s) for side in sides}
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
    rows = [emission.entries[row, :] for emission, row in data.observations]
    per_outcome = []
    for j in range(data.k):
        upper_witnesses = tuple(i for i, lam in enumerate(rows) if lam[j] == 0.0)
        lower_witnesses = tuple(
            i
            for i, lam in enumerate(rows)
            if lam[j] != 0.0 and all(lam[r] == 0.0 for r in range(data.k) if r != j)
        )
        per_outcome.append(
            OutcomeDiagnosis(
                outcome=j,
                upper_strictly_below_one=bool(upper_witnesses),
                upper_witnesses=upper_witnesses,
                lower_strictly_above_zero=bool(lower_witnesses),
                lower_witnesses=lower_witnesses,
            )
        )
    return VacuityDiagnosis(per_outcome=tuple(per_outcome))
