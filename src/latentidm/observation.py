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
W(a), after which no further multiplicity factor is needed.  Brute-force
enumeration over all k^n assignments is kept as a test oracle, not here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateRatioError, SizeCapError
from .idm import BoundaryLimit, BoundaryStratum, FrequencyVector, PredictiveBounds
from .simplex import DirichletParams, SimplexPoint

# Unused here; perfbench/spans.py wraps `observation.log_marginal_probability`
# and `observation.SimplexGrid` by name.
from .idm import log_marginal_probability  # noqa: F401
from .simplex import SimplexGrid  # noqa: F401

DP_MAX_N = 20
DP_MAX_K = 4

_COLUMN_SUM_TOL = 1e-12
_CHUNK_CELLS = 16_384


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


def latent_likelihood(data: ManifestDataset, theta) -> float | np.ndarray:
    """Likelihood of the observed sequence as a function of the chances.

    Computed through the per-index factorization prod_i sum_j lambda_{h_i j}
    theta_j, which equals the sum over all hidden assignments of
    P(observations | assignment) * P(assignment | theta).  Accepts a single
    point (returns float) or an (N, k) matrix of points (returns N values).
    """
    coords = theta.coords if isinstance(theta, SimplexPoint) else np.asarray(theta, dtype=float)
    single = coords.ndim == 1
    pts = coords[None, :] if single else coords
    if pts.shape[1] != data.k:
        raise ValueError(f"theta must have k={data.k} coordinates")
    acc = np.ones(pts.shape[0])
    for emission, row in data.observations:
        acc = acc * (pts @ emission.entries[row, :])
    return float(acc[0]) if single else acc


def _check_size(data: ManifestDataset) -> None:
    if data.n > DP_MAX_N or data.k > DP_MAX_K:
        raise SizeCapError(
            f"frequency-weight pass capped at n <= {DP_MAX_N}, k <= {DP_MAX_K}; "
            f"got n={data.n}, k={data.k}"
        )


def frequency_weights(data: ManifestDataset) -> dict[FrequencyVector, float]:
    """Total observation probability per hidden frequency vector.

    W(a) = sum over ordered hidden assignments with frequencies a of
    P(observations | assignment).  Computed by a forward pass over the
    observations whose state is the running count vector, costing
    O(n * binomial(n+k-1, k-1) * k) instead of the k^n enumeration.
    Frequency vectors whose weight is exactly zero are omitted.
    """
    _check_size(data)
    k = data.k
    states: dict[tuple[int, ...], float] = {(0,) * k: 1.0}
    for emission, row in data.observations:
        lam = emission.entries[row, :]
        nxt: dict[tuple[int, ...], float] = {}
        for counts, w in states.items():
            for j in range(k):
                contribution = w * lam[j]
                if contribution == 0.0:
                    continue
                key = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                nxt[key] = nxt.get(key, 0.0) + contribution
        states = nxt
    return {FrequencyVector(counts): w for counts, w in states.items()}


def frequency_support(data: ManifestDataset) -> list[tuple[int, ...]]:
    """The frequency vectors a with W(a) > 0, in sorted order.

    Found by integer reachability over the zero pattern of the observed
    emission entries: a is in the support iff some hidden assignment with
    frequencies a meets only nonzero entries.  No floating-point weight is
    formed, so a vector whose weight underflows is kept.
    """
    _check_size(data)
    states = {(0,) * data.k}
    for emission, row in data.observations:
        columns = [j for j, lam in enumerate(emission.entries[row].tolist()) if lam != 0.0]
        states = {c[:j] + (c[j] + 1,) + c[j + 1 :] for c in states for j in columns}
    return sorted(states)


def _log_support(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """Frequency vectors and log W(a) of the support, refusing one that underflowed."""
    weights = frequency_weights(data)
    if not weights:
        raise DegenerateRatioError(
            "every frequency weight underflowed to zero; the observed emission "
            "entries are too small for the frequency-weight pass"
        )
    counts = np.array([fv.counts for fv in weights], dtype=float)
    log_w = np.array([math.log(w) for w in weights.values()])
    return counts, log_w


def posterior_predictive_at_t(data: ManifestDataset, prior: DirichletParams) -> tuple[float, ...]:
    """Posterior probability that the next hidden outcome is x_j, for every j, at a fixed prior.

    A convex combination over frequency vectors: the weight of a is
    proportional to W(a) * P(a) and the combined value is the conjugate
    fraction (a_j + s t_j) / (n + s).  W already aggregates ordered
    assignments, so the ordered-dataset marginal P(a) needs no multiplicity
    factor.  One weight pass serves all k outcomes; this is the search's
    evaluator at the single point t.
    """
    if prior.k != data.k:
        raise ValueError(f"prior has k={prior.k}, dataset has k={data.k}")
    counts, log_w = _log_support(data)
    t = prior.t.coords[None, :]
    return tuple(_predictive_values(counts, log_w, prior.s, data.n, range(data.k), t)[0].tolist())


def _predictive_values(
    counts: np.ndarray,
    log_w: np.ndarray,
    s: float,
    n: int,
    outcomes: Sequence[int],
    t_points: np.ndarray,
) -> np.ndarray:
    """Posterior predictive of each listed outcome (columns) at every t-point (rows).

    The dataset-marginal term only needs the ascending-factorial part
    sum_h sum_{l<=a_h} log(s t_h + l - 1); the shared denominator cancels in
    the convex weights, which every outcome shares.  The points are swept in
    chunks sized so that no working buffer holds more than `_CHUNK_CELLS`
    floats.  The buffers are allocated once per call and filled in place,
    chunk by chunk, so besides the output the working set is
    O(`_CHUNK_CELLS`) floats (one point's row when |W| is larger) whatever
    the number of points.  The values are those of the plain elementwise
    formulas, operation for operation, and every sum runs over one point's
    row of |W| vectors, so a point's value does not depend on the chunk
    size, on the other points in the call, or on which other outcomes are
    listed.
    """
    n_points = t_points.shape[0]
    n_sets, k = counts.shape
    max_count = int(counts.max(initial=0))
    out = np.empty((n_points, len(outcomes)))
    widest = max(n_sets, k * (max_count + 1))  # cells per point of the largest buffer
    chunk = max(1, min(n_points, _CHUNK_CELLS // widest))
    icounts = np.ascontiguousarray(counts.T, dtype=np.intp)
    levels = np.arange(max_count + 1, dtype=float)
    steps = levels[:-1]
    # ladder[h, i, c] = log (s t_h)^{(c)} at point i; column 0 stays 0.  Its
    # terms rungs[h, l, i] = log(s t_h + l) and the fraction table[c, i] are
    # laid out along the points, so their elementwise passes stay long when
    # the counts are few.
    ladder = np.zeros((k, chunk, max_count + 1))
    rungs = np.empty((k, max_count, chunk))
    log_p = np.empty((chunk, n_sets))
    scratch = np.empty((chunk, n_sets))
    table = np.empty((max_count + 1, chunk))
    for start in range(0, n_points, chunk):
        t_block = t_points[start : start + chunk]
        m = t_block.shape[0]
        logs = rungs[:, :, :m]
        np.add((s * t_block.T)[:, None, :], steps[:, None], out=logs)
        np.log(logs, out=logs)
        np.cumsum(logs.transpose(0, 2, 1), axis=2, out=ladder[:, :m, 1:])
        weights, part, fractions = log_p[:m], scratch[:m], table[:, :m]
        # mode="clip" writes straight into `out` ("raise" would buffer it); counts are in range
        np.take(ladder[0, :m], icounts[0], axis=1, out=weights, mode="clip")
        for h in range(1, k):
            np.take(ladder[h, :m], icounts[h], axis=1, out=part, mode="clip")
            weights += part
        weights += log_w
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        total = weights.sum(axis=1)
        for column, j in enumerate(outcomes):
            # (a_j + s t_j) / (n + s) takes one value per count: gather it from a table
            np.add(levels[:, None], s * t_block[:, j], out=fractions)
            fractions /= n + s
            np.take(fractions.T, icounts[j], axis=1, out=part, mode="clip")
            part *= weights
            out[start : start + m, column] = part.sum(axis=1) / total
    return out


# Unused here; perfbench/spans.py imports it and reads `refinement_passes` from
# a default instance.  Bounds take no search settings any more.
@dataclass(frozen=True)
class SearchSpec:
    refinement_passes: int = 0


def _envelope_limit(support: list[tuple[int, ...]], j: int, upper: bool, s: float):
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
    exact support (`_envelope_limit`), which needs no weights.  Only the
    sides that do not attain it are searched (`strata.search`), all of them
    from one log-space weight pass.  So when every side is settled no weights
    are computed, and the n cap applies only to open sides.  Returns one
    entry per listed outcome, in order.
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

    support = frequency_support(data)
    settled = {side: _envelope_limit(support, *side, s) for side in sides}
    searched = [side for side, limit in settled.items() if limit is None]
    if searched:
        from . import strata  # on first use: most scenarios never search

        settled.update(zip(searched, strata.search(*strata.log_weights(data), s, searched)))
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
    set; other near-ignorance sets are only covered by the generic
    positivity condition checked in the vacuity lab.
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
