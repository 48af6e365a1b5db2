"""Dirichlet-multinomial machinery.

Dirichlet moments in log space, which are also the marginal probabilities
of ordered datasets, the types that record a predictive bound and where it
is approached, and the classic fully-observable predictive bounds obtained
from a near-ignorance set of Dirichlet priors with fixed strength s.
`log_moments` takes a table of priors, one strength and one alpha row per
prior, as the trend lab builds for each block of a schedule's indices.

Throughout, marginal probabilities refer to an ordered dataset: no
multinomial coefficient is included.  Multiplicity factors are applied only
where a caller collapses a sum over ordered sequences.  Empty products are 1
and 0**0 is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simplex import DirichletParams, SimplexPoint


# Slotted: the weight pass keeps one per support vector, up to 1,771 at k=4, n=20.
@dataclass(frozen=True, slots=True)
class FrequencyVector:
    """Outcome counts (a_1, ..., a_k) of a categorical dataset."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 2:
            raise ValueError("a frequency vector needs k >= 2 outcome counts")
        for c in self.counts:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be nonnegative integers, got {self.counts}")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]


@dataclass(frozen=True)
class BoundaryLimit:
    """Marks a bound attained only in the limit t[coordinate] -> value.

    The hyperparameter set is the open simplex, so such bounds are suprema
    or infima approached at its boundary, not attained values.
    """

    coordinate: int
    value: float

    def __post_init__(self) -> None:
        if self.value not in (0.0, 1.0):
            raise ValueError("boundary limits are t_j -> 0 or t_j -> 1")


@dataclass(frozen=True)
class BoundaryStratum:
    """Marks a bound approached as the coordinates `vanishing` of t go to 0 at set rates.

    Along t[h] = multipliers[i] * eps**rates[i] for h = vanishing[i], with
    the other coordinates proportional to `limit` (which is 0 on the
    vanishing ones), the predictive tends to the bound as eps -> 0.  The
    rates pick which frequency vectors survive the limit: those minimising
    sum_i rates[i] * [a_h > 0].  `BoundaryLimit(j, 0)` is the stratum where
    t[j] alone vanishes, and `BoundaryLimit(j, 1)` the one where every other
    coordinate vanishes at rate 1.
    """

    vanishing: tuple[int, ...]
    rates: tuple[int, ...]
    multipliers: tuple[float, ...]
    limit: SimplexPoint


@dataclass(frozen=True)
class PredictiveBounds:
    """A lower/upper probability pair with the extremizing t recorded.

    argmin_t / argmax_t hold the interior point where the extremum was
    found (a SimplexPoint), or the boundary stratum it is approached on (a
    BoundaryLimit or BoundaryStratum) when it is attained only in a limit.
    """

    lower: float
    upper: float
    argmin_t: SimplexPoint | BoundaryLimit | BoundaryStratum | None = None
    argmax_t: SimplexPoint | BoundaryLimit | BoundaryStratum | None = None

    def __post_init__(self) -> None:
        slack = 1e-12
        if not (-slack <= self.lower <= self.upper <= 1.0 + slack):
            raise ValueError(f"need 0 <= lower <= upper <= 1, got ({self.lower}, {self.upper})")
        object.__setattr__(self, "lower", min(max(self.lower, 0.0), 1.0))
        object.__setattr__(self, "upper", min(max(self.upper, 0.0), 1.0))


def log_marginal_probability(prior: DirichletParams, freq: FrequencyVector) -> float:
    """Log probability of an ordered dataset with the given frequencies (`log_moments`)."""
    if freq.k != prior.k:
        raise ValueError(f"frequency vector has k={freq.k}, prior has k={prior.k}")
    return float(log_moments(prior.alpha, prior.s, np.array([freq.counts]))[0])


def log_moments(alpha: np.ndarray, s: float | np.ndarray, counts: np.ndarray) -> np.ndarray:
    """log E[theta^a] under Dirichlet(alpha) of strength s, for each row a of a nonnegative
    integer matrix; a (B, k) stack of alphas with B strengths gives one row per prior.

    E[theta^a] = prod_h alpha_h^{(a_h)} / s^{(|a|)} is also the probability
    of an ordered dataset with frequencies a.  Evaluated in log space so
    ascending factorials cannot overflow; empty products are 1.  s is taken
    as given, not as the sum of alpha, which can differ from it in the last bit.
    """
    sizes = counts.sum(axis=1, keepdims=True)
    return log_rising(alpha, counts) - log_rising(np.asarray(s, dtype=float)[..., None], sizes)


def log_rising(alpha: Sequence[float], counts: np.ndarray) -> np.ndarray:
    """sum_h log (alpha_h)^{(counts[r, h])} for each row r of a nonnegative integer matrix;
    a (B, k) stack of alphas gives a (B, R) array, one row per alpha.

    ladder[..., h, c] = log (alpha_h)^{(c)} is one cumulative sum of log(alpha_h + j),
    read by every row; it holds alpha.size x (largest count + 1) numbers.  Each
    coordinate's rungs are gathered with one `take` along the ladder, not by
    numpy's slower mixed (ellipsis and array) indexing, and summed in place into
    the first coordinate's, in coordinate order.
    """
    alpha = np.asarray(alpha, dtype=float)
    ladder = np.zeros((*alpha.shape, int(counts.max()) + 1))
    rungs = ladder[..., 1:]  # filled in place: a huge count costs one ladder, no copies
    np.add(alpha[..., None], np.arange(rungs.shape[-1]), out=rungs)
    np.log(rungs, out=rungs)
    np.cumsum(rungs, axis=-1, out=rungs)
    total = ladder[..., 0, :].take(counts[:, 0], axis=-1)
    for h in range(1, alpha.shape[-1]):
        total += ladder[..., h, :].take(counts[:, h], axis=-1)
    return total


def standard_idm_predictive_bounds(
    s: float, freq: FrequencyVector, j: int
) -> PredictiveBounds:
    """Predictive bounds for the next outcome when the data are fully observed.

    Sweeping t over the open simplex, the posterior predictive
    (a_j + s t_j)/(n + s) approaches a_j/(n + s) as t_j -> 0 and
    (a_j + s)/(n + s) as t_j -> 1; both are limits, recorded as such.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    if not 0 <= j < freq.k:
        raise ValueError(f"outcome index {j} out of range for k={freq.k}")
    denom = freq.n + s
    return PredictiveBounds(
        lower=freq[j] / denom,
        upper=(freq[j] + s) / denom,
        argmin_t=BoundaryLimit(j, 0.0),
        argmax_t=BoundaryLimit(j, 1.0),
    )


def vacuous_prior_upper_predictive(freq_next: FrequencyVector) -> float:
    """Upper prior probability of a future dataset under total ignorance.

    This is the supremum over the simplex of prod_i theta_i^{n_i'}, namely
    prod_i (n_i'/n')^{n_i'} with 0**0 = 1, attained at the relative
    frequencies.  The matching vacuous lower probability is always 0.
    """
    n = freq_next.n
    if n < 1:
        raise ValueError("the future dataset must contain at least one outcome")
    value = 1.0
    for c in freq_next.counts:
        if c > 0:
            value *= (c / n) ** c
    return value
