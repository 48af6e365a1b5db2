"""Numerical verification lab for the no-learning (vacuity) phenomena.

The central effect: when a sequence of priors concentrates on an extremizer
of a bounded function f, and the likelihood stays positive near that
extremizer, the posterior expectation of f is dragged to the extremum no
matter what was observed.  A near-ignorance prior set contains such
concentrating sequences for every function it leaves vacuous, so positive
likelihoods make posterior bounds as vacuous as the prior ones.

This module makes the limit statements checkable at desk scale: limits are
replaced by trend checks over a fixed index schedule, each computed from
closed forms.  Every f and likelihood L is a `Polynomial`, so E_n(f) and
the posterior ratios E_n(f L) / E_n(L) are sums of Dirichlet moments, and a
slab mass is the Beta mass of an interval of one coordinate.  What depends
only on the document (the slab interval ends, the stacked exponent rows) is
found once per call, and so are the moments of every index: a family's priors
are one table, each index's strength and alpha row, built a block of indices
at a time, and E_n(f) and every likelihood's numerator and normalizer are read
from one stacked ladder of log ascending factorials per block.  Each index
then evaluates the Beta CDFs at those ends.  Only the slab of a monomial with
two or more positive exponents on k >= 3 coordinates is summed on a lattice
grid.
`delta_set_mass` and `posterior_ratio` are plain grid sums, kept as the
tests' oracles.  Every grid sum weighs the lattice points by one
unnormalised density, `lattice_density`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .idm import FrequencyVector, log_moments, vacuous_prior_upper_predictive
from .observation import ManifestDataset, likelihood_terms
from .simplex import DirichletParams, SimplexGrid, SimplexPoint, normal_alpha

MAX_SIDE = "max-side"
MIN_SIDE = "min-side"

# how a trend quantity was computed, as named in report provenance
MOMENT = "dirichlet-moment"
BETA_TAIL = "beta-tail"
BETA_INTERVAL = "beta-interval"
GRID = "grid"

_TOLERANCE = 0.01
# the Lentz method's stand-in for a zero denominator
_TINY = 1e-300
# ladder cells the indices of one block may share; a block grows past it only to hold one index
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class Polynomial:
    """sum_r exp(log_coeffs[r]) * prod_h theta_h^exponents[r, h], with positive coefficients.

    A coordinate is a unit monomial, and the likelihood of a manifest
    dataset has its weight pass's frequency vectors and log weights.
    """

    exponents: np.ndarray
    log_coeffs: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.exponents, dtype=np.int64)
        logs = np.array(self.log_coeffs, dtype=float)
        if rows.ndim != 2 or len(rows) < 1 or rows.shape[1] < 2 or logs.shape != rows.shape[:1]:
            raise ValueError("need exponent rows of k >= 2 entries, one log coefficient each")
        if rows.min() < 0 or not np.isfinite(logs).all():
            raise ValueError("exponents must be nonnegative and log coefficients finite")
        rows.setflags(write=False)
        logs.setflags(write=False)
        object.__setattr__(self, "exponents", rows)
        object.__setattr__(self, "log_coeffs", logs)

    def values(self, points: np.ndarray) -> np.ndarray:
        """The polynomial at each row of an (N, k) point matrix: the lab's one grid evaluation."""
        return np.exp(self.log_coeffs) @ np.prod(points[None] ** self.exponents[:, None], axis=2)


def _monomial(f: Polynomial) -> np.ndarray:
    """The exponent row of a lab function: one monomial theta^e with coefficient 1 and |e| >= 1."""
    if len(f.exponents) != 1 or f.log_coeffs[0] != 0.0 or f.exponents.sum() < 1:
        raise ValueError("a bounded function of the lab is one monomial with coefficient 1")
    return f.exponents[0]


def _peak(row: np.ndarray) -> float:
    """max of theta^row over the simplex, attained at row / |row|; its minimum is 0."""
    return vacuous_prior_upper_predictive(FrequencyVector(tuple(row.tolist())))


@dataclass(frozen=True)
class ConcentratingSequence:
    """An index-parameterized family of Dirichlet priors aimed at a target.

    Index n's prior has its mean on the mixing path t(n) = target (1 - k/n)
    + 1/n, at distance ~k/n from the target, and strength n, or `strength`
    at every index when that is set.
    """

    target: SimplexPoint
    strength: float | None = None

    def priors(self, schedule: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each index's strength s and alpha row s t(n): a (N,) and an (N, k) array.

        The path stays on the simplex for n >= k - 1, and smaller indices are
        refused; a row that reaches its boundary (n = k - 1 at a vertex) is
        mixed back into the interior with weight 1e-6 / k.  Every row is then
        scaled to sum to 1, so each lies in the open simplex, and an s t_h
        below the smallest normal float is refused (`normal_alpha`).
        """
        k = self.target.k
        n = np.array(schedule, dtype=float)[:, None]
        if n.min() < max(1, k - 1):
            raise ValueError(f"the path leaves the simplex below index {max(1, k - 1)}")
        t = self.target.coords * (1.0 - k / n) + 1.0 / n
        low = t.min(axis=1) <= 0.0
        eps = 1e-6 / k
        t[low] = t[low] * (1.0 - k * eps) + eps
        t /= t.sum(axis=1, keepdims=True)
        s = n[:, 0] if self.strength is None else np.full(len(t), self.strength)
        return s, normal_alpha(s[:, None] * t)


@dataclass(frozen=True)
class DeltaSet:
    """The near-extremal slab of f: points within delta of its max (or min)."""

    f: Polynomial
    delta: float
    mode: str = MAX_SIDE

    def __post_init__(self) -> None:
        _monomial(self.f)
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.mode not in (MAX_SIDE, MIN_SIDE):
            raise ValueError(f"mode must be {MAX_SIDE!r} or {MIN_SIDE!r}")

    @property
    def level(self) -> float:
        """The slab is {f >= level} on the max side and {f <= level} on the min side."""
        if self.mode == MAX_SIDE:
            return _peak(_monomial(self.f)) - self.delta
        return self.delta

    def mask(self, f_values: np.ndarray) -> np.ndarray:
        """Members of the slab among points with the given values of f."""
        if self.mode == MAX_SIDE:
            return f_values >= self.level
        return f_values <= self.level


@dataclass(frozen=True)
class TrendRow:
    n: int
    expectation: float
    delta_masses: tuple[float, ...]
    posterior_ratio: float


@dataclass(frozen=True)
class TrendReport:
    """Per-index measurements plus the end-of-schedule verdict.

    `extremum_reached` is set when the final posterior ratio lands within
    `tolerance` of the declared extremum: the numerical signature that the
    posterior expectation bound over the prior set coincides with the
    function's own extremum (posterior vacuity on that side).  `methods`
    names how each quantity was computed, and `grid` is the lattice the
    slab masses were summed on, if any.
    """

    side: str
    extremum: float
    deltas: tuple[float, ...]
    rows: tuple[TrendRow, ...]
    tolerance: float
    final_gap: float
    extremum_reached: bool
    methods: dict[str, str]
    grid: SimplexGrid | None


# ---------------------------------------------------------------------------
# Grid sums: the oracles of the exact values below.


def lattice_density(alpha: np.ndarray, log_points: np.ndarray) -> np.ndarray:
    """The Dirichlet(alpha) density at the lattice points with logs `log_points`, up to a factor.

    exp((alpha - 1) . log theta), shifted by its maximum so the largest value
    is 1: the normalising constant cancels in every ratio of two sums over
    one lattice, and the shift keeps the sums away from overflow and
    underflow.
    """
    log_density = log_points @ (alpha - 1.0)
    return np.exp(log_density - log_density.max())


def delta_set_mass(params: DirichletParams, dset: DeltaSet, grid: SimplexGrid) -> float:
    """Prior probability mass of the near-extremal slab, by filtered grid sums.

    Returned as (sum of density over member points) / (sum over all points):
    the exact value is a probability, and normalizing by the same grid's
    full sum removes the shared discretization bias, so the result always
    lies in [0, 1].
    """
    density = lattice_density(params.alpha, np.log(grid.points))
    return float(density[dset.mask(dset.f.values(grid.points))].sum() / density.sum())


def posterior_ratio(
    params: DirichletParams,
    likelihood: Polynomial,
    f: Polynomial,
    grid: SimplexGrid,
) -> float:
    """Posterior expectation of f: grid ratio of integrals of f*L*p and L*p.

    Raises FloatingPointError when the denominator underflows (zero, below
    1e-300, or not finite) rather than silently returning garbage: a grid
    sum, unlike the log-space moments of `verify_theorem1`, loses the
    likelihood where its float values vanish.
    """
    weights = likelihood.values(grid.points) * lattice_density(params.alpha, np.log(grid.points))
    denominator = float(weights.sum())
    if not np.isfinite(denominator) or denominator < 1e-300:
        raise FloatingPointError(
            f"posterior normalizer underflowed (sum {denominator!r}); "
            "the likelihood is numerically zero where the prior has mass"
        )
    return float((f.values(grid.points) * weights).sum() / denominator)


# ---------------------------------------------------------------------------
# Exact values: Dirichlet moments and Beta CDFs.


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularised incomplete beta I_x(a, b), P(X <= x) for X ~ Beta(a, b).

    Its continued fraction by the modified Lentz method, on the side of the
    mean where it converges fast (Numerical Recipes, 3rd ed., section 6.4).
    The prefactor takes math.lgamma, so the relative error follows the
    rounding of lgamma(a + b): ~1e-13 for a + b in the hundreds.  Takes
    Python floats: NumPy scalars give the same values, slower.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front += a * math.log(x) + b * math.log1p(-x)
    d = 1.0 - (a + b) * x / (a + 1.0)
    c, d = 1.0, 1.0 / (d if abs(d) > _TINY else _TINY)
    value = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for term in (even, odd):  # a denominator within _TINY of 0 becomes _TINY
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _TINY else _TINY
            value *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return math.exp(front) * value / a
    raise ArithmeticError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")


def _crossing(p: int, q: int, level: float, inside: float, outside: float) -> float:
    """Where x^p (1 - x)^q crosses `level` between `inside` (where it is >= level) and
    `outside`, to one ulp."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return mid
        if mid**p * (1.0 - mid) ** q >= level:
            inside = mid
        else:
            outside = mid


def _level_interval(p: int, q: int, level: float, peak: float) -> tuple[float, float]:
    """Ends of {x in [0, 1] : x^p (1 - x)^q >= level}, an interval around the peak p / (p + q)
    found by bisection: all of [0, 1] when level <= 0, massless when level >= peak."""
    if level <= 0.0:
        return 0.0, 1.0
    if level >= peak:
        return 0.0, 0.0
    top = p / (p + q)
    return _crossing(p, q, level, top, 0), _crossing(p, q, level, top, 1)


def mass_method(row: np.ndarray) -> str:
    """How the slab masses of theta^row are computed: a Beta tail (one positive exponent),
    else a Beta interval (k = 2), else a lattice grid."""
    return BETA_TAIL if np.count_nonzero(row) == 1 else GRID if len(row) > 2 else BETA_INTERVAL


def verify_theorem1(
    f: Polynomial,
    likelihoods: Sequence[Polynomial],
    sequence: ConcentratingSequence,
    schedule: Sequence[int],
    deltas: Sequence[float] = (0.1, 0.01),
    grid_resolution: int = 2000,
) -> tuple[TrendReport, ...]:
    """Trend check that posterior expectations are dragged to f's extremum.

    For each index n in the schedule, reports E_n(f), the mass of the
    near-extremal slabs at the given deltas, and the posterior ratio under
    each supplied likelihood; returns one report per likelihood, in order.
    The verdict flag records whether the final ratio lands within 0.01 of
    the extremum.  The sequence's target must be an extremizer of f: the
    side is the min side when f vanishes at the target, else the max side.

    Per call: each slab's ends on the coordinate x = theta_i that reads
    f = x^p (1 - x)^q (i = 0 when k = 2), the exponent rows [f; L_1;
    L_1 + f; L_2; L_2 + f; ...].  Per block of indices, as many as share
    `_BLOCK_CELLS` ladder cells, or one: the block's rows of the priors table
    (`ConcentratingSequence.priors`, k + 1 floats per index), built when the
    block is reached, and one stacked ladder over the exponent rows, giving
    E_n(f) and every E_n(f L) / E_n(L) of each index in it.  Per index: the
    Beta CDFs of x ~ Beta(alpha_i, sum of the rest) at the ends.  Only
    per-index scalars outlive a block, and no value depends on the other
    indices of the schedule.  Only a monomial f with two or more positive
    exponents on k >= 3 coordinates has its masses summed, on one lattice
    grid of `grid_resolution` per call.
    Every ratio is exp(log E_n(f L) - log E_n(L)): a Dirichlet moment of a
    polynomial with positive coefficients is positive, so the ratio is
    defined at every index, however small E_n(L) is.  Its relative error
    grows like |L| ln(s + |L|) ulps, |L| the likelihood's largest degree.
    """
    f_row = _monomial(f)
    peak = _peak(f_row)
    side = MIN_SIDE if (sequence.target.coords[f_row > 0] == 0.0).any() else MAX_SIDE
    extremum = peak if side == MAX_SIDE else 0.0
    slabs = [DeltaSet(f, float(d), mode=side) for d in deltas]
    mass = mass_method(f_row)
    i = 0 if len(f_row) == 2 else int(np.flatnonzero(f_row)[0])
    rest = np.arange(len(f_row)) != i
    schedule = [int(n) for n in schedule]
    grid, ends = None, []
    if mass != GRID:
        power, rest_power = int(f_row[i]), int(f_row[rest].sum())
        ends = [_level_interval(power, rest_power, slab.level, peak) for slab in slabs]
    elif slabs:
        grid = SimplexGrid(k=len(f_row), resolution=grid_resolution)
        log_points = np.log(grid.points)  # clamped: every coordinate is positive
        members = [slab.mask(f.values(grid.points)) for slab in slabs]
    blocks = [np.vstack((L.exponents, L.exponents + f_row)) for L in likelihoods]
    stack = np.vstack([f_row[None], *blocks])
    starts = np.cumsum([1] + [len(block) for block in blocks])
    log_coeffs = [np.tile(L.log_coeffs, 2) for L in likelihoods]
    # an index's larger ladder is its coordinates' or its strength's (`log_rising`)
    cells = max(len(f_row) * (int(stack.max()) + 1), int(stack.sum(axis=1).max()) + 1)
    step = max(1, _BLOCK_CELLS // cells)

    def slab_masses(alpha: np.ndarray) -> tuple[float, ...]:
        if grid is None:
            a, b = float(alpha[i]), float(alpha[rest].sum())
            inside = (_beta_cdf(hi, a, b) - _beta_cdf(lo, a, b) for lo, hi in ends)
            return tuple(m if side == MAX_SIDE else 1.0 - m for m in inside)
        density = lattice_density(alpha, log_points)
        return tuple(float(density[m].sum() / density.sum()) for m in members)

    masses, expectations, log_ratios = [], [], [[] for _ in likelihoods]
    for j in range(0, len(schedule), step):
        strengths, alphas = sequence.priors(schedule[j : j + step])
        logs = log_moments(alphas, strengths, stack)
        masses += map(slab_masses, alphas)
        expectations += logs[:, 0].tolist()
        for start, coeffs, out in zip(starts, log_coeffs, log_ratios):
            terms = logs[:, start : start + len(coeffs)] + coeffs
            half = len(coeffs) // 2
            top = np.logaddexp.reduce(terms[:, half:], axis=1)
            out += (top - np.logaddexp.reduce(terms[:, :half], axis=1)).tolist()
    expectations = [math.exp(e) for e in expectations]
    deltas = tuple(slab.delta for slab in slabs)
    methods = {"expectation": MOMENT, "mass": mass, "ratio": MOMENT}
    reports = []
    for out in log_ratios:
        rows = tuple(map(TrendRow, schedule, expectations, masses, map(math.exp, out)))
        gap = abs(rows[-1].posterior_ratio - extremum)
        reached = gap <= _TOLERANCE
        reports.append(
            TrendReport(side, extremum, deltas, rows, _TOLERANCE, gap, reached, methods, grid)
        )
    return tuple(reports)


# ---------------------------------------------------------------------------
# Ready-made functions, likelihoods, and concentrating families.


def coordinate_function(index: int, k: int) -> Polynomial:
    """f(theta) = theta_index: range [0, 1], extremized at vertices; also a likelihood."""
    if not 0 <= index < k:
        raise ValueError(f"index {index} out of range for k={k}")
    return Polynomial([np.arange(k) == index], [0.0])


def monomial_function(exponents: Sequence[int]) -> Polynomial:
    """f(theta) = prod theta_i^{e_i}: the predictive probability of a future
    dataset with those outcome counts.  Its maximum over the simplex is
    prod (e_i/n')^{e_i}, attained at the relative frequencies."""
    counts = FrequencyVector(tuple(int(e) for e in exponents))
    if counts.n < 1:
        raise ValueError("at least one exponent must be positive")
    return Polynomial([counts.counts], [0.0])


def constant_likelihood(k: int) -> Polynomial:
    return Polynomial([[0] * k], [0.0])


def monomial_likelihood(counts: Sequence[int]) -> Polynomial:
    """Likelihood of a fully observed dataset with the given outcome counts."""
    freq = FrequencyVector(tuple(int(c) for c in counts))
    return Polynomial([freq.counts], [0.0])


def dataset_likelihood(data: ManifestDataset) -> Polynomial:
    """Likelihood of an observed manifest sequence (noisy-channel data): sum_a W(a) theta^a."""
    counts, log_w = likelihood_terms(data)
    return Polynomial(counts, log_w)


def canonical_concentrating_sequence(target: SimplexPoint) -> ConcentratingSequence:
    """Strength-n family: index n maps to strength s = n and mean on the path
    t(n) = target (1 - k/n) + 1/n.

    Every exponent s t_i - 1 stays >= 0 along the family, so the densities
    are bounded and grid-integrable at any index.  This is one admissible
    concentrating family, chosen to make the experiments reproducible; the
    trend statements only require that some such family exists.
    """
    return ConcentratingSequence(target)


def fixed_strength_concentrating_sequence(
    target: SimplexPoint, s: float
) -> ConcentratingSequence:
    """Fixed-strength family: the mean walks to the target while s stays put.

    Unlike the strength-n family, every member lies inside the
    fixed-strength near-ignorance prior set, so this family exhibits the
    escape from vacuity: a likelihood vanishing at the target caps the
    posterior ratio strictly away from the extremum however far the mean
    walks.  The densities diverge at the target, which no grid integrates;
    the trend check's moments and Beta tails are exact for them.
    """
    if not 0.0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    return ConcentratingSequence(target, float(s))
