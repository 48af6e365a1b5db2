"""Numerical verification lab for the no-learning (vacuity) phenomena.

The central effect: when a sequence of priors concentrates on an extremizer
of a bounded function f, and the likelihood stays positive near that
extremizer, the posterior expectation of f is dragged to the extremum no
matter what was observed.  A near-ignorance prior set contains such
concentrating sequences for every function it leaves vacuous, so positive
likelihoods make posterior bounds as vacuous as the prior ones.

This module makes the limit statements checkable at desk scale: limits are
replaced by trend checks over a fixed index schedule, with grid integrals as
the measurement device.  Expectations, set masses, and posterior ratios are
all computed as ratios of grid sums over the same grid, so the simplex
measure constant cancels and the dominant discretization bias cancels with
it.  A trend check evaluates one prior density per schedule index and reads
every slab mass, the expectation and each likelihood's posterior ratio from
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateRatioError
from .idm import FrequencyVector, vacuous_prior_upper_predictive
from .observation import ManifestDataset, latent_likelihood
from .simplex import (
    DirichletParams,
    SimplexGrid,
    SimplexPoint,
    _dirichlet_log_density_matrix,
)

MAX_SIDE = "max-side"
MIN_SIDE = "min-side"

_RANGE_SLACK = 1e-9
_UNDERFLOW_FLOOR = 1e-300
_DENSITY_GRID_FACTOR = 20  # grid cells per unit of concentration index, k=2


@dataclass(frozen=True)
class BoundedFunction:
    """A bounded function on the simplex with declared extrema.

    declared_min/declared_max are the true infimum/supremum over the whole
    simplex; grid sweeps validate observed values against them (with 1e-9
    slack).  Hints locate extremizers for concentration targets.  The
    evaluator takes an (N, k) matrix of points and returns N values.
    """

    evaluator: Callable
    declared_min: float
    declared_max: float
    argmax_hint: SimplexPoint | None = None
    argmin_hint: SimplexPoint | None = None
    description: str = ""

    def values(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(self.evaluator(points), dtype=float).reshape(points.shape[0])
        if out.size and (
            out.min() < self.declared_min - _RANGE_SLACK
            or out.max() > self.declared_max + _RANGE_SLACK
        ):
            raise ValueError(
                f"function values escape declared range [{self.declared_min}, {self.declared_max}]"
            )
        return out


@dataclass(frozen=True)
class LikelihoodFunction:
    """A nonnegative function of the chances, treated as a black box.

    The evaluator takes an (N, k) matrix of points and returns N values.
    """

    evaluator: Callable
    description: str = ""

    def values(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(self.evaluator(points), dtype=float).reshape(points.shape[0])
        if out.size and out.min() < 0.0:
            raise ValueError("likelihood values must be nonnegative")
        return out


@dataclass(frozen=True)
class ConcentratingSequence:
    """An index-parameterized family of Dirichlet priors aimed at a target."""

    generator: Callable[[int], DirichletParams]
    target: SimplexPoint
    description: str = ""


@dataclass(frozen=True)
class DeltaSet:
    """The near-extremal slab of f: points within delta of its max (or min)."""

    f: BoundedFunction
    delta: float
    mode: str = MAX_SIDE

    def __post_init__(self) -> None:
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.mode not in (MAX_SIDE, MIN_SIDE):
            raise ValueError(f"mode must be {MAX_SIDE!r} or {MIN_SIDE!r}")

    def mask(self, f_values: np.ndarray) -> np.ndarray:
        """Members of the slab among points with the given values of f."""
        if self.mode == MAX_SIDE:
            return f_values >= self.f.declared_max - self.delta
        return f_values <= self.f.declared_min + self.delta


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
    function's own extremum (posterior vacuity on that side).
    """

    side: str
    extremum: float
    deltas: tuple[float, ...]
    rows: tuple[TrendRow, ...]
    tolerance: float
    final_gap: float
    extremum_reached: bool


@dataclass(frozen=True)
class LiminfReport:
    """Estimate of the limiting infimum of L over shrinking near-max slabs."""

    deltas: tuple[float, ...]
    infimums: tuple[float, ...]
    c_estimate: float
    positive: bool


def _density(params: DirichletParams, grid: SimplexGrid) -> np.ndarray:
    return np.exp(_dirichlet_log_density_matrix(params, grid.points))


def _slab_mass(density: np.ndarray, member: np.ndarray, total: float) -> float:
    if total <= 0.0:
        raise DegenerateRatioError("density mass underflowed on the whole grid")
    return float(density[member].sum() / total)


def _ratio(density: np.ndarray, f_values: np.ndarray, l_values: np.ndarray) -> float:
    denominator = float((l_values * density).sum())
    if not np.isfinite(denominator) or denominator < _UNDERFLOW_FLOOR:
        raise DegenerateRatioError(
            f"posterior normalizer underflowed (sum {denominator!r}); "
            "the likelihood is numerically zero where the prior has mass"
        )
    return float((f_values * l_values * density).sum() / denominator)


def delta_set_mass(params: DirichletParams, dset: DeltaSet, grid: SimplexGrid) -> float:
    """Prior probability mass of the near-extremal slab, by filtered grid sums.

    Returned as (sum of density over member points) / (sum over all points):
    the exact value is a probability, and normalizing by the same grid's
    full sum removes the shared discretization bias, so the result always
    lies in [0, 1].
    """
    density = _density(params, grid)
    member = dset.mask(dset.f.values(grid.points))
    return _slab_mass(density, member, float(density.sum()))


def posterior_ratio(
    params: DirichletParams,
    likelihood: LikelihoodFunction,
    f: BoundedFunction,
    grid: SimplexGrid,
) -> float:
    """Posterior expectation of f: grid ratio of integrals of f*L*p and L*p.

    Raises DegenerateRatioError when the denominator underflows (zero, below
    1e-300, or not finite) rather than silently returning garbage.
    """
    density = _density(params, grid)
    l_values = likelihood.values(grid.points)
    return _ratio(density, f.values(grid.points), l_values)


def _trend_grid(base: SimplexGrid, n: int) -> SimplexGrid:
    """Resolution coupled to the concentration index for k=2 sequences.

    A prior with index n piles mass into a region of width ~1/n, so the
    grid must resolve that peak; otherwise trend checks fail for lack of
    resolution, not lack of truth.
    """
    if base.k != 2:
        return base
    needed = max(base.resolution, _DENSITY_GRID_FACTOR * n)
    if needed == base.resolution:
        return base
    return SimplexGrid(
        k=base.k,
        resolution=needed,
        boundary_policy=base.boundary_policy,
        eps_clamp=base.eps_clamp,
    )


def _infer_side(f: BoundedFunction, target: SimplexPoint) -> str:
    if f.argmin_hint is not None and np.allclose(
        target.coords, f.argmin_hint.coords, atol=1e-9
    ):
        return MIN_SIDE
    return MAX_SIDE


def verify_theorem1(
    f: BoundedFunction,
    likelihoods: Sequence[LikelihoodFunction],
    sequence: ConcentratingSequence,
    schedule: Sequence[int],
    grid: SimplexGrid,
    deltas: Sequence[float] = (0.1, 0.01),
    side: str | None = None,
    tolerance: float = 0.01,
) -> tuple[TrendReport, ...]:
    """Trend check that posterior expectations are dragged to f's extremum.

    For each index n in the schedule, reports E_n(f), the mass of the
    near-extremal slabs at the given deltas, and the posterior ratio under
    each supplied likelihood; returns one report per likelihood, in order.
    Each index evaluates its prior density and f once on its grid, and every
    report reads its masses, expectation and ratio from those arrays.  The
    verdict flag records whether the final ratio lands within `tolerance`
    of the declared extremum.  The sequence's target must be an extremizer
    of f; the side is inferred from the hints unless given explicitly.
    """
    side = side or _infer_side(f, sequence.target)
    if side not in (MAX_SIDE, MIN_SIDE):
        raise ValueError(f"side must be {MAX_SIDE!r} or {MIN_SIDE!r}")
    extremum = f.declared_max if side == MAX_SIDE else f.declared_min
    slabs = [DeltaSet(f, float(d), mode=side) for d in deltas]
    rows = [[] for _ in likelihoods]
    for n in map(int, schedule):
        params = sequence.generator(n)
        grid_n = _trend_grid(grid, n)
        density = _density(params, grid_n)
        f_values = f.values(grid_n.points)
        total = float(density.sum())
        masses = tuple(_slab_mass(density, slab.mask(f_values), total) for slab in slabs)
        expectation = float((f_values * density).sum() / total)
        for likelihood, out in zip(likelihoods, rows):
            ratio = _ratio(density, f_values, likelihood.values(grid_n.points))
            out.append(TrendRow(n, expectation, masses, ratio))
    deltas = tuple(slab.delta for slab in slabs)
    reports = []
    for out in rows:
        gap = abs(out[-1].posterior_ratio - extremum)
        reports.append(
            TrendReport(side, extremum, deltas, tuple(out), tolerance, gap, gap <= tolerance)
        )
    return tuple(reports)


def liminf_positivity_check(
    likelihood: LikelihoodFunction,
    f: BoundedFunction,
    deltas: Sequence[float],
    grid: SimplexGrid,
    threshold: float = 1e-9,
) -> LiminfReport:
    """Grid estimate of c = lim_{delta->0} inf over the near-max slab of L.

    Positivity of c is the weak sufficient condition for the max-side
    vacuity trend; the infimum sequence is nondecreasing as delta shrinks,
    so the last entry is the estimate.  The verdict is positive when it
    stays above the threshold.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0.0 for d in deltas) or any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing and positive")
    l_values = likelihood.values(grid.points)
    f_values = f.values(grid.points)
    infimums = []
    for d in deltas:
        mask = f_values >= f.declared_max - d
        if not mask.any():
            # Slab too thin for this grid: fall back to the best grid point.
            mask = f_values == f_values.max()
        infimums.append(float(l_values[mask].min()))
    c_estimate = infimums[-1]
    return LiminfReport(
        deltas=tuple(deltas),
        infimums=tuple(infimums),
        c_estimate=c_estimate,
        positive=c_estimate > threshold,
    )


# ---------------------------------------------------------------------------
# Ready-made functions, likelihoods, and concentrating families.


def coordinate_function(index: int, k: int) -> BoundedFunction:
    """f(theta) = theta_index: range [0, 1], extremized at vertices."""
    if not 0 <= index < k:
        raise ValueError(f"index {index} out of range for k={k}")
    off = (index + 1) % k
    return BoundedFunction(
        evaluator=lambda pts: pts[:, index],
        declared_min=0.0,
        declared_max=1.0,
        argmax_hint=SimplexPoint.vertex(k, index),
        argmin_hint=SimplexPoint.vertex(k, off),
        description=f"theta[{index}]",
    )


def monomial_function(exponents: Sequence[int]) -> BoundedFunction:
    """f(theta) = prod theta_i^{e_i}: the predictive probability of a future
    dataset with those outcome counts.  Its maximum over the simplex is
    prod (e_i/n')^{e_i}, attained at the relative frequencies."""
    counts = FrequencyVector(tuple(int(e) for e in exponents))
    if counts.n < 1:
        raise ValueError("at least one exponent must be positive")
    exp_arr = np.asarray(counts.counts, dtype=float)
    argmax = SimplexPoint(exp_arr / counts.n)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        acc = np.ones(pts.shape[0])
        for i, e in enumerate(counts.counts):
            if e > 0:
                acc = acc * pts[:, i] ** e
        return acc

    return BoundedFunction(
        evaluator=evaluate,
        declared_min=0.0,
        declared_max=vacuous_prior_upper_predictive(counts),
        argmax_hint=argmax,
        argmin_hint=None,
        description="theta^" + str(counts.counts),
    )


def constant_likelihood() -> LikelihoodFunction:
    return LikelihoodFunction(
        evaluator=lambda pts: np.ones(pts.shape[0]),
        description="constant 1",
    )


def coordinate_likelihood(index: int) -> LikelihoodFunction:
    return LikelihoodFunction(
        evaluator=lambda pts: pts[:, index],
        description=f"theta[{index}]",
    )


def monomial_likelihood(counts: Sequence[int]) -> LikelihoodFunction:
    """Likelihood of a fully observed dataset with the given outcome counts."""
    freq = FrequencyVector(tuple(int(c) for c in counts))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        acc = np.ones(pts.shape[0])
        for i, e in enumerate(freq.counts):
            if e > 0:
                acc = acc * pts[:, i] ** e
        return acc

    return LikelihoodFunction(
        evaluator=evaluate,
        description="multinomial counts " + str(freq.counts),
    )


def dataset_likelihood(data: ManifestDataset) -> LikelihoodFunction:
    """Likelihood of an observed manifest sequence (noisy-channel data)."""
    return LikelihoodFunction(
        evaluator=lambda pts: latent_likelihood(data, pts),
        description=f"manifest dataset, n={data.n}",
    )


def _target_path(target: SimplexPoint, n: int) -> SimplexPoint:
    """Interior point at distance ~k/n from the target along the mixing path."""
    k = target.k
    coords = target.coords * (1.0 - k / n) + 1.0 / n
    if coords.min() <= 0.0:
        eps = 1e-6 / k
        coords = coords * (1.0 - k * eps) + eps
    return SimplexPoint(coords / coords.sum())


def canonical_concentrating_sequence(target: SimplexPoint) -> ConcentratingSequence:
    """Strength-n family: index n maps to strength s = n and mean on the path
    t_i = target_i (1 - k/n) + 1/n.

    Every exponent s t_i - 1 stays >= 0 along the family, so the densities
    are bounded and grid-integrable at any index.  This is one admissible
    concentrating family, chosen to make the experiments reproducible; the
    trend statements only require that some such family exists.
    """
    return ConcentratingSequence(
        generator=lambda n: DirichletParams(s=float(n), t=_target_path(target, n)),
        target=target,
        description="strength n, mean on the target path",
    )


def fixed_strength_concentrating_sequence(
    target: SimplexPoint, s: float
) -> ConcentratingSequence:
    """Fixed-strength family: the mean walks to the target while s stays put.

    Unlike the strength-n family, every member lies inside the
    fixed-strength near-ignorance prior set, so this family exhibits the
    escape from vacuity: a likelihood vanishing at the target caps the
    posterior ratio strictly away from the extremum however far the mean
    walks.  Near the boundary the densities diverge, so only ratio
    computations (where the likelihood's zero tames the divergence) are
    meaningful along this family.
    """
    if not s > 0.0:
        raise ValueError("s must be positive")
    return ConcentratingSequence(
        generator=lambda n: DirichletParams(s=float(s), t=_target_path(target, n)),
        target=target,
        description=f"fixed strength s={s:g}, mean on the target path",
    )
