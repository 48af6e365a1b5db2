"""Manifest-side alternatives for the binary noisy-observation setting.

Three ways to sidestep the latent level by predicting the observable outcome
instead, each with its failure mode made demonstrable:

1. A near-ignorance set of rescaled two-parameter densities on the manifest
   chance xi_1, supported on its true range [eps1, 1-eps2].  The manifest
   likelihood is positive on that whole range, so the posterior expectation
   bounds stay pinned to the interval endpoints: vacuity-on-the-interval.
2. A naive reconstruction that applies the standard fully-observable model
   to xi_1 as if it ranged over [0, 1], then inverts the channel.  The
   inversion is returned unclamped on purpose: producing values outside
   [0, 1] is the demonstrated incoherence, and clamping would hide it.
3. Direct prediction of the next manifest outcome, ignoring the latent
   level.  Sound arithmetic, but it answers a different question; results
   are labeled as manifest-level predictions only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .idm import BoundaryLimit, FrequencyVector, PredictiveBounds, standard_idm_predictive_bounds
from .observation import EmissionMatrix
from .simplex import (
    CLAMP_TO_EPSILON,
    DirichletParams,
    SimplexGrid,
    SimplexPoint,
    _dirichlet_log_density_matrix,
)

DEFAULT_THETA_RESOLUTION = 2000
DEFAULT_T_RESOLUTION = 400
_T_CLAMP = 1e-6


@dataclass(frozen=True)
class BinaryChannel:
    """A strictly diagonally dominant binary observation channel.

    eps1 is the probability of observing outcome 1 when the hidden outcome
    is 2 (false positive); eps2 the reverse (false negative).  Both must lie
    strictly inside (0, 0.5).
    """

    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        for name, value in (("eps1", self.eps1), ("eps2", self.eps2)):
            if not 0.0 < value < 0.5:
                raise ValueError(f"{name} must lie strictly in (0, 0.5), got {value}")

    def emission(self) -> EmissionMatrix:
        return EmissionMatrix(
            [[1.0 - self.eps2, self.eps1], [self.eps2, 1.0 - self.eps1]]
        )

    @property
    def xi_range(self) -> tuple[float, float]:
        """Attainable range of the manifest chance xi_1."""
        return (self.eps1, 1.0 - self.eps2)


@dataclass(frozen=True)
class NaiveReconstruction:
    """Unclamped channel inversion, flagged when it leaves [0, 1]."""

    value: float
    out_of_range: bool


def scaled_beta_posterior_mean(
    channel: BinaryChannel,
    positives: int,
    total: int,
    s: float,
    t1: float,
    resolution: int = DEFAULT_THETA_RESOLUTION,
) -> float:
    """Posterior expectation of xi_1 under one member of the rescaled family.

    Evaluated through the substitution theta_1 = (xi_1 - eps1)/(1 - eps1 - eps2),
    which maps the rescaled density back to the standard two-parameter
    density on the unit simplex; every expectation becomes a ratio of
    1-simplex grid sums, and the density normalizer cancels.
    """
    _validate_counts(positives, total)
    if not 0.0 < t1 < 1.0:
        raise ValueError("t1 must lie strictly in (0, 1)")
    if not s > 0.0:
        raise ValueError("s must be positive")
    grid = SimplexGrid(k=2, resolution=resolution, boundary_policy=CLAMP_TO_EPSILON)
    params = DirichletParams(s=s, t=SimplexPoint([t1, 1.0 - t1]))
    log_density = _dirichlet_log_density_matrix(params, grid.points)
    weights = np.exp(log_density - log_density.max())
    xi = latent_to_manifest_chance_vector(channel, grid.points[:, 0])
    likelihood = xi**positives * (1.0 - xi) ** (total - positives)
    denominator = float((likelihood * weights).sum())
    return float((xi * likelihood * weights).sum() / denominator)


def latent_to_manifest_chance_vector(channel: BinaryChannel, theta1: np.ndarray) -> np.ndarray:
    """xi_1 = (1 - eps2) * theta_1 + eps1 * (1 - theta_1); image is [eps1, 1-eps2]."""
    return (1.0 - channel.eps2) * theta1 + channel.eps1 * (1.0 - theta1)


def scaled_beta_posterior_bounds(
    channel: BinaryChannel,
    positives: int,
    total: int,
    s: float,
    t_resolution: int = DEFAULT_T_RESOLUTION,
    theta_resolution: int = DEFAULT_THETA_RESOLUTION,
) -> PredictiveBounds:
    """Lower/upper posterior expectation of xi_1 over the rescaled prior family.

    Sweeps t_1 over a clamped grid and adds the two boundary limits: as
    t_1 -> 0 the prior concentrates where xi_1 = eps1 and the (everywhere
    positive) manifest likelihood cannot resist, so the infimum is eps1;
    symmetrically the supremum is 1 - eps2.  The interval endpoints are
    always the answer; the grid sweep documents how the interior values are
    squeezed between them.
    """
    _validate_counts(positives, total)
    lo, hi = channel.xi_range
    lower, upper = lo, hi
    t_grid = np.linspace(_T_CLAMP, 1.0 - _T_CLAMP, t_resolution)
    for t1 in t_grid:
        value = scaled_beta_posterior_mean(
            channel, positives, total, s, float(t1), resolution=theta_resolution
        )
        lower = min(lower, value)
        upper = max(upper, value)
    return PredictiveBounds(
        lower=lower,
        upper=upper,
        argmin_t=BoundaryLimit(0, 0.0),
        argmax_t=BoundaryLimit(0, 1.0),
    )


def naive_reconstruction(channel: BinaryChannel, manifest_bound: float) -> NaiveReconstruction:
    """Invert the channel on a manifest-level probability, without clamping.

    P(hidden = x_1) = (P(observe x_1) - eps1) / (1 - eps1 - eps2).  Feeding
    it manifest bounds computed as if xi_1 ranged over all of [0, 1] can
    produce values outside [0, 1]; the flag marks those.
    """
    if not 0.0 <= manifest_bound <= 1.0:
        raise ValueError(f"manifest_bound must lie in [0, 1], got {manifest_bound}")
    value = (manifest_bound - channel.eps1) / (1.0 - channel.eps1 - channel.eps2)
    return NaiveReconstruction(value=value, out_of_range=not 0.0 <= value <= 1.0)


def direct_manifest_idm(positives: int, total: int, s: float) -> PredictiveBounds:
    """Predictive bounds for the next MANIFEST outcome, latent level ignored.

    The standard fully-observable bounds (n_1/(n+s), (n_1+s)/(n+s)) applied
    to the observation counts.  This is a statement about the next
    observation, never about the hidden outcome.
    """
    _validate_counts(positives, total)
    return standard_idm_predictive_bounds(
        s, FrequencyVector((positives, total - positives)), 0
    )


def _validate_counts(positives: int, total: int) -> None:
    if total < 0 or not 0 <= positives <= total:
        raise ValueError(f"need 0 <= positives <= total, got {positives}/{total}")
