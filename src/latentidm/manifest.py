"""Manifest-side alternatives for the binary noisy-observation setting.

Three ways to sidestep the latent level by predicting the observable outcome
instead, each with its failure mode made demonstrable:

1. A near-ignorance set of rescaled two-parameter densities on the manifest
   chance xi_1, supported on its true range [eps1, 1-eps2].  Each member is
   the latent Dirichlet on theta pushed through the channel, so its posterior
   mean of xi_1 is the latent model's predictive for the next manifest
   outcome, computed exactly by the frequency-weight pass; and its bounds are
   the interval endpoints, by the same no-learning argument as the latent
   bounds: vacuity-on-the-interval.
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

from .idm import BoundaryLimit, FrequencyVector, PredictiveBounds, standard_idm_predictive_bounds
from .observation import (
    EmissionMatrix,
    ManifestDataset,
    check_weight_pass_size,
    posterior_predictive_at_t,
)
from .simplex import DirichletParams, SimplexPoint

# Unused here; perfbench/spans.py wraps `manifest.SimplexGrid` by name.
from .simplex import SimplexGrid  # noqa: F401


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
    channel: BinaryChannel, positives: int, total: int, s: float, t1: float
) -> float:
    """Posterior expectation of xi_1 under one member of the rescaled family.

    The member with strength s and mean t1 is the Dirichlet(s, (t1, 1 - t1))
    prior on the hidden chance theta_1, seen through the channel as
    xi_1 = (1 - eps2) theta_1 + eps1 (1 - theta_1).  Its posterior mean of
    xi_1 is therefore the predictive probability of a positive next
    observation: sum_j lambda_{0j} P(next hidden = x_j | data), with the
    hidden predictives taken exactly from the frequency-weight pass.  That
    pass caps `total` at 2,894 by its work: a larger one raises SizeCapError
    before any observation is built.
    """
    _validate_counts(positives, total)
    if not 0.0 < t1 < 1.0:
        raise ValueError("t1 must lie strictly in (0, 1)")
    check_weight_pass_size(total, 2)
    emission = channel.emission()
    data = ManifestDataset.from_rows(emission, [0] * positives + [1] * (total - positives))
    prior = DirichletParams(s=s, t=SimplexPoint([t1, 1.0 - t1]))
    hidden = posterior_predictive_at_t(data, prior)
    return sum(float(emission.entries[0, j]) * hidden[j] for j in range(2))


def scaled_beta_posterior_bounds(
    channel: BinaryChannel, positives: int, total: int, s: float
) -> PredictiveBounds:
    """Lower/upper posterior expectation of xi_1 over the rescaled prior family.

    Every member's prior on xi_1 lives on [eps1, 1-eps2], so each posterior
    mean lies inside that interval.  As t_1 -> 0 the prior concentrates
    where xi_1 = eps1, and the manifest likelihood, positive on the whole
    interval, cannot resist, so the infimum is eps1; symmetrically, t_1 -> 1
    gives the supremum 1 - eps2.  Neither is attained: both are limits, for
    every dataset and every s.
    """
    _validate_counts(positives, total)
    lower, upper = channel.xi_range
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
