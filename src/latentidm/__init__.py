"""Lower/upper posterior-predictive bounds for categorical latent variables
observed through known noisy channels, under near-ignorance sets of Dirichlet
priors, plus a numerical lab for verifying when such bounds stay vacuous."""

from .errors import ScenarioError, SizeCapError
from .idm import (
    BoundaryLimit,
    FrequencyVector,
    PredictiveBounds,
    log_marginal_probability,
    posterior_update,
    standard_idm_predictive_bounds,
    vacuous_prior_upper_predictive,
)
from .manifest import (
    BinaryChannel,
    NaiveReconstruction,
    direct_manifest_idm,
    naive_reconstruction,
    scaled_beta_posterior_bounds,
    scaled_beta_posterior_mean,
)
from .observation import (
    EmissionMatrix,
    ManifestDataset,
    OutcomeDiagnosis,
    VacuityDiagnosis,
    frequency_weights,
    outcome_bounds,
    posterior_predictive_at_t,
    predictive_bounds,
    vacuity_diagnosis,
)
from .simplex import DirichletParams, SimplexGrid, SimplexPoint
from .vacuity import (
    ConcentratingSequence,
    DeltaSet,
    Polynomial,
    TrendReport,
    TrendRow,
    canonical_concentrating_sequence,
    constant_likelihood,
    coordinate_function,
    dataset_likelihood,
    delta_set_mass,
    fixed_strength_concentrating_sequence,
    monomial_function,
    monomial_likelihood,
    posterior_ratio,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryChannel",
    "BoundaryLimit",
    "ConcentratingSequence",
    "DeltaSet",
    "DirichletParams",
    "EmissionMatrix",
    "FrequencyVector",
    "ManifestDataset",
    "NaiveReconstruction",
    "OutcomeDiagnosis",
    "Polynomial",
    "PredictiveBounds",
    "ScenarioError",
    "SimplexGrid",
    "SimplexPoint",
    "SizeCapError",
    "TrendReport",
    "TrendRow",
    "VacuityDiagnosis",
    "canonical_concentrating_sequence",
    "constant_likelihood",
    "coordinate_function",
    "dataset_likelihood",
    "delta_set_mass",
    "direct_manifest_idm",
    "fixed_strength_concentrating_sequence",
    "frequency_weights",
    "log_marginal_probability",
    "monomial_function",
    "monomial_likelihood",
    "naive_reconstruction",
    "outcome_bounds",
    "posterior_predictive_at_t",
    "posterior_ratio",
    "posterior_update",
    "predictive_bounds",
    "scaled_beta_posterior_bounds",
    "scaled_beta_posterior_mean",
    "standard_idm_predictive_bounds",
    "vacuity_diagnosis",
    "vacuous_prior_upper_predictive",
    "verify_theorem1",
    "__version__",
]
