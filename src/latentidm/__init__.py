"""Lower/upper posterior-predictive bounds for categorical latent variables
observed through known noisy channels, under near-ignorance sets of Dirichlet
priors, plus a numerical lab for verifying when such bounds stay vacuous.

The supported interface is the `latentidm` command and its scenario
documents; the package root exports only the version and the two errors
that the command's exit codes report.
"""

from .errors import ScenarioError, SizeCapError

__version__ = "0.1.0"

__all__ = ["ScenarioError", "SizeCapError", "__version__"]
