"""Exception types shared across the package."""


class SizeCapError(ValueError):
    """A combinatorial computation would exceed its configured size cap."""


class ScenarioError(ValueError):
    """A scenario document failed validation. The message names the field."""
