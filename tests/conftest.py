"""Shared test setup.

Hypothesis writes its failure report through `hypothesis.extra._patching`,
which imports libcst, whose use of `mypy_extensions.TypedDict` raises a
DeprecationWarning.  Under `filterwarnings = ["error"]` that warning, raised
inside pytest's report hook, would end the whole run with INTERNALERROR at the
first failing `@given` test.  Importing the module once here, with only that
warning ignored, lets such a test fail like any other.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
