import math

import numpy as np
import pytest

from latentidm import log_gamma


def test_matches_stdlib_on_working_range():
    # documented accuracy target: absolute error <= 1e-10 on [0.1, 100]
    xs = np.linspace(0.1, 100.0, 20001)
    worst = max(abs(log_gamma(float(x)) - math.lgamma(float(x))) for x in xs)
    assert worst <= 1e-10


@pytest.mark.parametrize("x,expected", [(1.0, 0.0), (2.0, 0.0), (5.0, math.log(24.0))])
def test_integer_factorials(x, expected):
    assert log_gamma(x) == pytest.approx(expected, abs=1e-12)


def test_half_integer():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_recurrence():
    for x in (0.13, 0.7, 3.3, 41.5):
        assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), abs=1e-10)


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)
