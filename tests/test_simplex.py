import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm.simplex import DirichletParams, SimplexGrid, SimplexPoint
from oracles import (
    dirichlet_log_density,
    integrate_on_simplex,
    random_interior_params,
    reference_log_dirichlet,
)


class TestSimplexPoint:
    def test_valid_point(self):
        p = SimplexPoint([0.2, 0.3, 0.5])
        assert p.k == 3
        assert p.coords[2] == 0.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint([0.5, 0.5001])

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            SimplexPoint([1.0])

    def test_coords_read_only(self):
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            p.coords[0] = 0.9


class TestDirichletParams:
    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            DirichletParams(0.0, SimplexPoint([0.5, 0.5]))

    def test_rejects_boundary_t(self):
        with pytest.raises(ValueError):
            DirichletParams(1.0, SimplexPoint([1.0, 0.0]))

    def test_alpha(self):
        p = DirichletParams(4.0, SimplexPoint([0.25, 0.75]))
        assert np.allclose(p.alpha, [1.0, 3.0])


class TestSimplexGrid:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 5, 17, 100])
    def test_point_count_stars_and_bars(self, k, m):
        grid = SimplexGrid(k=k, resolution=m)
        assert grid.point_count == math.comb(m + k - 1, k - 1)

    def test_points_sum_to_one(self):
        grid = SimplexGrid(k=3, resolution=40)
        assert np.max(np.abs(grid.points.sum(axis=1) - 1.0)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=4),
        m=st.integers(min_value=2, max_value=40),
    )
    def test_clamp_policy_invariants(self, k, m):
        grid = SimplexGrid(k=k, resolution=m)
        assert grid.points.min() >= SimplexGrid.eps_clamp * (1.0 - 1e-15)
        assert np.max(np.abs(grid.points.sum(axis=1) - 1.0)) <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SimplexGrid(k=7, resolution=5)
        with pytest.raises(ValueError):
            SimplexGrid(k=2, resolution=0)
        with pytest.raises(TypeError):  # the clamp is fixed: no policy or epsilon to choose
            SimplexGrid(k=2, resolution=5, boundary_policy="include-boundary")


class TestLogDensity:
    def test_uniform_case_is_zero(self):
        # s=2, t=(1/2,1/2): all exponents zero, density identically 1
        params = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        assert dirichlet_log_density(params, SimplexPoint([0.5, 0.5])) == pytest.approx(
            0.0, abs=1e-14
        )
        assert dirichlet_log_density(params, [0.123, 0.877]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_lgamma_evaluation(self):
        params = DirichletParams(1.0, SimplexPoint([0.5, 0.5]))
        theta = [0.25, 0.75]
        assert dirichlet_log_density(params, theta) == pytest.approx(
            reference_log_dirichlet(params, theta), abs=1e-10
        )

    def test_matches_reference_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            params = random_interior_params(rng, k=rng.integers(2, 5))
            theta = rng.dirichlet(np.ones(params.k))
            theta = 0.9 * theta + 0.1 / params.k  # keep interior
            theta = theta / theta.sum()
            assert dirichlet_log_density(params, theta) == pytest.approx(
                reference_log_dirichlet(params, theta), abs=1e-9
            )

    def test_zero_coordinate_with_negative_exponent_raises(self):
        params = DirichletParams(1.0, SimplexPoint([0.5, 0.5]))  # exponents -0.5
        with pytest.raises(ValueError):
            dirichlet_log_density(params, [0.0, 1.0])

    def test_zero_coordinate_with_zero_exponent_is_finite(self):
        params = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        assert dirichlet_log_density(params, [0.0, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_zero_coordinate_with_positive_exponent_is_minus_inf(self):
        params = DirichletParams(6.0, SimplexPoint([0.5, 0.5]))
        assert dirichlet_log_density(params, [0.0, 1.0]) == -math.inf


class TestIntegration:
    def test_constant_gives_total_measure(self):
        grid = SimplexGrid(k=2, resolution=100)
        assert integrate_on_simplex(lambda p: 1.0, grid) == pytest.approx(1.0, abs=1e-14)
        grid3 = SimplexGrid(k=3, resolution=40)
        assert integrate_on_simplex(lambda p: 1.0, grid3) == pytest.approx(0.5, abs=1e-14)

    def test_density_normalizes(self):
        grid = SimplexGrid(k=2, resolution=2000)
        params = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        total = integrate_on_simplex(
            lambda p: math.exp(dirichlet_log_density(params, p)), grid
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_density_normalization_error_decreases_with_resolution(self):
        params = DirichletParams(5.0, SimplexPoint([0.4, 0.6]))

        def density(p):
            return math.exp(dirichlet_log_density(params, p))

        errors = []
        for m in (200, 2000):
            total = integrate_on_simplex(density, SimplexGrid(k=2, resolution=m))
            errors.append(abs(total - 1.0))
        assert errors[1] < errors[0]
        assert errors[1] < 1e-3

    def test_first_moment_matches_dirichlet_mean(self):
        grid = SimplexGrid(k=2, resolution=2000)
        params = DirichletParams(3.0, SimplexPoint([0.35, 0.65]))

        def weighted_coord(p):
            return p[0] * math.exp(dirichlet_log_density(params, p))

        def density(p):
            return math.exp(dirichlet_log_density(params, p))

        ratio = integrate_on_simplex(weighted_coord, grid) / integrate_on_simplex(density, grid)
        assert ratio == pytest.approx(0.35, abs=1e-3)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            integrate_on_simplex(lambda p: 1.0, SimplexGrid(k=2, resolution=1))

    def test_propagates_integrand_failure(self):
        grid = SimplexGrid(k=2, resolution=10)

        def broken(p):
            raise RuntimeError("integrand blew up")

        with pytest.raises(RuntimeError):
            integrate_on_simplex(broken, grid)


class TestDirichletMean:
    def test_mean_matches_integration_oracle(self):
        # 20 randomized draws, k=2, m=2000, tolerance 1e-3
        rng = np.random.default_rng(11)
        grid = SimplexGrid(k=2, resolution=2000)
        for _ in range(20):
            params = random_interior_params(rng, k=2)

            def density(pts):
                return np.exp(
                    np.array([dirichlet_log_density(params, p) for p in pts])
                )

            dens = density(grid.points)
            mean0 = float((grid.points[:, 0] * dens).sum() / dens.sum())
            assert mean0 == pytest.approx(params.t.coords[0], abs=1e-3)
