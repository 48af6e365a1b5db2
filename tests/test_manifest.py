from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentidm.idm import BoundaryLimit, FrequencyVector, standard_idm_predictive_bounds
from latentidm.manifest import (
    BinaryChannel,
    direct_manifest_idm,
    naive_reconstruction,
    scaled_beta_posterior_bounds,
    scaled_beta_posterior_mean,
)
from latentidm.observation import ManifestDataset
from oracles import (
    expanded_likelihood,
    latent_to_manifest_chance_vector,
    midpoint_integral,
    moment_ratio,
    polynomial_posterior_ratio,
)

CH = BinaryChannel(0.1, 0.1)


class TestBinaryChannel:
    @pytest.mark.parametrize("eps1,eps2", [(0.0, 0.1), (0.5, 0.1), (0.1, 0.7)])
    def test_rejects_non_dominant(self, eps1, eps2):
        with pytest.raises(ValueError):
            BinaryChannel(eps1, eps2)

    def test_emission_layout(self):
        em = BinaryChannel(0.2, 0.3).emission()
        assert em.entries[0, 0] == pytest.approx(0.7)  # 1 - eps2
        assert em.entries[0, 1] == pytest.approx(0.2)  # eps1
        assert em.entries[1, 0] == pytest.approx(0.3)
        assert em.entries[1, 1] == pytest.approx(0.8)

    def test_xi_range(self):
        assert BinaryChannel(0.2, 0.3).xi_range == (0.2, 0.7)


class TestLatentToManifest:
    def test_endpoints(self):
        assert latent_to_manifest_chance_vector(CH, 0.0) == pytest.approx(0.1)
        assert latent_to_manifest_chance_vector(CH, 1.0) == pytest.approx(0.9)

    def test_symmetric_midpoint(self):
        assert latent_to_manifest_chance_vector(CH, 0.5) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_and_in_range(self, theta):
        value = latent_to_manifest_chance_vector(CH, theta)
        assert 0.1 <= value <= 0.9
        if theta < 1.0:
            assert latent_to_manifest_chance_vector(CH, min(theta + 0.01, 1.0)) >= value

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(min_value=0.0, max_value=1.0))
    def test_reconstruction_inverts_exactly(self, theta):
        xi = latent_to_manifest_chance_vector(CH, theta)
        back = naive_reconstruction(CH, xi)
        assert back.value == pytest.approx(theta, abs=1e-12)


class TestScaledBeta:
    def test_fixed_t_interior_value_against_quadrature(self):
        # flat prior member (s=2, t1=0.5), three positives out of three:
        # oracle is 1-D midpoint quadrature over theta at 1e5 points
        value = scaled_beta_posterior_mean(CH, 3, 3, 2.0, 0.5)

        def xi(theta):
            return 0.1 + 0.8 * theta

        num = midpoint_integral(lambda th: xi(th) ** 4, 0.0, 1.0)
        den = midpoint_integral(lambda th: xi(th) ** 3, 0.0, 1.0)
        oracle = num / den
        assert oracle == pytest.approx(0.7200975609756098, abs=1e-6)
        assert value == pytest.approx(oracle, abs=1e-3)
        assert 0.1 < value < 0.9

    def test_nonflat_member_against_quadrature(self):
        s, t1, positives, total = 3.0, 0.3, 1, 4
        value = scaled_beta_posterior_mean(CH, positives, total, s, t1)

        def integrand_parts(theta):
            prior = theta ** (s * t1 - 1.0) * (1.0 - theta) ** (s * (1 - t1) - 1.0)
            xi = 0.1 + 0.8 * theta
            like = xi**positives * (1.0 - xi) ** (total - positives)
            return prior * like, xi

        def num_f(theta):
            w, xi = integrand_parts(theta)
            return xi * w

        def den_f(theta):
            w, _ = integrand_parts(theta)
            return w

        oracle = midpoint_integral(num_f, 1e-9, 1 - 1e-9) / midpoint_integral(
            den_f, 1e-9, 1 - 1e-9
        )
        assert value == pytest.approx(oracle, abs=2e-3)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.01])
    @pytest.mark.parametrize("positives,total", [(0, 0), (3, 3), (1, 4), (2, 6), (6, 6)])
    def test_bounds_pinned_to_interval(self, eps, positives, total):
        channel = BinaryChannel(eps, eps)
        b = scaled_beta_posterior_bounds(channel, positives, total, 2.0)
        assert b.lower == pytest.approx(eps, abs=2e-3)
        assert b.upper == pytest.approx(1.0 - eps, abs=2e-3)
        assert b.argmin_t == BoundaryLimit(0, 0.0)
        assert b.argmax_t == BoundaryLimit(0, 1.0)

    def test_no_data_prior_bounds(self):
        b = scaled_beta_posterior_bounds(CH, 0, 0, 2.0)
        assert (b.lower, b.upper) == (pytest.approx(0.1), pytest.approx(0.9))

    def test_sweep_never_exits_interval(self):
        for t1 in np.linspace(0.05, 0.95, 7):
            value = scaled_beta_posterior_mean(CH, 2, 5, 2.0, float(t1))
            assert 0.1 - 1e-9 <= value <= 0.9 + 1e-9

    @pytest.mark.parametrize("eps1,eps2", [(0.1, 0.1), (0.05, 0.3), (0.45, 0.2)])
    @pytest.mark.parametrize("s,t1", [(2.0, 0.5), (0.5, 0.15), (7.0, 0.8)])
    def test_mean_matches_polynomial_oracle(self, eps1, eps2, s, t1):
        # exact Beta(s t1, s (1 - t1)) moments of xi L(xi) and L(xi), with
        # xi = eps1 + (1 - eps1 - eps2) theta and L = xi^p (1 - xi)^(n - p)
        channel = BinaryChannel(eps1, eps2)
        slope = 1.0 - eps1 - eps2
        xi, one_minus_xi = [eps1, slope], [1.0 - eps1, -slope]
        P = np.polynomial.polynomial
        for total in range(7):
            for positives in range(total + 1):
                likelihood = P.polymul(
                    P.polypow(xi, positives), P.polypow(one_minus_xi, total - positives)
                )
                oracle = polynomial_posterior_ratio(s * t1, s * (1.0 - t1), xi, likelihood)
                value = scaled_beta_posterior_mean(channel, positives, total, s, t1)
                assert value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("positives", [0, 70, 200])
    def test_mean_at_total_200_matches_the_exact_ratio(self, positives):
        # ten times the old 20-observation cap; a dyadic channel and prior keep the exact
        # expansion small: sum_j lambda_0j E[theta_j L] / E[L]
        channel = BinaryChannel(0.125, 0.25)
        emission = channel.emission()
        data = ManifestDataset.from_rows(emission, [0] * positives + [1] * (200 - positives))
        terms = expanded_likelihood(data)
        exact = sum(
            Fraction(float(emission.entries[0, j])) * moment_ratio(2.0, (0.25, 0.75), [1 - j, j], terms)
            for j in range(2)
        )
        value = scaled_beta_posterior_mean(channel, positives, 200, 2.0, 0.25)
        assert abs(value - float(exact)) <= 1e-12

    # t1 = 1e-9 is near its limit only while 1e-9 outweighs the likelihood
    # ratio across the interval, so the counts stay small: at 20 of 20
    # positives that ratio is 16^20 and the mean is still 0.727.
    @pytest.mark.parametrize("positives,total", [(0, 0), (3, 3), (0, 5), (2, 6), (4, 9)])
    def test_mean_reaches_interval_ends_as_t1_vanishes(self, positives, total):
        channel = BinaryChannel(0.05, 0.2)
        low = scaled_beta_posterior_mean(channel, positives, total, 2.0, 1e-9)
        high = scaled_beta_posterior_mean(channel, positives, total, 2.0, 1.0 - 1e-9)
        assert low == pytest.approx(0.05, abs=1e-3)
        assert high == pytest.approx(0.8, abs=1e-3)

    @pytest.mark.parametrize("t1", [0.01, 0.3, 0.5, 0.99])
    def test_no_data_mean_is_prior_mean(self, t1):
        channel = BinaryChannel(0.05, 0.2)
        value = scaled_beta_posterior_mean(channel, 0, 0, 3.0, t1)
        assert value == pytest.approx(0.05 + (1.0 - 0.05 - 0.2) * t1, abs=1e-15)


class TestNaiveReconstruction:
    def test_witness_exits_unit_interval(self):
        # 3-of-3 positives, s=2: manifest upper bound is (3+2)/5 = 1,
        # inversion gives (1 - 0.1)/0.8 = 1.125
        manifest = direct_manifest_idm(3, 3, 2.0)
        assert manifest.upper == 1.0
        reconstructed = naive_reconstruction(CH, manifest.upper)
        assert reconstructed.value == pytest.approx(1.125, abs=1e-12)
        assert reconstructed.out_of_range

    def test_endpoint_maps_to_zero(self):
        r = naive_reconstruction(CH, 0.1)
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert not r.out_of_range

    def test_midpoint_fixed(self):
        r = naive_reconstruction(CH, 0.5)
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_unclamped_below_zero(self):
        r = naive_reconstruction(CH, 0.0)
        assert r.value == pytest.approx(-0.125, abs=1e-12)
        assert r.out_of_range


class TestDirectManifest:
    def test_all_positive(self):
        b = direct_manifest_idm(3, 3, 2.0)
        assert (b.lower, b.upper) == (0.6, 1.0)

    def test_no_data(self):
        b = direct_manifest_idm(0, 0, 2.0)
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_half_and_half(self):
        b = direct_manifest_idm(1, 2, 2.0)
        assert (b.lower, b.upper) == (0.25, 0.75)

    def test_agrees_with_standard_bounds(self):
        b = direct_manifest_idm(2, 5, 1.0)
        std = standard_idm_predictive_bounds(1.0, FrequencyVector((2, 3)), 0)
        assert (b.lower, b.upper) == (std.lower, std.upper)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            direct_manifest_idm(4, 3, 2.0)
