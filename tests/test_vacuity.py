import numpy as np
import pytest

from latentidm import (
    CLAMP_TO_EPSILON,
    BinaryChannel,
    BoundedFunction,
    DegenerateRatioError,
    DeltaSet,
    DirichletParams,
    LikelihoodFunction,
    ManifestDataset,
    SimplexGrid,
    SimplexPoint,
    canonical_concentrating_sequence,
    constant_likelihood,
    coordinate_function,
    coordinate_likelihood,
    dataset_likelihood,
    delta_set_mass,
    fixed_strength_concentrating_sequence,
    liminf_positivity_check,
    monomial_function,
    monomial_likelihood,
    posterior_ratio,
    verify_theorem1,
)
from latentidm import vacuity
from latentidm.runner import Scenario, bundled_scenarios, run_scenario
from latentidm.simplex import _dirichlet_log_density_matrix
from latentidm.vacuity import MAX_SIDE, MIN_SIDE, _trend_grid
from oracles import polynomial_posterior_ratio

GRID = SimplexGrid(k=2, resolution=2000)
F_COORD = coordinate_function(0, 2)
VERTEX_10 = SimplexPoint([1.0, 0.0])

# likelihood of two observations of row 0 through the 0.1/0.1 channel:
# (0.1 + 0.8 theta)^2, strictly positive everywhere
CHANNEL_LIKELIHOOD = dataset_likelihood(
    ManifestDataset.from_rows(BinaryChannel(0.1, 0.1).emission(), [0, 0])
)
CHANNEL_POLY = [0.01, 0.16, 0.64]  # ascending coefficients of (0.1 + 0.8 x)^2


def beta_params(seq, n):
    params = seq.generator(n)
    return params.s * params.t[0], params.s * params.t[1]


class TestFunctionTypes:
    def test_coordinate_function_basics(self):
        values = F_COORD.values(GRID.points)
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert F_COORD.argmax_hint == VERTEX_10

    def test_monomial_declared_max_is_vacuous_value(self):
        f = monomial_function([1, 1])
        assert f.declared_max == 0.25
        assert f.argmax_hint == SimplexPoint([0.5, 0.5])
        f2 = monomial_function([2, 1])
        assert f2.declared_max == pytest.approx(4.0 / 27.0, abs=1e-15)

    def test_range_validation_fires(self):
        lying = BoundedFunction(
            evaluator=lambda pts: pts[:, 0] * 2.0,
            declared_min=0.0,
            declared_max=1.0,
        )
        with pytest.raises(ValueError):
            lying.values(GRID.points)

    def test_likelihood_rejects_negative_values(self):
        bad = LikelihoodFunction(evaluator=lambda pts: pts[:, 0] - 0.5)
        with pytest.raises(ValueError):
            bad.values(GRID.points)


class TestConcentratingSequences:
    def test_canonical_strength_and_path(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        p = seq.generator(10)
        assert p.s == 10.0
        assert p.t.coords == pytest.approx([0.9, 0.1])

    def test_mean_converges_to_target(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        gaps = [
            float(np.abs(seq.generator(n).t.coords - VERTEX_10.coords).max())
            for n in (10, 100, 1000)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-3

    def test_canonical_exponents_stay_nonnegative(self):
        seq = canonical_concentrating_sequence(SimplexPoint([0.5, 0.5]))
        for n in (10, 100, 1000):
            assert (seq.generator(n).alpha - 1.0).min() >= -1e-12

    def test_fixed_strength_keeps_s(self):
        seq = fixed_strength_concentrating_sequence(VERTEX_10, 2.0)
        assert seq.generator(50).s == 2.0
        assert seq.generator(50).t[0] == pytest.approx(1.0 - 1.0 / 50)

    def test_k3_target_path_valid(self):
        seq = canonical_concentrating_sequence(SimplexPoint([1.0, 0.0, 0.0]))
        p = seq.generator(10)
        assert p.t.coords == pytest.approx([0.8, 0.1, 0.1])
        assert p.t.is_interior


class TestDeltaSetMass:
    def test_full_range_delta_covers_everything(self):
        params = DirichletParams(3.0, SimplexPoint([0.4, 0.6]))
        mass = delta_set_mass(params, DeltaSet(F_COORD, 1.0), GRID)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_uniform_density_mass_is_slab_width(self):
        uniform = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        mass = delta_set_mass(uniform, DeltaSet(F_COORD, 0.1), GRID)
        assert mass == pytest.approx(0.1, abs=1e-3)

    def test_concentrated_density_fills_slab(self):
        params = canonical_concentrating_sequence(VERTEX_10).generator(200)
        mass = delta_set_mass(params, DeltaSet(F_COORD, 0.1), GRID)
        assert mass >= 0.99
        # exact value is 1 - 0.9^199
        assert mass == pytest.approx(1.0 - 0.9**199, abs=1e-3)

    def test_mass_monotone_in_delta(self):
        params = DirichletParams(6.0, SimplexPoint([0.7, 0.3]))
        masses = [
            delta_set_mass(params, DeltaSet(F_COORD, d), GRID)
            for d in (0.02, 0.05, 0.1, 0.2, 0.5)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))

    def test_mass_bounded_by_one(self):
        params = canonical_concentrating_sequence(VERTEX_10).generator(1000)
        grid = SimplexGrid(k=2, resolution=20000)
        mass = delta_set_mass(params, DeltaSet(F_COORD, 0.1), grid)
        assert 0.0 <= mass <= 1.0 + 1e-3

    def test_min_side_slab(self):
        uniform = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        mass = delta_set_mass(uniform, DeltaSet(F_COORD, 0.25, mode=MIN_SIDE), GRID)
        assert mass == pytest.approx(0.25, abs=1e-3)

    def test_trend_at_fixed_resolution(self):
        # delta in {0.2, 0.1, 0.05}: nondecreasing over the schedule and
        # above 0.99 at the end, all at m=2000
        seq = canonical_concentrating_sequence(VERTEX_10)
        for delta in (0.2, 0.1, 0.05):
            masses = [
                delta_set_mass(seq.generator(n), DeltaSet(F_COORD, delta), GRID)
                for n in (10, 100, 1000)
            ]
            assert masses[0] <= masses[1] + 1e-12 <= masses[2] + 2e-12
            assert masses[2] >= 0.99


class TestPosteriorRatio:
    def test_constant_likelihood_recovers_prior_mean(self):
        params = DirichletParams(4.0, SimplexPoint([0.3, 0.7]))
        ratio = posterior_ratio(params, constant_likelihood(), F_COORD, GRID)
        assert ratio == pytest.approx(0.3, abs=1e-3)

    def test_ratio_stays_in_declared_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = rng.uniform(0.2, 0.8)
            params = DirichletParams(rng.uniform(2.2, 8.0) / min(t, 1 - t), SimplexPoint([t, 1 - t]))
            ratio = posterior_ratio(params, CHANNEL_LIKELIHOOD, F_COORD, GRID)
            assert -1e-9 <= ratio <= 1.0 + 1e-9

    def test_positive_likelihood_ratio_climbs_to_max(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        ratios = []
        for n in (10, 100, 1000):
            grid = SimplexGrid(k=2, resolution=max(2000, 20 * n))
            ratios.append(posterior_ratio(seq.generator(n), CHANNEL_LIKELIHOOD, F_COORD, grid))
            # independent oracle: Beta-moment arithmetic on the polynomial likelihood
            a, b = beta_params(seq, n)
            expected = polynomial_posterior_ratio(a, b, [0.0, 1.0], CHANNEL_POLY)
            assert ratios[-1] == pytest.approx(expected, abs=1e-3)
        assert ratios[0] < ratios[1] < ratios[2]
        assert abs(ratios[2] - 1.0) < 0.01

    def test_vanishing_likelihood_along_strength_n_family(self):
        # L = theta_2 vanishes at the argmax, yet along the strength-n family
        # the ratio still climbs: closed form (n-1)/(n+1).  The recorded
        # margin at n=1000 is only ~2e-3; the genuine escape needs the
        # fixed-strength family below.
        seq = canonical_concentrating_sequence(VERTEX_10)
        for n in (10, 100, 1000):
            grid = SimplexGrid(k=2, resolution=max(2000, 20 * n))
            ratio = posterior_ratio(seq.generator(n), coordinate_likelihood(1), F_COORD, grid)
            assert ratio == pytest.approx((n - 1) / (n + 1), abs=2e-4)
            assert ratio < 1.0

    def test_fixed_strength_escape_gap(self):
        # mixed fully-observed dataset: L = theta_1 * theta_2 vanishes at the
        # argmax; along the fixed-strength family the ratio caps at
        # (s t_1 + 1)/(s + 2), far from 1
        seq = fixed_strength_concentrating_sequence(VERTEX_10, 2.0)
        mixed = monomial_likelihood([1, 1])
        for n in (10, 100, 1000):
            grid = SimplexGrid(k=2, resolution=max(2000, 20 * n))
            ratio = posterior_ratio(seq.generator(n), mixed, F_COORD, grid)
            expected = (2.0 * (1.0 - 1.0 / n) + 1.0) / 4.0
            assert ratio == pytest.approx(expected, abs=5e-4)
        assert abs(ratio - 1.0) > 0.05

    def test_degenerate_denominator_raises(self):
        params = DirichletParams(2.0, SimplexPoint([0.5, 0.5]))
        zero = LikelihoodFunction(evaluator=lambda pts: np.zeros(pts.shape[0]))
        with pytest.raises(DegenerateRatioError):
            posterior_ratio(params, zero, F_COORD, GRID)


class TestVerifyTheorem1:
    def test_max_side_with_positive_likelihood(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        (report,) = verify_theorem1(F_COORD, [CHANNEL_LIKELIHOOD], seq, [10, 100, 1000], GRID)
        assert report.side == MAX_SIDE
        assert report.rows[-1].posterior_ratio >= 0.99
        assert report.extremum_reached
        masses = [row.delta_masses[0] for row in report.rows]
        assert masses[0] <= masses[1] <= masses[2]

    def test_min_side_inferred_from_hint(self):
        seq = canonical_concentrating_sequence(SimplexPoint([0.0, 1.0]))
        (report,) = verify_theorem1(F_COORD, [CHANNEL_LIKELIHOOD], seq, [10, 100, 1000], GRID)
        assert report.side == MIN_SIDE
        assert report.rows[-1].posterior_ratio <= 0.01
        assert report.extremum_reached

    def test_monomial_reaches_vacuous_upper_value(self):
        f = monomial_function([1, 1])
        seq = canonical_concentrating_sequence(SimplexPoint([0.5, 0.5]))
        (report,) = verify_theorem1(f, [CHANNEL_LIKELIHOOD], seq, [10, 100, 1000], GRID)
        assert report.extremum == 0.25
        assert report.rows[-1].posterior_ratio >= 0.25 - 0.01
        assert report.extremum_reached

    def test_expectation_column_tracks_mean(self):
        seq = canonical_concentrating_sequence(VERTEX_10)
        (report,) = verify_theorem1(F_COORD, [constant_likelihood()], seq, [10, 100], GRID)
        for row, n in zip(report.rows, (10, 100)):
            assert row.expectation == pytest.approx(1.0 - 1.0 / n, abs=1e-3)

    def test_contrast_reports_failure(self):
        seq = fixed_strength_concentrating_sequence(VERTEX_10, 2.0)
        (report,) = verify_theorem1(
            F_COORD, [monomial_likelihood([1, 1])], seq, [10, 100, 1000], GRID
        )
        assert not report.extremum_reached
        assert report.final_gap > 0.05


def _trend_configurations():
    """(f, likelihoods, sequence, schedule, grid, deltas): the three bundled
    trend scenarios, then a k=3 monomial case with a contrast."""
    grid = SimplexGrid(k=2, resolution=2000, boundary_policy=CLAMP_TO_EPSILON)
    grid_k3 = SimplexGrid(k=3, resolution=60, boundary_policy=CLAMP_TO_EPSILON)
    target_k3 = SimplexPoint([1.0, 0.0, 0.0])
    schedule = [10, 100, 1000]
    return [
        (  # theorem-a1-concentration
            F_COORD,
            [CHANNEL_LIKELIHOOD, monomial_likelihood([1, 60])],
            canonical_concentrating_sequence(VERTEX_10),
            schedule,
            grid,
            [0.2, 0.1, 0.05],
        ),
        (  # theorem1-escape-contrast
            F_COORD,
            [monomial_likelihood([1, 1])],
            fixed_strength_concentrating_sequence(VERTEX_10, 2.0),
            schedule,
            grid,
            [0.1, 0.01],
        ),
        (  # theorem1-monomial-vacuity
            monomial_function([1, 1]),
            [CHANNEL_LIKELIHOOD],
            canonical_concentrating_sequence(SimplexPoint([0.5, 0.5])),
            schedule,
            grid,
            [0.1, 0.01],
        ),
        (
            coordinate_function(0, 3),
            [monomial_likelihood([2, 1, 1]), monomial_likelihood([0, 2, 1])],
            canonical_concentrating_sequence(target_k3),
            [10, 40],
            grid_k3,
            [0.2, 0.05],
        ),
    ]


class TestSharedDensity:
    @pytest.mark.parametrize("config", _trend_configurations())
    def test_rows_equal_standalone_integrals(self, config):
        f, likelihoods, seq, schedule, grid, deltas = config
        reports = verify_theorem1(f, likelihoods, seq, schedule, grid, deltas=deltas)
        assert len(reports) == len(likelihoods)
        for report, likelihood in zip(reports, likelihoods):
            assert [row.n for row in report.rows] == schedule
            for row in report.rows:
                params = seq.generator(row.n)
                grid_n = _trend_grid(grid, row.n)
                density = np.exp(_dirichlet_log_density_matrix(params, grid_n.points))
                expectation = float((f.values(grid_n.points) * density).sum() / density.sum())
                masses = tuple(
                    delta_set_mass(params, DeltaSet(f, d, mode=report.side), grid_n)
                    for d in deltas
                )
                assert row.expectation == expectation
                assert row.delta_masses == masses
                assert row.posterior_ratio == posterior_ratio(params, likelihood, f, grid_n)

    def test_one_density_per_index_with_a_contrast(self, monkeypatch):
        doc = bundled_scenarios()["theorem-a1-concentration"]
        assert doc["kind"] == "theorem-a1a2" and "contrast_likelihood" in doc
        calls = []
        density = vacuity._density

        def counted(params, grid):
            calls.append(params)
            return density(params, grid)

        monkeypatch.setattr(vacuity, "_density", counted)
        report = run_scenario(Scenario.from_dict(doc))
        assert report["results"]["contrast"] is not None
        assert len(calls) == len(doc["schedule"])


class TestLiminfPositivity:
    def test_channel_likelihood_positive(self):
        report = liminf_positivity_check(
            CHANNEL_LIKELIHOOD, F_COORD, [0.2, 0.1, 0.05, 0.01], GRID
        )
        assert report.positive
        # on the slab theta_1 >= 1 - delta the likelihood is >= (0.9 - 0.8 delta)^2,
        # far above the generic floor eps^2
        assert report.c_estimate >= 0.01
        infs = report.infimums
        assert all(a <= b + 1e-15 for a, b in zip(infs, infs[1:]))

    def test_vanishing_likelihood_negative(self):
        report = liminf_positivity_check(
            coordinate_likelihood(1), F_COORD, [0.2, 0.1, 0.05], GRID
        )
        assert not report.positive
        assert report.c_estimate <= 1e-8

    def test_constant_likelihood_c_is_one(self):
        report = liminf_positivity_check(constant_likelihood(), F_COORD, [0.1, 0.01], GRID)
        assert report.positive
        assert report.c_estimate == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nondecreasing_deltas(self):
        with pytest.raises(ValueError):
            liminf_positivity_check(constant_likelihood(), F_COORD, [0.1, 0.1], GRID)
