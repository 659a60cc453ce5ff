import logging
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

import stablekern.estimator
from stablekern import (
    SS1,
    WIENER,
    EstimationProblem,
    KernelSpec,
    SearchConfig,
    closed_form_inverse,
    errors,
    fit,
    gram,
    log_marginal_likelihood,
    make_grid,
    oracle,
    posterior_mean,
    sqrt_factor,
    toeplitz_regressor,
    uniform_grid,
)

from helpers import inf_norm, inverse_cdf_paths, mp_regression, random_grid, random_spec


def make_instance(rng, family, n_data, order):
    """Random regression data with a draw from the prior as the true response."""
    grid = random_grid(rng, order)
    spec = random_spec(rng, family)
    u = rng.standard_normal(n_data)
    phi = toeplitz_regressor(u, order)
    h0 = rng.standard_normal(order)
    sigma2 = float(rng.uniform(0.05, 0.5))
    y = phi @ h0 + math.sqrt(sigma2) * rng.standard_normal(n_data)
    return phi, y, sigma2, spec, grid


def dense_posterior_mean(phi, y, sigma2, spec, grid):
    p = gram(spec, grid).values
    a = phi.T @ phi / sigma2 + oracle.dense_inverse(p)
    return oracle.dense_inverse(a) @ (phi.T @ y) / sigma2


def dense_log_marginal_likelihood(phi, y, sigma2, spec, grid):
    p = gram(spec, grid).values
    cov = phi @ p @ phi.T + sigma2 * np.eye(phi.shape[0])
    quad = y @ (oracle.dense_inverse(cov) @ y)
    n_data = y.shape[0]
    return -0.5 * (n_data * math.log(2.0 * math.pi) + oracle.dense_logdet(cov) + quad)


class TestToeplitzRegressor:
    def test_impulse_input(self):
        np.testing.assert_array_equal(
            toeplitz_regressor([1.0, 0.0, 0.0], 2), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        )

    def test_single_column(self):
        np.testing.assert_array_equal(toeplitz_regressor([1.0, 2.0], 1), [[1.0], [2.0]])

    def test_step_input(self):
        np.testing.assert_array_equal(
            toeplitz_regressor([1.0, 1.0, 1.0], 2), [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
        )

    def test_general_input(self):
        np.testing.assert_array_equal(
            toeplitz_regressor([1.0, 2.0, 3.0], 2), [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]]
        )

    def test_order_too_large(self):
        with pytest.raises(errors.OrderTooLarge):
            toeplitz_regressor([1.0, 2.0], 3)

    def test_order_too_small(self):
        for order in (0, 1.5, True):
            with pytest.raises(errors.InvalidParameter):
                toeplitz_regressor([1.0, 2.0], order)


class TestEstimationProblem:
    def test_valid(self):
        prob = EstimationProblem(u=[1.0, 2.0, 3.0], y=[0.1, 0.2, 0.3], order=2)
        assert prob.n_samples == 3
        assert prob.sigma2 is None

    def test_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            EstimationProblem(u=[1.0, 2.0], y=[1.0], order=1)

    def test_order_bounds(self):
        for order in (0, 2.5, True, "1"):
            with pytest.raises(errors.InvalidParameter):
                EstimationProblem(u=[1.0, 2.0, 3.0], y=[1.0, 2.0, 3.0], order=order)
        assert EstimationProblem(u=[1.0, 2.0], y=[1.0, 2.0], order=np.int64(2)).order == 2
        with pytest.raises(errors.OrderTooLarge):
            EstimationProblem(u=[1.0], y=[1.0], order=2)

    def test_sigma2_validation(self):
        for sigma2 in (0.0, float("nan"), True, "0.1"):
            with pytest.raises(errors.InvalidParameter):
                EstimationProblem(u=[1.0], y=[1.0], order=1, sigma2=sigma2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_data(self, bad):
        u = np.linspace(0.1, 3.0, 30)
        bad_u = u.copy()
        bad_u[3] = bad
        for uu, yy in ((bad_u, u), (u, bad_u)):
            with pytest.raises(errors.InvalidParameter, match="must be finite"):
                EstimationProblem(u=uu, y=yy, order=5)


class TestPosteriorMean:
    def test_zero_data(self):
        rng = np.random.default_rng(0)
        phi, _, sigma2, spec, grid = make_instance(rng, SS1, 30, 6)
        h = posterior_mean(phi, np.zeros(30), sigma2, spec, grid)
        np.testing.assert_array_equal(h, np.zeros(6))

    def test_huge_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        phi, y, _, spec, grid = make_instance(rng, WIENER, 40, 8)
        sigma2 = 1e12 * float(y @ y)
        h = posterior_mean(phi, y, sigma2, spec, grid)
        assert np.linalg.norm(h) <= 1e-6 * np.linalg.norm(y)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        phi, y, sigma2, spec, grid = make_instance(rng, SS1, 40, 8)
        h = posterior_mean(phi, y, sigma2, spec, grid)
        h_ref = dense_posterior_mean(phi, y, sigma2, spec, grid)
        assert np.max(np.abs(h - h_ref)) <= 1e-8

    def test_shape_checks(self):
        grid = uniform_grid(4, 1.0, 1.0)
        spec = KernelSpec(family=WIENER, c=1.0)
        with pytest.raises(errors.DimensionMismatch):
            posterior_mean(np.ones((5, 3)), np.ones(5), 0.1, spec, grid)
        with pytest.raises(errors.DimensionMismatch):
            posterior_mean(np.ones((5, 4)), np.ones(6), 0.1, spec, grid)
        for sigma2 in (0.0, "0.1"):
            with pytest.raises(errors.InvalidParameter):
                posterior_mean(np.ones((5, 4)), np.ones(5), sigma2, spec, grid)

    @pytest.mark.parametrize("shape", [(5,), (5, 4, 1)])
    def test_regressor_must_be_two_dimensional(self, shape):
        grid = uniform_grid(4, 1.0, 1.0)
        spec = KernelSpec(family=WIENER, c=1.0)
        for evaluate in (posterior_mean, log_marginal_likelihood):
            with pytest.raises(errors.DimensionMismatch, match=re.escape(f"must be 2-D, got shape {shape}")):
                evaluate(np.ones(shape), np.ones(5), 0.1, spec, grid)


class TestLogMarginalLikelihood:
    def test_scalar_case(self):
        c, beta, t1, sigma2 = 2.0, 0.3, 1.5, 0.25
        grid = uniform_grid(1, 1.0, t1)
        spec = KernelSpec(family=SS1, c=c, beta=beta)
        value = log_marginal_likelihood(np.array([[1.0]]), np.array([0.0]), sigma2, spec, grid)
        expected = -0.5 * math.log(2.0 * math.pi * (c * math.exp(-beta * t1) + sigma2))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        phi, y, sigma2, spec, grid = make_instance(rng, SS1, 40, 8)
        value = log_marginal_likelihood(phi, y, sigma2, spec, grid)
        ref = dense_log_marginal_likelihood(phi, y, sigma2, spec, grid)
        assert value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_structured_equals_dense_randomly(self, family):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n_data = int(rng.integers(10, 120))
            order = int(rng.integers(1, min(n_data, 40) + 1))
            phi, y, sigma2, spec, grid = make_instance(rng, family, n_data, order)
            value = log_marginal_likelihood(phi, y, sigma2, spec, grid)
            ref = dense_log_marginal_likelihood(phi, y, sigma2, spec, grid)
            assert value == pytest.approx(ref, rel=1e-8)
            h = posterior_mean(phi, y, sigma2, spec, grid)
            h_ref = dense_posterior_mean(phi, y, sigma2, spec, grid)
            assert inf_norm(np.atleast_2d(h - h_ref)) <= 1e-8 * max(1.0, inf_norm(np.atleast_2d(h_ref)))

    def test_scaling_coherence(self):
        rng = np.random.default_rng(5)
        phi, y, sigma2, spec, grid = make_instance(rng, SS1, 40, 8)
        base = log_marginal_likelihood(phi, y, sigma2, spec, grid)
        gamma = 7.5
        scaled_spec = KernelSpec(family=SS1, c=gamma * spec.c, beta=spec.beta)
        shifted = log_marginal_likelihood(
            phi, math.sqrt(gamma) * y, gamma * sigma2, scaled_spec, grid
        )
        expected = base - 0.5 * y.shape[0] * math.log(gamma)
        assert shifted == pytest.approx(expected, rel=1e-12)

    def test_shrinkage_monotone_in_noise(self):
        rng = np.random.default_rng(6)
        phi, y, _, spec, grid = make_instance(rng, WIENER, 60, 10)
        norms = [
            np.linalg.norm(posterior_mean(phi, y, s2, spec, grid))
            for s2 in np.geomspace(1e-3, 1e3, 10)
        ]
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi + 1e-12

    def test_posterior_mean_minimizes_regularized_objective(self):
        rng = np.random.default_rng(7)
        phi, y, sigma2, spec, grid = make_instance(rng, SS1, 50, 9)
        prec = closed_form_inverse(spec, grid).to_dense()

        def objective(h):
            r = y - phi @ h
            return float(r @ r) / sigma2 + float(h @ (prec @ h))

        h_hat = posterior_mean(phi, y, sigma2, spec, grid)
        best = objective(h_hat)
        for _ in range(100):
            d = rng.standard_normal(9)
            d /= np.linalg.norm(d)
            eps = 10.0 ** rng.uniform(-6, 0)
            assert objective(h_hat + eps * d) >= best - 1e-10

    def test_finite_for_badly_conditioned_prior(self):
        grid = uniform_grid(30, 1.0, 1.0)
        spec = KernelSpec(family=SS1, c=1.0, beta=1.0)
        p = gram(spec, grid).values
        assert np.linalg.cond(p) > 1e12
        rng = np.random.default_rng(8)
        u = rng.standard_normal(60)
        phi = toeplitz_regressor(u, 30)
        y = rng.standard_normal(60)
        value = log_marginal_likelihood(phi, y, 0.1, spec, grid)
        assert math.isfinite(value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.filterwarnings("error")
    def test_float_range_overflow_is_a_domain_error(self):
        grid = uniform_grid(10, 1.0, 1.0)
        rng = np.random.default_rng(9)
        phi = toeplitz_regressor(rng.standard_normal(40), 10)
        y = rng.standard_normal(40)
        # exp(-100 * 10) is below the float range, so the prior inverse
        # overflows; its square root, down to exp(-500), does not.
        spec = KernelSpec(family=SS1, c=1.0, beta=100.0)
        value = log_marginal_likelihood(phi, y, 0.1, spec, grid)
        exact, _ = mp_regression(phi, y, 0.1, spec, grid, 50)
        assert float(exact) == pytest.approx(-145.2490827000079, rel=1e-15)
        assert value == pytest.approx(float(exact), rel=1e-14)
        # c / sigma2 overflows for a subnormal noise variance.
        with pytest.raises(errors.NotPositiveDefinite):
            posterior_mean(phi, y, 1e-310, KernelSpec(family=WIENER, c=1.0), grid)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_data_is_a_domain_error(self, bad):
        grid = uniform_grid(5, 1.0, 1.0)
        rng = np.random.default_rng(10)
        phi = toeplitz_regressor(rng.standard_normal(30), 5)
        y = rng.standard_normal(30)
        y[3] = bad
        spec = KernelSpec(family=SS1, c=1.0, beta=0.5)
        with pytest.raises(errors.InvalidParameter, match="y must be finite"):
            log_marginal_likelihood(phi, y, 0.1, spec, grid)
        with pytest.raises(errors.InvalidParameter, match="y must be finite"):
            posterior_mean(phi, y, 0.1, spec, grid)

    @pytest.mark.filterwarnings("error")
    def test_data_overflow_is_a_domain_error(self):
        grid = uniform_grid(5, 1.0, 1.0)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(30)
        y = rng.standard_normal(30)
        y[3] = 1e200
        spec = KernelSpec(family=SS1, c=1.0, beta=0.5)
        # y'y = 1e400 leaves the float range while the data are folded.
        with pytest.raises(errors.InvalidParameter, match="y'y is not finite"):
            log_marginal_likelihood(toeplitz_regressor(u, 5), y, 0.1, spec, grid)
        search = SearchConfig(family=SS1, c_grid=(1.0,), beta_grid=(0.5,), sigma2_grid=(0.1,))
        with pytest.raises(errors.InvalidParameter, match="y'y is not finite"):
            fit(EstimationProblem(u=u, y=y, order=5), grid, search)
        # Folding succeeds here, but y'y / sigma2 overflows.
        y[3] = 1e150
        with pytest.raises(errors.InvalidParameter, match="y'y / sigma2 overflows"):
            log_marginal_likelihood(toeplitz_regressor(u, 5), y, 1e-10, spec, grid)
        # The mean needs neither y'y / sigma2 nor Phi'y / sigma2 (1e470 and 1e320
        # here): it exists where the likelihood fails on their overflow.
        with pytest.raises(errors.InvalidParameter, match="y'y / sigma2 overflows"):
            log_marginal_likelihood(toeplitz_regressor(u, 5), y, 1e-170, spec, grid)
        h = posterior_mean(toeplitz_regressor(u, 5), y, 1e-170, spec, grid)
        _, exact = mp_regression(toeplitz_regressor(u, 5), y, 1e-170, spec, grid, 60)
        assert max(abs(float(e) - x) for e, x in zip(exact, h)) <= 1e-13 * np.max(np.abs(h))


class TestSearchConfig:
    def test_axes_become_tuples(self):
        cfg = SearchConfig(family=WIENER, c_grid=np.array([1.0, 2.0]), refine_maxiter=np.int64(5))
        assert cfg.c_grid == (1.0, 2.0)
        assert all(type(v) is float for v in cfg.c_grid)
        assert cfg.beta_grid is None

    def test_rejects_bad_values(self):
        with pytest.raises(errors.InvalidParameter):
            SearchConfig(family=WIENER, c_grid=(1.0, -2.0))
        with pytest.raises(errors.InvalidParameter):
            SearchConfig(family="brownian", c_grid=(1.0,))
        with pytest.raises(errors.InvalidParameter):
            SearchConfig(family=SS1, c_grid=(1.0,), beta_grid=(0.0,))
        # Each value is checked before it is converted: no numpy error, and True is not 1.0.
        for kwargs in ({"c_grid": ["x"]}, {"c_grid": [True, 2.0]}, {"c_grid": (1.0,), "sigma2_grid": [10**400]},
                       {"c_grid": (1.0,), "refine": "yes"}, {"c_grid": (1.0,), "refine": 1},
                       {"c_grid": (1.0,), "refine_maxiter": 2.5}, {"c_grid": (1.0,), "refine_maxiter": 0},
                       {"c_grid": (1.0,), "refine_maxiter": True}):
            with pytest.raises(errors.InvalidParameter):
                SearchConfig(family=WIENER, **kwargs)

    def test_from_dict(self):
        cfg = SearchConfig.from_dict(
            {"c": {"min": 0.1, "max": 10.0, "num": 3}, "beta": {"min": 0.5, "max": 0.5, "num": 1}},
            family=SS1,
        )
        np.testing.assert_allclose(cfg.c_grid, [0.1, 1.0, 10.0], rtol=1e-12)
        assert cfg.beta_grid == (0.5,)
        assert cfg.refine is True

    def test_from_dict_validation(self):
        with pytest.raises(errors.InvalidParameter):
            SearchConfig.from_dict({"beta": {"min": 1, "max": 2, "num": 2}}, family=SS1)
        with pytest.raises(errors.InvalidParameter):
            SearchConfig.from_dict({"c": {"min": 1, "max": 2}}, family=WIENER)
        with pytest.raises(errors.InvalidParameter):
            SearchConfig.from_dict({"c": {"min": 1, "max": 2, "num": 2}, "nope": 1}, family=WIENER)
        with pytest.raises(errors.InvalidParameter):
            SearchConfig.from_dict({"c": {"min": 2, "max": 1, "num": 2}}, family=WIENER)
        with pytest.raises(errors.InvalidParameter):
            SearchConfig.from_dict([1, 2], family=WIENER)
        for search in ({"c": {"min": "x", "max": 1, "num": 3}},
                       {"c": {"min": 1, "max": 2, "num": None}},
                       {"c": {"min": 1, "max": 2, "num": float("inf")}},
                       {"c": {"min": 1, "max": 1, "num": 1}, "refine_maxiter": "many"},
                       {"c": {"min": 1, "max": 1, "num": 1}, "refine": "no"},
                       {"c": {"min": 1, "max": 1, "num": 1}, "refine": 1},
                       {"c": {"min": 1, "max": 2, "num": 2.7}},
                       {"c": {"min": 1, "max": 2, "num": True}},
                       {"c": {"min": 1, "max": 1, "num": 1}, "refine_maxiter": -5},
                       {"c": {"min": 1, "max": 1, "num": 1}, "refine_maxiter": 0},
                       {"c": {"min": 1, "max": 1, "num": 1}, "refine_maxiter": 2.5},
                       {"c": {"min": "0.1", "max": 1, "num": 2}},
                       {"c": {"min": 1, "max": 10**400, "num": 2}}):
            with pytest.raises(errors.InvalidParameter):
                SearchConfig.from_dict(search, family=WIENER)


class TestTune:
    def make_ss1_problem(self, seed=11, n_data=500, order=30, beta=0.4, c=2.0):
        rng = np.random.default_rng(seed)
        grid = uniform_grid(order, 1.0, 1.0)
        h0 = inverse_cdf_paths(KernelSpec(family=SS1, c=c, beta=beta), grid, seed, 1).paths[0]
        u = rng.standard_normal(n_data)
        phi = toeplitz_regressor(u, order)
        clean = phi @ h0
        sigma2 = float(np.var(clean) / 10.0)
        y = clean + math.sqrt(sigma2) * rng.standard_normal(n_data)
        return EstimationProblem(u=u, y=y, order=order), grid, c, beta, sigma2

    def test_single_candidate(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem(order=10, n_data=80)
        problem = EstimationProblem(u=problem.u, y=problem.y, order=10, sigma2=sigma2)
        search = SearchConfig(family=SS1, c_grid=(c,), beta_grid=(beta,), refine=False)
        result = fit(problem, grid, search)
        assert result.spec == KernelSpec(family=SS1, c=c, beta=beta)
        assert result.sigma2 == sigma2
        phi = toeplitz_regressor(problem.u, 10)
        direct = log_marginal_likelihood(phi, problem.y, sigma2, result.spec, grid)
        assert result.log_ml == pytest.approx(direct, abs=1e-12)
        assert len(result.diagnostics["trace"]) == 1

    def test_never_below_truth_on_grid(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem()
        search = SearchConfig(
            family=SS1,
            c_grid=(0.25 * c, c, 4.0 * c),
            beta_grid=(0.5 * beta, beta, 2.0 * beta),
            sigma2_grid=(0.25 * sigma2, sigma2, 4.0 * sigma2),
        )
        result = fit(problem, grid, search)
        phi = toeplitz_regressor(problem.u, problem.order)
        truth = log_marginal_likelihood(
            phi, problem.y, sigma2, KernelSpec(family=SS1, c=c, beta=beta), grid
        )
        assert result.log_ml >= truth - 1e-6

    def test_dominant_candidate_selected(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem(order=12, n_data=150)
        problem = EstimationProblem(u=problem.u, y=problem.y, order=12, sigma2=sigma2)
        search = SearchConfig(family=SS1, c_grid=(c, 100.0 * c), beta_grid=(beta,), refine=False)
        result = fit(problem, grid, search)
        phi = toeplitz_regressor(problem.u, 12)
        matched = log_marginal_likelihood(phi, problem.y, sigma2, KernelSpec(family=SS1, c=c, beta=beta), grid)
        mismatched = log_marginal_likelihood(
            phi, problem.y, sigma2, KernelSpec(family=SS1, c=100.0 * c, beta=beta), grid
        )
        assert matched > mismatched
        assert result.spec.c == c

    def test_deterministic(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem(order=8, n_data=100)
        search = SearchConfig(
            family=SS1, c_grid=(c,), beta_grid=(beta,), sigma2_grid=(sigma2, 4 * sigma2)
        )
        a = fit(problem, grid, search)
        b = fit(problem, grid, search)
        assert a.spec == b.spec
        assert a.sigma2 == b.sigma2
        assert a.log_ml == b.log_ml
        assert a.diagnostics["trace"] == b.diagnostics["trace"]

    def test_refinement_improves_or_matches_grid(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem(order=8, n_data=100)
        base = SearchConfig(
            family=SS1, c_grid=(0.3 * c,), beta_grid=(beta,), sigma2_grid=(sigma2,), refine=False
        )
        refined = SearchConfig(
            family=SS1, c_grid=(0.3 * c,), beta_grid=(beta,), sigma2_grid=(sigma2,), refine=True
        )
        coarse = fit(problem, grid, base)
        fine = fit(problem, grid, refined)
        assert fine.log_ml >= coarse.log_ml
        assert len(fine.diagnostics["trace"]) > len(coarse.diagnostics["trace"])

    def test_empty_search_space(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem(order=5, n_data=40)
        with pytest.raises(errors.EmptySearchSpace):
            fit(problem, grid, SearchConfig(family=SS1, c_grid=()))
        with pytest.raises(errors.EmptySearchSpace):
            fit(problem, grid, SearchConfig(family=SS1, c_grid=(1.0,)))
        fixed = EstimationProblem(u=problem.u, y=problem.y, order=5, sigma2=sigma2)
        with pytest.raises(errors.EmptySearchSpace):
            fit(
                fixed, grid, SearchConfig(family=WIENER, c_grid=(), sigma2_grid=(1.0,))
            )

    def test_grid_order_mismatch(self):
        problem, grid, c, beta, sigma2 = self.make_ss1_problem(order=5, n_data=40)
        wrong = uniform_grid(6, 1.0, 1.0)
        search = SearchConfig(family=SS1, c_grid=(c,), beta_grid=(beta,), sigma2_grid=(sigma2,))
        with pytest.raises(errors.DimensionMismatch):
            fit(problem, wrong, search)


class TestFit:
    def test_zero_output_gives_zero_coefficients(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal(50)
        problem = EstimationProblem(u=u, y=np.zeros(50), order=6, sigma2=0.5)
        grid = uniform_grid(6, 1.0, 1.0)
        search = SearchConfig(family=WIENER, c_grid=(0.5, 2.0), refine=False)
        est = fit(problem, grid, search)
        np.testing.assert_array_equal(est.coefficients, np.zeros(6))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_zero_output_with_free_noise_is_a_domain_error(self, family):
        # y = 0: the likelihood peaks at sigma2 = 0 for every lam, so every candidate fails.
        rng = np.random.default_rng(12)
        problem = EstimationProblem(u=rng.standard_normal(50), y=np.zeros(50), order=6)
        search = SearchConfig(family=family, c_grid=(0.5, 2.0), sigma2_grid=(0.1, 1.0),
                              beta_grid=(0.3,) if family == SS1 else None)
        with pytest.raises(errors.InvalidParameter, match="peaks at sigma2=0.0"):
            fit(problem, uniform_grid(6, 1.0, 1.0), search)

    @pytest.mark.filterwarnings("error")
    def test_exact_fit_is_a_failed_candidate_or_a_normal_noise_variance(self):
        # N = order and Phi = I: at lam = 1e100 the data are fitted to the
        # last bit, and the best sigma2 rounds to about 0.
        u = np.zeros(5)
        u[0] = 1.0
        problem = EstimationProblem(u=u, y=np.array([1.0, 0.5, 0.25, 0.125, 0.0625]), order=5)
        search = SearchConfig(family=WIENER, c_grid=(1.0,), sigma2_grid=(1e-100, 1e-16, 1.0), refine=False)
        est = fit(problem, uniform_grid(5, 1.0, 1.0), search)
        trace = est.diagnostics["trace"]
        assert len(trace) + est.diagnostics["n_failed"] == 3
        assert all(e["sigma2"] >= sys.float_info.min and e["c"] >= sys.float_info.min for e in trace)
        assert np.all(np.isfinite(est.coefficients))

    @pytest.mark.filterwarnings("error")
    def test_profiled_noise_variance_within_rounding_fails(self):
        # Phi = I, so q = y'(I + lam P)^{-1} y falls like 1/lam: from lam ~ 1e16 on
        # it is below the rounding of y'y, and the computed one is an ulp pattern.
        import mpmath

        u = np.zeros(5)
        u[0] = 1.0
        phi, y, grid = toeplitz_regressor(u, 5), np.array([1.0, -2.0, 3.0, 0.5, 1.5]), uniform_grid(5, 1.0, 1.0)
        stats = stablekern.estimator._fold(phi, y, grid, WIENER)
        lams = [10.0 ** k for k in range(0, 32, 2)]
        results = stablekern.estimator._log_mls(stats, stablekern.estimator._whiten(stats, WIENER, None, grid),
                                                np.array(lams))
        bound = (5 + 5 + 1) * 2.0 ** -53 * float(y @ y)  # (N + n + 1) u y'y
        for lam, result in zip(lams, results):
            # 60-digit q and profiled log_ml from the likelihoods at sigma2 = 1 and 2, both at lam.
            l1, _ = mp_regression(phi, y, 1.0, KernelSpec(family=WIENER, c=lam), grid, 60)
            l2, _ = mp_regression(phi, y, 2.0, KernelSpec(family=WIENER, c=2 * lam), grid, 60)
            with mpmath.workdps(60):
                q = 4 * (l2 - l1) + 10 * mpmath.log(2)
                profiled = l1 + (q - 5 - 5 * mpmath.log(q / 5)) / 2
            if lam >= 1e16:
                assert q < bound
                assert isinstance(result, errors.InvalidParameter)
                assert "rounding-error bound" in str(result)
                continue
            c, s2, log_ml = result
            assert c == lam * s2
            assert abs(5 * s2 - float(q)) <= bound
            assert abs(log_ml - float(profiled)) <= 2.5 * bound / float(q - bound) + 1e-13
        search = SearchConfig(family=WIENER, c_grid=(1.0,), sigma2_grid=(1e-30, 1e-16, 1e-2, 1.0), refine=False)
        est = fit(EstimationProblem(u=u, y=y, order=5), grid, search)
        assert [e["c"] / e["sigma2"] for e in est.diagnostics["trace"]] == pytest.approx([1.0, 100.0], rel=1e-15)
        assert est.diagnostics["n_failed"] == 2

    def test_impulse_input_recovers_data(self):
        n_data, order = 60, 20
        u = np.zeros(n_data)
        u[0] = 1.0
        k = np.arange(n_data)
        y = np.exp(-0.3 * k)
        problem = EstimationProblem(u=u, y=y, order=order, sigma2=1e-10)
        grid = uniform_grid(order, 1.0, 1.0)
        search = SearchConfig(family=SS1, c_grid=(0.5, 1.0, 2.0), beta_grid=(0.1, 0.3, 0.6))
        est = fit(problem, grid, search)
        np.testing.assert_allclose(est.coefficients, y[:order], rtol=1e-3)

    def test_log_ml_invariant(self):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=10, n_data=120)
        search = SearchConfig(
            family=SS1, c_grid=(c,), beta_grid=(0.5 * beta, beta), sigma2_grid=(sigma2,)
        )
        est = fit(problem, grid, search)
        phi = toeplitz_regressor(problem.u, problem.order)
        direct = log_marginal_likelihood(phi, problem.y, est.sigma2, est.spec, grid)
        assert est.log_ml == pytest.approx(direct, abs=1e-12 * max(1.0, abs(direct)))
        assert est.diagnostics["sigma2_tuned"] is True
        assert est.diagnostics["n_evaluations"] == len(est.diagnostics["trace"])

    def test_reproducible(self):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        search = SearchConfig(family=SS1, c_grid=(c, 2 * c), beta_grid=(beta,), sigma2_grid=(sigma2,))
        a = fit(problem, grid, search)
        b = fit(problem, grid, search)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.to_dict() == b.to_dict()

    def test_to_dict_round_trip_types(self):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=5, n_data=40)
        search = SearchConfig(
            family=SS1, c_grid=(c,), beta_grid=(beta,), sigma2_grid=(sigma2,), refine=False
        )
        d = fit(problem, grid, search).to_dict()
        assert set(d) == {"coefficients", "kernel", "sigma2", "log_ml", "diagnostics"}
        assert all(isinstance(x, float) for x in d["coefficients"])
        assert d["kernel"]["family"] == SS1

    def test_beta_underflow_is_a_failed_candidate(self):
        # beta * t_n = 2000 underflows exp(-beta * t_n / 2), so that prior's
        # closed-form square root does not exist; the candidate must count as failed.
        rng = np.random.default_rng(3)
        order, n_data = 40, 200
        u = rng.standard_normal(n_data)
        y = np.convolve(u, np.exp(-0.3 * np.arange(order)))[:n_data] + 0.1 * rng.standard_normal(n_data)
        problem = EstimationProblem(u=u, y=y, order=order)
        grid = uniform_grid(order, 1.0, 1.0)
        search = SearchConfig(family=SS1, c_grid=(1.0,), beta_grid=(0.1, 50.0), sigma2_grid=(0.01, 0.1))
        est = fit(problem, grid, search)
        assert est.diagnostics["n_failed"] >= 1
        assert all(e["beta"] != 50.0 for e in est.diagnostics["trace"])
        assert np.all(np.isfinite(est.coefficients))

        underflow_only = SearchConfig(family=SS1, c_grid=(1.0,), beta_grid=(40.0, 50.0), sigma2_grid=(0.01,))
        with pytest.raises(errors.SingularGram):
            fit(problem, grid, underflow_only)


def lag_fold(monkeypatch, u, y, grid, family):
    """fit's fold of (u, y): the Phi'Phi and Phi'y it forms from lag products, and its folded data."""
    seen = []
    in_unit_coordinates = stablekern.estimator._in_unit_coordinates

    def capture(gram, cross, *rest):
        seen.append((gram, cross))
        return in_unit_coordinates(gram, cross, *rest)

    monkeypatch.setattr(stablekern.estimator, "_in_unit_coordinates", capture)
    stats = stablekern.estimator._fold_lags(u, y, grid, family)
    (sums,) = seen
    return (*sums, stats)


def lag_fold_case(name):
    """(u, y, order) of a named fold accuracy case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n_data, order = {"order 1": (7, 1), "order 1, one sample": (1, 1), "order equal to the data length": (30, 30),
                     "one sample more than the order": (21, 20), "impulse": (12, 5), "zero input": (10, 4),
                     "scaled 1e150": (60, 12), "scaled 1e-150": (60, 12), "long": (500, 50)}[name]
    u, y = rng.standard_normal(n_data), rng.standard_normal(n_data)
    if name == "order equal to the data length":
        # Phi'Phi[n-1, n-1] = u_0^2 ~ 1e-16: a full-range lag sum of about 1
        # minus the products past that entry's terms cancels to its rounding.
        u *= np.geomspace(1e-8, 1.0, n_data)
    elif name == "impulse":
        u = np.eye(1, n_data)[0]
    elif name == "zero input":
        u = np.zeros(n_data)
    elif name.startswith("scaled"):
        scale = float(name.split()[1])
        u, y = scale * u, scale * y
    return u, y, order


class TestLagFold:
    """fit folds the data from lag products of u, O(N n): every entry a sum of its own terms."""

    CASES = ["order 1", "order 1, one sample", "order equal to the data length", "one sample more than the order",
             "impulse", "zero input", "scaled 1e150", "scaled 1e-150", "long"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("name", CASES)
    def test_entries_within_rounding_of_their_exact_sums(self, monkeypatch, name, family):
        u, y, order = lag_fold_case(name)
        grid = uniform_grid(order, 1.0, 1.0)
        gram, cross, stats = lag_fold(monkeypatch, u, y, grid, family)
        phi = toeplitz_regressor(u, order)
        unit = 2.0 ** -53
        # Each entry against math.fsum of its own products, within 8 u times the sum of their magnitudes.
        for got, columns in ((gram, [(phi[:, j], phi[:, l]) for j in range(order) for l in range(order)]),
                             (cross, [(phi[:, j], y) for j in range(order)])):
            for value, (a, b) in zip(got.reshape(-1).tolist(), columns):
                terms = a * b
                error, bound = abs(value - math.fsum(terms.tolist())), 8 * unit * float(np.abs(terms).sum())
                assert error <= bound
        assert np.array_equal(gram, gram.T)
        w = stablekern.estimator._unit_triangle(family, grid.times)
        assert np.array_equal(stats.unit, w)
        assert np.array_equal(stats.gram, w.T @ gram @ w) and np.array_equal(stats.cross, cross @ w)
        assert stats.yy == float(y @ y) and stats.n_data == u.shape[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("data", ["u_i u_j overflows", "u_i u_j overflows with both signs",
                                      "lag sum overflows", "y'y overflows"])
    def test_overflow_is_the_same_error_as_the_regressor_fold(self, data, family):
        # The error, and its message, of the Phi fold that public functions use; no numpy warning.
        rng = np.random.default_rng(12)
        u, y = rng.standard_normal(40), rng.standard_normal(40)
        if data == "u_i u_j overflows":
            u[5] = 1e160
        elif data == "u_i u_j overflows with both signs":
            u = 1e160 * np.where(np.arange(40) % 2, 1.0, -1.0)
        elif data == "lag sum overflows":
            u = np.full(40, 1e154)
        else:
            y[30] = 1e160
        grid = uniform_grid(6, 1.0, 1.0)
        with pytest.raises(errors.InvalidParameter) as via_phi:
            stablekern.estimator._fold(toeplitz_regressor(u, 6), y, grid, family)
        with pytest.raises(errors.InvalidParameter) as via_lags:
            stablekern.estimator._fold_lags(u, y, grid, family)
        assert str(via_lags.value) == str(via_phi.value)
        search = SearchConfig(family=family, c_grid=(1.0,), beta_grid=(0.5,), sigma2_grid=(0.1,))
        with pytest.raises(errors.InvalidParameter, match="Phi'Phi, Phi'y or y'y is not finite"):
            fit(EstimationProblem(u=u, y=y, order=6), grid, search)

    def test_large_data_fit_needs_no_data_length_matrix(self):
        # N = 2e5, n = 100: the Toeplitz regressor alone would be 153 MiB.
        rng = np.random.default_rng(13)
        u = rng.standard_normal(200_000)
        y = np.convolve(u, np.exp(-0.1 * np.arange(100)))[:200_000] + 0.1 * rng.standard_normal(200_000)
        problem = EstimationProblem(u=u, y=y, order=100)
        search = SearchConfig(family=SS1, c_grid=(0.5, 2.0), beta_grid=(0.05, 0.2), sigma2_grid=(0.01, 0.1),
                              refine=False)
        tracemalloc.start()
        try:
            est = fit(problem, uniform_grid(100, 1.0, 1.0), search)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.diagnostics["n_failed"] == 0
        assert peak < 8 * 2**20, peak / 2**20


class TestSingleEvaluationPath:
    """fit folds the data once, and the tuner evaluates the public functions.

    Each entry holds the value at its lam, with sigma2 fixed or profiled,
    and records c = lam sigma2; the mean comes from that lam.  So they
    agree with the public functions at the entry's (c, sigma2), whose
    quotient is lam to the last bit or so.
    """

    def test_fit_builds_no_regressor(self, monkeypatch):
        # fit folds the data from lag products of u: no N x n Toeplitz regressor.
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        calls = []

        def counting(u, order):
            calls.append(order)
            return toeplitz_regressor(u, order)

        monkeypatch.setattr(stablekern.estimator, "toeplitz_regressor", counting)
        search = SearchConfig(family=SS1, c_grid=(c, 2 * c), beta_grid=(beta,), sigma2_grid=(sigma2,))
        fit(problem, grid, search)
        assert calls == []

    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("fixed_sigma2", [False, True])
    def test_trace_and_coefficients_equal_public_functions(self, family, fixed_sigma2):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=100)
        if fixed_sigma2:
            problem = EstimationProblem(u=problem.u, y=problem.y, order=8, sigma2=sigma2)
        search = SearchConfig(
            family=family,
            c_grid=(0.5 * c, 2 * c),
            beta_grid=(beta, 2 * beta) if family == SS1 else None,
            sigma2_grid=(sigma2, 4 * sigma2),
            refine=True,
            refine_maxiter=40,
        )
        est = fit(problem, grid, search)
        trace = est.diagnostics["trace"]
        assert len(trace) > 4
        phi = toeplitz_regressor(problem.u, problem.order)
        for entry in trace:
            spec = KernelSpec(family=family, c=entry["c"], beta=entry.get("beta"))
            value = log_marginal_likelihood(phi, problem.y, entry["sigma2"], spec, grid)
            assert entry["log_ml"] == pytest.approx(value, rel=1e-13)
            if fixed_sigma2:
                assert entry["sigma2"] == sigma2
        coefficients = posterior_mean(phi, problem.y, est.sigma2, est.spec, grid)
        np.testing.assert_allclose(coefficients, est.coefficients, rtol=0, atol=1e-13 * np.max(np.abs(coefficients)))


def refined_problem(family, fixed_sigma2, seed):
    """A refined-fit problem of the committed set: SS-1 truth, N = 150, order 10."""
    problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(seed=seed, n_data=150, order=10)
    if fixed_sigma2:
        problem = EstimationProblem(u=problem.u, y=problem.y, order=10, sigma2=sigma2)
    search = SearchConfig(family=family, c_grid=(0.3 * c, 3.0 * c),
                          beta_grid=(0.5 * beta, 2.0 * beta) if family == SS1 else None,
                          sigma2_grid=(0.3 * sigma2, 3.0 * sigma2), refine=True)
    return problem, grid, search


class TestWhitenedLogMarginalLikelihood:
    """The log marginal likelihood in the prior's whitened coordinates, against the dense N x N oracle."""

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_matches_dense_oracle_on_non_uniform_grids(self, family):
        rng = np.random.default_rng(20)
        for _ in range(8):
            n_data = int(rng.integers(5, 60))
            order = int(rng.integers(1, min(n_data, 12) + 1))
            phi, y, sigma2, spec, grid = make_instance(rng, family, n_data, order)
            value = log_marginal_likelihood(phi, y, sigma2, spec, grid)
            assert value == pytest.approx(dense_log_marginal_likelihood(phi, y, sigma2, spec, grid), rel=1e-8)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_fixed_sigma2_trace_matches_dense_oracle(self, family):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=6, n_data=40)
        problem = EstimationProblem(u=problem.u, y=problem.y, order=6, sigma2=sigma2)
        search = SearchConfig(family=family, c_grid=(0.5 * c, 2 * c),
                              beta_grid=(beta, 2 * beta) if family == SS1 else None, refine_maxiter=20)
        phi = toeplitz_regressor(problem.u, 6)
        for entry in fit(problem, grid, search).diagnostics["trace"]:
            assert entry["sigma2"] == sigma2
            spec = KernelSpec(family=family, c=entry["c"], beta=entry.get("beta"))
            ref = dense_log_marginal_likelihood(phi, problem.y, sigma2, spec, grid)
            assert entry["log_ml"] == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_profiled_trace_matches_dense_oracle(self, family, seed):
        # Each entry is the likelihood at its own (c, beta, sigma2), and its
        # sigma2 is the best one for its lam = c / sigma2.
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(seed=seed, order=6, n_data=40)
        search = SearchConfig(family=family, c_grid=(0.5 * c, 2 * c), sigma2_grid=(0.5 * sigma2, 2 * sigma2),
                              beta_grid=(beta, 2 * beta) if family == SS1 else None, refine_maxiter=20)
        est = fit(problem, grid, search)
        phi = toeplitz_regressor(problem.u, 6)
        trace = est.diagnostics["trace"]
        # More entries than the grid's distinct lam (3 per beta): refinement's are checked too.
        assert len(trace) > (6 if family == SS1 else 3)
        for entry in trace:
            spec = KernelSpec(family=family, c=entry["c"], beta=entry.get("beta"))
            ref = dense_log_marginal_likelihood(phi, problem.y, entry["sigma2"], spec, grid)
            assert entry["log_ml"] == pytest.approx(ref, rel=1e-8)
            for step in (0.99, 1.01):
                moved = KernelSpec(family=family, c=step * entry["c"], beta=entry.get("beta"))
                assert dense_log_marginal_likelihood(phi, problem.y, step * entry["sigma2"], moved, grid) < ref

    def test_steep_ss1_prior(self):
        # beta * t_n = 50: the prior's precision reaches e^50 ~ 5e21.
        rng = np.random.default_rng(21)
        grid = uniform_grid(10, 1.0, 1.0)
        spec = KernelSpec(family=SS1, c=3.0, beta=5.0)
        phi = toeplitz_regressor(rng.standard_normal(40), 10)
        y = rng.standard_normal(40)
        value = log_marginal_likelihood(phi, y, 0.2, spec, grid)
        assert value == pytest.approx(dense_log_marginal_likelihood(phi, y, 0.2, spec, grid), rel=1e-8)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_zero_output(self, family):
        rng = np.random.default_rng(22)
        phi, _, sigma2, spec, grid = make_instance(rng, family, 30, 5)
        y = np.zeros(30)
        value = log_marginal_likelihood(phi, y, sigma2, spec, grid)
        assert value == pytest.approx(dense_log_marginal_likelihood(phi, y, sigma2, spec, grid), rel=1e-8)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_order_one(self, family):
        rng = np.random.default_rng(23)
        phi, y, sigma2, spec, grid = make_instance(rng, family, 12, 1)
        value = log_marginal_likelihood(phi, y, sigma2, spec, grid)
        assert value == pytest.approx(dense_log_marginal_likelihood(phi, y, sigma2, spec, grid), rel=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_output_energy_near_the_float_limit(self, family):
        # y'y = 1.5e308: twice y'y is past the float range, so the border of
        # the bordered system must be scaled, not padded by a multiple of y'y.
        rng = np.random.default_rng(24)
        phi, y, _, spec, grid = make_instance(rng, family, 40, 6)
        y *= math.sqrt(1.5e308 / float(y @ y))
        assert 1e308 < float(y @ y) < np.finfo(float).max
        value = log_marginal_likelihood(phi, y, 10.0, spec, grid)
        assert value == pytest.approx(dense_log_marginal_likelihood(phi, y, 10.0, spec, grid), rel=1e-8)


class TestBatchedEvaluation:
    """One beta's candidates share one whitening and one batched Cholesky."""

    def test_batch_equals_one_at_a_time(self):
        rng = np.random.default_rng(25)
        for family in (WIENER, SS1):
            phi, y, _, spec, grid = make_instance(rng, family, 80, 9)
            stats = stablekern.estimator._fold(phi, y, grid, family)
            white = stablekern.estimator._whiten(stats, family, spec.beta, grid)
            # The last candidate's system overflows: it fails alone, in the batch or not.
            c = np.array([0.1, 1.0, 10.0, 3.0])
            lam = np.append(c / 0.2, math.inf)
            for sigma2 in (None, 0.2):
                batch = stablekern.estimator._log_mls(stats, white, lam, sigma2)
                single = [stablekern.estimator._log_mls(stats, white, lam[k:k + 1], sigma2)[0] for k in range(5)]
                assert batch[:4] == single[:4]
                assert all(isinstance(v, tuple) and all(isinstance(x, float) for x in v) for v in batch[:4])
                for value in (batch[4], single[4]):
                    assert isinstance(value, errors.NotPositiveDefinite)
                    assert str(value) == "posterior system overflows the float range"
            for k in range(4):  # the fixed sigma2 = 0.2 batch
                spec_k = KernelSpec(family=family, c=float(c[k]), beta=spec.beta)
                assert batch[k][2] == log_marginal_likelihood(phi, y, 0.2, spec_k, grid)

    def test_a_factor_that_fails_is_its_candidate_alone(self):
        stack = np.stack([np.eye(3) * 4.0, -np.eye(3), np.diag([9.0, 1.0, 4.0])])
        low = stablekern.estimator._cholesky(stack)
        np.testing.assert_array_equal(low[0], np.eye(3) * 2.0)
        assert np.all(np.isnan(low[1]))
        np.testing.assert_array_equal(low[2], np.diag([3.0, 1.0, 2.0]))

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_whitening_at_another_beta_is_bit_identical(self, family):
        # W'Phi'Phi W is the same at every beta: the folded data are it, bit for
        # bit, and each beta's whitened data are them scaled by its own roots.
        rng = np.random.default_rng(26)
        phi, y, _, _, grid = make_instance(rng, family, 60, 7)
        stats = stablekern.estimator._fold(phi, y, grid, family)
        for beta in ((0.05, 0.3, 2.0) if family == SS1 else (None,)):
            root = sqrt_factor(KernelSpec(family=family, c=1.0, beta=beta), grid)
            w, s = root.unit_triangle(), root.inv_diag
            np.testing.assert_array_equal(stats.gram, w.T @ (phi.T @ phi) @ w)
            np.testing.assert_array_equal(stats.cross, (phi.T @ y) @ w)
            white = stablekern.estimator._whiten(stats, family, beta, grid)
            np.testing.assert_array_equal(white.gram, stats.gram * s[:, None] * s)
            np.testing.assert_array_equal(white.cross, stats.cross * s)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_whitened_gram_is_the_congruence_by_the_square_root(self, family):
        rng = np.random.default_rng(27)
        phi, y, _, spec, grid = make_instance(rng, family, 50, 8)
        stats = stablekern.estimator._fold(phi, y, grid, family)
        white = stablekern.estimator._whiten(stats, family, spec.beta, grid)
        root = sqrt_factor(KernelSpec(family=family, c=1.0, beta=spec.beta), grid).to_dense()
        np.testing.assert_allclose(white.gram, root.T @ (phi.T @ phi) @ root, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(white.cross, root.T @ (phi.T @ y), rtol=1e-11, atol=1e-13 * np.max(np.abs(white.cross)))

    def count_whitenings(self, monkeypatch):
        calls = []
        whiten = stablekern.estimator._whiten

        def counting(stats, family, beta, grid):
            calls.append(beta)
            return whiten(stats, family, beta, grid)

        monkeypatch.setattr(stablekern.estimator, "_whiten", counting)
        return calls

    def test_grid_scan_whitens_once_per_beta(self, monkeypatch):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        calls = self.count_whitenings(monkeypatch)
        betas = (0.5 * beta, beta, 2 * beta)
        search = SearchConfig(family=SS1, c_grid=(c, 2 * c, 4 * c), beta_grid=betas,
                              sigma2_grid=(sigma2, 4 * sigma2), refine=False)
        est = fit(problem, grid, search)
        assert calls == list(betas)
        # Scaling by 4 is exact, so 4c / 4sigma2 == c / sigma2: five distinct lam at each beta.
        assert est.diagnostics["n_evaluations"] == 3 * 5

    def test_grid_scan_factors_once_per_distinct_lam(self, monkeypatch):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        calls = []
        bordered = stablekern.estimator._bordered

        def counting(stats, white, lam):
            calls.append(lam.tolist())
            return bordered(stats, white, lam)

        monkeypatch.setattr(stablekern.estimator, "_bordered", counting)
        betas = (0.5 * beta, beta, 2 * beta)
        fixed = EstimationProblem(u=problem.u, y=problem.y, order=8, sigma2=sigma2)
        cases = [
            # c x sigma2 has six pairs but four quotients: 2c / 2sigma2 == c / sigma2 and 4c / 2sigma2 == 2c / sigma2.
            (problem, (c, 2 * c, 4 * c), (sigma2, 2 * sigma2),
             [c / (2 * sigma2), c / sigma2, 2 * c / sigma2, 4 * c / sigma2]),
            # sigma2 fixed: a duplicate c gives one lam, three distinct c / sigma2 from four grid values.
            (fixed, (c, 2 * c, 2 * c, 4 * c), (sigma2,), [c / sigma2, 2 * c / sigma2, 4 * c / sigma2]),
        ]
        for prob, c_grid, sigma2_axis, lams in cases:
            calls.clear()
            search = SearchConfig(family=SS1, c_grid=c_grid, beta_grid=betas, sigma2_grid=(sigma2, 2 * sigma2),
                                  refine=False)
            est = fit(prob, grid, search)
            assert lams == sorted(set(x / s for x in c_grid for s in sigma2_axis))
            # One batch of one system per distinct lam at each beta, then the mean's single system.
            assert calls[:3] == [lams] * 3
            assert len(calls) == 4 and len(calls[3]) == 1
            trace = est.diagnostics["trace"]
            assert [e["beta"] for e in trace] == [b for b in betas for _ in lams]
            for entry, lam in zip(trace, lams * 3):
                assert entry["c"] / entry["sigma2"] == pytest.approx(lam, rel=1e-15)
                assert prob.sigma2 is None or entry["sigma2"] == sigma2

    def test_fit_folds_once_in_all(self, monkeypatch):
        # W'Phi'Phi W is formed once per fit, refinement included: one unit triangle.
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        calls = []
        unit_triangle = stablekern.estimator._unit_triangle

        def counting(family, times):
            calls.append(family)
            return unit_triangle(family, times)

        monkeypatch.setattr(stablekern.estimator, "_unit_triangle", counting)
        for family in (WIENER, SS1):
            calls.clear()
            search = SearchConfig(family=family, c_grid=(c, 2 * c), beta_grid=(beta, 2 * beta),
                                  sigma2_grid=(sigma2, 4 * sigma2), refine=True)
            est = fit(problem, grid, search)
            assert est.diagnostics["n_evaluations"] > 4
            assert calls == [family]

    @pytest.mark.filterwarnings("error")
    def test_wiener_zero_start_fails_every_candidate_silently(self):
        # The unit triangle's W[0, 0] = 0/0 is folded in with no warning; the square root then fails.
        rng = np.random.default_rng(5)
        u, y, grid = rng.standard_normal(30), rng.standard_normal(30), make_grid([0.0, 1.0, 2.0])
        with pytest.raises(errors.SingularGram):
            log_marginal_likelihood(toeplitz_regressor(u, 3), y, 1.0, KernelSpec(family=WIENER, c=1.0), grid)
        with pytest.raises(errors.SingularGram):
            fit(EstimationProblem(u=u, y=y, order=3), grid, SearchConfig(family=WIENER, c_grid=(1.0,),
                                                                      sigma2_grid=(1.0,)))

    def test_failed_beta_fails_each_of_its_candidates(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(200)
        y = np.convolve(u, np.exp(-0.3 * np.arange(40)))[:200] + 0.1 * rng.standard_normal(200)
        grid = uniform_grid(40, 1.0, 1.0)
        # beta * t_n = 2000: exp(-beta * t_n) underflows, so the c = 1 square root does not exist.
        search = SearchConfig(family=SS1, c_grid=(0.5, 1.0, 2.0), beta_grid=(0.1, 50.0, 0.2),
                              sigma2_grid=(0.01, 0.1), refine=False)
        est = fit(EstimationProblem(u=u, y=y, order=40), grid, search)
        lams = sorted(c / s for c in (0.5, 1.0, 2.0) for s in (0.01, 0.1))
        assert len(set(lams)) == 6
        assert est.diagnostics["n_failed"] == 6  # each lam = c / sigma2 at beta = 50
        trace = est.diagnostics["trace"]
        assert [e["beta"] for e in trace] == [0.1] * 6 + [0.2] * 6
        for entry, lam in zip(trace, lams * 2):
            assert entry["c"] / entry["sigma2"] == pytest.approx(lam, rel=1e-15)


def dense_profiled_log_ml(phi, y, lam, spec, grid):
    """The likelihood at lam = c / sigma2 and the sigma2 that maximizes it, q / N, from dense N x N algebra."""
    unit = gram(KernelSpec(family=spec.family, c=1.0, beta=spec.beta), grid).values
    sigma2 = y @ (oracle.dense_inverse(lam * phi @ unit @ phi.T + np.eye(y.shape[0])) @ y) / y.shape[0]
    moved = KernelSpec(family=spec.family, c=lam * sigma2, beta=spec.beta)
    return dense_log_marginal_likelihood(phi, y, sigma2, moved, grid)


class TestLikelihoodGradient:
    """The evaluator's gradient in (ln lam, ln beta), against differences of the dense N x N likelihood."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("fixed_sigma2", [False, True])
    def test_matches_dense_central_differences(self, family, fixed_sigma2):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n_data = int(rng.integers(8, 40))
            phi, y, sigma2, spec, grid = make_instance(rng, family, n_data, int(rng.integers(1, 9)))
            stats = stablekern.estimator._fold(phi, y, grid, family)
            white = stablekern.estimator._whiten(stats, family, spec.beta, grid)
            (result,) = stablekern.estimator._log_mls(stats, white, np.array([spec.c / sigma2]),
                                                      sigma2 if fixed_sigma2 else None, gradient=True)

            def dense(theta):
                lam, *beta = np.exp(theta).tolist()
                moved = KernelSpec(family=family, c=lam * sigma2, beta=beta[0] if beta else None)
                if fixed_sigma2:
                    return dense_log_marginal_likelihood(phi, y, sigma2, moved, grid)
                return dense_profiled_log_ml(phi, y, lam, moved, grid)

            theta = np.log([spec.c / sigma2, spec.beta] if family == SS1 else [spec.c / sigma2])
            assert len(result[3]) == theta.size
            h = 1e-3
            for slope, step in zip(result[3], h * np.eye(theta.size)):
                # Fourth-order central difference: its truncation error is O(h^4).
                diff = (8.0 * (dense(theta + step) - dense(theta - step))
                        - (dense(theta + 2.0 * step) - dense(theta - 2.0 * step))) / (12.0 * h)
                assert slope == pytest.approx(diff, rel=1e-8, abs=1e-8)


class TestTunerLog:
    """The tuner's DEBUG lines on the stablekern logger; off by default."""

    def test_debug_lines(self, caplog):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        for maxiter, outcome in ((15, "converged after 9 iterations"),
                                 (3, "stopped at the iteration cap after 3 iterations")):
            search = SearchConfig(family=SS1, c_grid=(c,), beta_grid=(beta, 200.0), sigma2_grid=(sigma2,),
                                  refine_maxiter=maxiter)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="stablekern"):
                fit(problem, grid, search)
            lines = [r.getMessage() for r in caplog.records if r.name == "stablekern.estimator"]
            assert lines[:2] == [f"grid beta={beta!r}: 0 of 1 candidates failed",
                                 "grid beta=200.0: 1 of 1 candidates failed"]
            assert len(lines) == 4
            head, _, gradient = lines[2].partition(", max |gradient| ")
            assert head == f"refinement: {outcome}"
            # The converged run stops where the quadratic model promises a gain of at most 1e-10.
            assert (float(gradient) < 1e-6) is (maxiter == 15)
            assert lines[3].startswith("fit N=90 n=8: fold ")

    @pytest.mark.parametrize("refine", [False, True])
    def test_fit_logs_its_stage_times(self, caplog, refine):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        search = SearchConfig(family=SS1, c_grid=(c, 2 * c), beta_grid=(beta,), sigma2_grid=(sigma2,),
                              refine=refine)
        fit(problem, grid, search)
        assert [r for r in caplog.records if r.name == "stablekern.estimator"] == []  # off by default
        with caplog.at_level(logging.DEBUG, logger="stablekern"):
            start = time.perf_counter()
            fit(problem, grid, search)
            wall = 1e3 * (time.perf_counter() - start)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit ")]
        found = re.fullmatch(r"fit N=90 n=8: fold (\S+) ms, grid scan (\S+) ms, refinement (\S+) ms, mean (\S+) ms",
                             line)
        assert found, line
        stages = [float(v) for v in found.groups()]
        assert min(stages) >= 0.0 and sum(stages) <= wall + 0.01

    def test_silent_by_default(self, capsys):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        fit(problem, grid, SearchConfig(family=SS1, c_grid=(c,), beta_grid=(beta,), sigma2_grid=(sigma2,),
                                        refine_maxiter=15))
        assert capsys.readouterr() == ("", "")


class TestRefinementGuards:
    """Refinement stops, or skips an update, where a value, gradient or update is not finite; no numpy warning."""

    @staticmethod
    def refined_and_grid_only(problem, grid, search, caplog):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="stablekern"):
            est = fit(problem, grid, search)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refinement: ")]
        return est, fit(problem, grid, SearchConfig(**{**vars(search), "refine": False})), line

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_start_outside_the_exp_range_keeps_the_grid_optimum(self, family, caplog):
        # The best grid lam = 1 / 1e-305 has |ln lam| > 700: the start has no gradient.
        rng = np.random.default_rng(0)
        u, y = 1e-5 * rng.standard_normal(20), 1e-5 * rng.standard_normal(20)
        search = SearchConfig(family, (1.0,), (0.5,) if family == SS1 else None)
        problem = EstimationProblem(u=u, y=y, order=2, sigma2=1e-305)
        est, grid_only, line = self.refined_and_grid_only(problem, uniform_grid(2, 1.0, 1.0), search, caplog)
        assert line.startswith("refinement: stopped where a value, gradient or promised gain is not finite "
                               "after 0 iterations")
        assert est.log_ml == grid_only.log_ml == pytest.approx(-4.8556e295, rel=1e-4)
        np.testing.assert_array_equal(est.coefficients, grid_only.coefficients)
        assert est.diagnostics["trace"] == grid_only.diagnostics["trace"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_overflowing_promised_gain_stops_unconverged(self, family, caplog):
        rng = np.random.default_rng(0)
        u, y = rng.standard_normal(20), 1e150 * rng.standard_normal(20)
        search = SearchConfig(family, (1.0,), (1.0,) if family == SS1 else None)
        problem = EstimationProblem(u=u, y=y, order=2, sigma2=1.0)
        est, grid_only, line = self.refined_and_grid_only(problem, uniform_grid(2, 1.0, 1.0), search, caplog)
        assert line.startswith("refinement: stopped where a value, gradient or promised gain is not finite "
                               "after 0 iterations")
        assert est.log_ml == grid_only.log_ml
        np.testing.assert_array_equal(est.coefficients, grid_only.coefficients)

    @pytest.mark.filterwarnings("error")
    def test_update_that_is_not_finite_is_skipped(self, caplog):
        u = np.array([5.534954039741073e125, -9.390311214896414e125, -2.1790570282463746e125,
                      1.888101176575052e125, 6.5436304626193124e125])
        y = np.array([3.9744599975051234e-63, -2.195164070236884e-63, 9.807737015906604e-63,
                      -4.190904069518385e-63, -6.084682938882271e-63])
        search = SearchConfig(SS1, c_grid=(5.366265404241184e-26, 1.00227001318658e-10),
                              beta_grid=(36.60611934230142, 410.8410990753663),
                              sigma2_grid=(7.707812877476542e49, 5.72254608020666e123), refine_maxiter=20)
        est, grid_only, _ = self.refined_and_grid_only(EstimationProblem(u=u, y=y, order=2),
                                                       make_grid([0.0, 16.456516904743648]), search, caplog)
        assert est.log_ml >= grid_only.log_ml
        assert np.all(np.isfinite(est.coefficients))

    def test_line_search_floor_stops_converged(self):
        # A gradient of the wrong sign promises a gain along a direction that
        # only raises the value: the step halves down to _XTOL, then stops.
        calls = []

        def func(x):
            calls.append(x)
            return float(x @ x), -2.0 * x

        nit, why, grad = stablekern.estimator._bfgs(func, np.array([1.0, -0.5]), 50)
        assert (nit, why) == (0, "converged")
        np.testing.assert_array_equal(grad, [-2.0, 1.0])
        # The start, then trial steps halving from a largest move of 1 down to the last one above 1e-9.
        moves = [np.abs(x - calls[0]).max() for x in calls[1:]]
        assert moves[0] == 1.0 and 1e-9 < moves[-1] <= 2e-9
        assert moves == [2.0 ** -k for k in range(len(moves))]


class TestRidgeStop:
    """Refinement along a ridge stops once 20 iterations gain less than 1e-7, not at the iteration cap."""

    # fit(...).log_ml of each seed, recorded when refinement ran to its cap of
    # 200 iterations (about 290 evaluations).
    RECORDED_AT_CAP = {4: -38.383291863479904, 8: -49.635018733600205,
                       18: -47.34970876549513, 23: -46.43274103066329}

    @pytest.mark.parametrize("seed", sorted(RECORDED_AT_CAP))
    def test_stops_well_before_the_cap(self, seed, caplog):
        rng = np.random.default_rng(seed)
        u, y = rng.standard_normal(32), rng.standard_normal(32)
        search = SearchConfig(family=SS1, c_grid=(0.1, 1.0, 10.0), beta_grid=(0.1, 1.0), sigma2_grid=(0.1, 1.0))
        with caplog.at_level(logging.DEBUG, logger="stablekern"):
            est = fit(EstimationProblem(u=u, y=y, order=2), uniform_grid(2, 1.0, 1.0), search)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("refinement: ")]
        found = re.match(r"refinement: stopped on a ridge \(the last 20 iterations gained less than 1e-07\) "
                         r"after (\d+) iterations", line)
        assert found, line
        assert int(found.group(1)) <= 0.75 * search.refine_maxiter
        assert est.diagnostics["n_evaluations"] < 200
        assert est.log_ml == pytest.approx(self.RECORDED_AT_CAP[seed], abs=1e-6)


class TestOneDomain:
    """posterior_mean and log_marginal_likelihood share one whitened system, so one domain.

    The sweep crosses the SS-1 bound beta*t_n ~ 709 below which the
    prior's inverse and precision factor exist: beta 17.60..17.79 on
    t = 1..40, c from 1e-3 to 1e3, sigma2 0.01 and 0.1.
    """

    @staticmethod
    def problem():
        rng = np.random.default_rng(3)
        u = rng.standard_normal(200)
        y = np.convolve(u, np.exp(-0.3 * np.arange(40)))[:200] + 0.1 * rng.standard_normal(200)
        return u, y, uniform_grid(40, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_mover_sweep(self):
        u, y, grid = self.problem()
        phi = toeplitz_regressor(u, 40)
        t = grid.times
        failed = []
        for beta in np.round(np.arange(17.60, 17.795, 0.01), 2).tolist():
            # P from the clock directly: gram refuses c*exp(-beta*t_n) <= 1.1e-308.
            unit = np.exp(-beta * np.maximum.outer(t, t))
            for c in (1e-3, 0.1, 0.5, 2.0, 10.0, 1e3):
                for sigma2 in (0.01, 0.1):
                    spec = KernelSpec(family=SS1, c=c, beta=beta)
                    outcomes = []
                    for function in (log_marginal_likelihood, posterior_mean):
                        try:
                            outcomes.append(function(phi, y, sigma2, spec, grid))
                        except errors.StableKernError as exc:
                            outcomes.append(type(exc))
                    value, h = outcomes
                    if isinstance(value, type) or isinstance(h, type):
                        assert value is h, (beta, c, sigma2, value, h)
                        failed.append((beta, c, sigma2))
                        continue
                    assert math.isfinite(value) and np.all(np.isfinite(h))
                    p = c * unit
                    h_ref = p @ phi.T @ np.linalg.solve(phi @ p @ phi.T + sigma2 * np.eye(200), y)
                    assert np.max(np.abs(h - h_ref)) <= 1e-8 * np.max(np.abs(h)), (beta, c, sigma2)
        assert failed == []

    @pytest.mark.filterwarnings("error")
    def test_failures_agree(self):
        # Where the system fails, both functions fail alike: past the square
        # root's range, where c / sigma2 overflows, and where the data make
        # y'y / sigma2 and the mean itself (5e308) leave the float range.
        u, y, grid = self.problem()
        phi = toeplitz_regressor(u, 40)
        cases = [(phi, y, grid, KernelSpec(family=SS1, c=1.0, beta=50.0), 0.1, errors.SingularGram),
                 (phi, y, grid, KernelSpec(family=WIENER, c=1e300), 1e-10, errors.NotPositiveDefinite),
                 (phi, y, grid, KernelSpec(family=SS1, c=1.0, beta=0.5), 1e-310, errors.NotPositiveDefinite),
                 (np.array([[1e-159]]), np.array([1e150]), make_grid([1e308]), KernelSpec(family=WIENER, c=1.0),
                  1e-10, errors.InvalidParameter)]
        for phi, y, grid, spec, sigma2, error in cases:
            for function in (log_marginal_likelihood, posterior_mean):
                with pytest.raises(error):
                    function(phi, y, sigma2, spec, grid)

    @pytest.mark.filterwarnings("error")
    def test_one_candidate_fit_below_the_inverse_range(self):
        # c*exp(-beta*t_n) = 1e-3 * exp(-708) ~ 2.6e-311: no precision factor, but a square root.
        u, y, grid = self.problem()
        search = SearchConfig(family=SS1, c_grid=(1e-3,), beta_grid=(17.7,), sigma2_grid=(0.1,), refine=False)
        est = fit(EstimationProblem(u=u, y=y, order=40), grid, search)
        assert est.diagnostics["n_failed"] == 0
        assert np.all(np.isfinite(est.coefficients))
        phi = toeplitz_regressor(u, 40)
        # The mean is taken at the grid's lam = 1e-3 / 0.1, which the grid's own (c, sigma2) reproduce.
        assert est.spec.beta == 17.7
        grid_spec = KernelSpec(family=SS1, c=1e-3, beta=17.7)
        h = posterior_mean(phi, y, 0.1, grid_spec, grid)
        # fit folds from lag products, posterior_mean from Phi: both are within
        # rounding of the exact mean (the coefficients span 4e-8 to 1e-300), and
        # the two folds move it by a few ulps only.
        _, exact = mp_regression(phi, y, 0.1, grid_spec, grid, 60)
        exact = np.array([float(v) for v in exact])
        for got in (est.coefficients, h):
            np.testing.assert_allclose(got, exact, rtol=2e-13, atol=0)
        assert np.max(np.abs(est.coefficients - h) / np.spacing(np.abs(h))) <= 8


def fir_tune_problem(family, seed, fixed_sigma2=False):
    """A problem shaped like the fir-tune benchmark: SS-1 truth, N = 1000, order 50, its 5 x 5 x 5 grid.

    sigma2 is free, or fixed at the variance of the noise drawn.
    """
    rng = np.random.default_rng(seed)
    grid = uniform_grid(50, 1.0, 1.0)
    h0 = inverse_cdf_paths(KernelSpec(family=SS1, c=2.0, beta=0.3), grid, seed, 1).paths[0]
    u = rng.standard_normal(1000)
    clean = toeplitz_regressor(u, 50) @ h0
    sigma2 = float(np.var(clean) / 10.0)
    y = clean + math.sqrt(sigma2) * rng.standard_normal(1000)
    search = SearchConfig(family=family, c_grid=np.geomspace(0.1, 10.0, 5),
                          beta_grid=np.geomspace(0.05, 1.0, 5) if family == SS1 else None,
                          sigma2_grid=np.geomspace(1e-3, 10.0, 5))
    return EstimationProblem(u=u, y=y, order=50, sigma2=sigma2 if fixed_sigma2 else None), grid, search


class TestRefinedFits:
    """Refined fits on committed sets of problems reach at least the optima earlier tuners found."""

    # fit(...).log_ml of each problem, recorded with the tuner that formed
    # the dense prior inverse and a Cholesky factor per candidate.
    RECORDED = {
        (WIENER, False, 0): -172.58304044153329, (WIENER, False, 1): -65.5061066552631,
        (WIENER, False, 2): -107.01728783762364, (WIENER, True, 0): -173.32579391763016,
        (WIENER, True, 1): -66.37742886669201, (WIENER, True, 2): -107.77002748299705,
        (SS1, False, 0): -169.42409530607532, (SS1, False, 1): -62.14981080790248,
        (SS1, False, 2): -101.974632292383, (SS1, True, 0): -170.14112141006007,
        (SS1, True, 1): -63.027988221169, (SS1, True, 2): -102.72186170192602,
    }

    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("fixed_sigma2", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_optimum_no_lower_than_recorded(self, family, fixed_sigma2, seed):
        problem, grid, search = refined_problem(family, fixed_sigma2, seed)
        recorded = self.RECORDED[(family, fixed_sigma2, seed)]
        assert fit(problem, grid, search).log_ml >= recorded - 1e-9 * abs(recorded)

    # fit(...).log_ml of each fir-tune-shaped problem, recorded with the
    # tuner whose simplex moved c, beta and sigma2 as three coordinates.
    RECORDED_THREE_COORDINATES = {
        (WIENER, 0): -1055.1068060470036, (WIENER, 1): -674.4918414358217, (WIENER, 2): -950.678610433371,
        (SS1, 0): -989.5431171967351, (SS1, 1): -586.8431894643609, (SS1, 2): -874.5431396543725,
    }

    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_profiled_optimum_no_lower_than_three_coordinates(self, family, seed):
        problem, grid, search = fir_tune_problem(family, seed)
        recorded = self.RECORDED_THREE_COORDINATES[(family, seed)]
        assert fit(problem, grid, search).log_ml >= recorded - 1e-9 * abs(recorded)

    # fit(...).log_ml of each fir-tune-shaped problem with sigma2 fixed,
    # recorded with the tuner whose fixed-sigma2 simplex moved (log c, log beta).
    RECORDED_FIXED_SIGMA2 = {
        (WIENER, 0): -1055.3968382508147, (WIENER, 1): -675.3754655138501, (WIENER, 2): -951.0655313310488,
        (SS1, 0): -990.1318179872978, (SS1, 1): -587.5820135379372, (SS1, 2): -874.8264315995391,
    }

    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_sigma2_optimum_no_lower_than_c_coordinates(self, family, seed):
        problem, grid, search = fir_tune_problem(family, seed, fixed_sigma2=True)
        recorded = self.RECORDED_FIXED_SIGMA2[(family, seed)]
        assert fit(problem, grid, search).log_ml >= recorded - 1e-9 * abs(recorded)

    # fit(...).log_ml and n_evaluations of every problem above, recorded with
    # the tuner whose refinement was a Nelder-Mead simplex over (log lam,
    # log beta), xatol 1e-6 and fatol 1e-9: "refined" is refined_problem,
    # "fir" fir_tune_problem.  No candidate failed.
    RECORDED_SIMPLEX = {
        ("refined", WIENER, False, 0): (-172.5830404415325, 40),
        ("refined", WIENER, False, 1): (-65.50610665526219, 45),
        ("refined", WIENER, False, 2): (-107.01728783762366, 43),
        ("refined", WIENER, True, 0): (-173.32579391762982, 52),
        ("refined", WIENER, True, 1): (-66.37742886669187, 48),
        ("refined", WIENER, True, 2): (-107.77002748299641, 50),
        ("refined", SS1, False, 0): (-169.42409530607512, 115),
        ("refined", SS1, False, 1): (-62.14981080790261, 100),
        ("refined", SS1, False, 2): (-101.97463229238255, 110),
        ("refined", SS1, True, 0): (-170.1411214100603, 112),
        ("refined", SS1, True, 1): (-63.027988221168656, 111),
        ("refined", SS1, True, 2): (-102.72186170192573, 109),
        ("fir", WIENER, False, 0): (-1055.106806047004, 56),
        ("fir", WIENER, False, 1): (-674.4918414358217, 50),
        ("fir", WIENER, False, 2): (-950.6786104333694, 54),
        ("fir", SS1, False, 0): (-989.5431171967334, 168),
        ("fir", SS1, False, 1): (-586.843189464365, 158),
        ("fir", SS1, False, 2): (-874.543139654374, 168),
        ("fir", WIENER, True, 0): (-1055.396838250817, 49),
        ("fir", WIENER, True, 1): (-675.3754655138489, 53),
        ("fir", WIENER, True, 2): (-951.0655313310485, 51),
        ("fir", SS1, True, 0): (-990.1318179872975, 129),
        ("fir", SS1, True, 1): (-587.5820135379338, 127),
        ("fir", SS1, True, 2): (-874.8264315995393, 120),
    }

    @staticmethod
    def simplex_problem(kind, family, fixed_sigma2, seed):
        if kind == "refined":
            return refined_problem(family, fixed_sigma2, seed)
        return fir_tune_problem(family, seed, fixed_sigma2=fixed_sigma2)

    @pytest.mark.parametrize("key", sorted(RECORDED_SIMPLEX, key=repr), ids=repr)
    def test_optimum_no_lower_than_simplex(self, key):
        # Within the simplex's own fatol of its optimum, or above it.
        recorded, _ = self.RECORDED_SIMPLEX[key]
        assert fit(*self.simplex_problem(*key)).log_ml >= recorded - 1e-9

    def test_fewer_evaluations_than_simplex(self):
        for key, (_, evaluations) in self.RECORDED_SIMPLEX.items():
            est = fit(*self.simplex_problem(*key))
            assert est.diagnostics["n_evaluations"] + est.diagnostics["n_failed"] < evaluations, key


class TestNonNumericData:
    """Data that are not real numbers raise InvalidParameter, not numpy's ValueError."""

    SPEC = KernelSpec(family=WIENER, c=1.0)

    def test_string_input_to_problem(self):
        with pytest.raises(errors.InvalidParameter, match="u must be real numbers"):
            EstimationProblem(u=["a", "b"], y=[1.0, 2.0], order=1)

    def test_complex_output_to_problem(self):
        with pytest.raises(errors.InvalidParameter, match="y must be real numbers"):
            EstimationProblem(u=[1.0, 2.0], y=[1.0, 2j], order=1)

    def test_string_input_to_toeplitz_regressor(self):
        with pytest.raises(errors.InvalidParameter, match="u must be real numbers"):
            toeplitz_regressor(["a"], 1)

    def test_string_regressor_to_log_marginal_likelihood(self):
        with pytest.raises(errors.InvalidParameter, match="regressor must be real numbers"):
            log_marginal_likelihood([["a"]], [1.0], 1.0, self.SPEC, make_grid([1.0]))

    def test_string_output_to_posterior_mean(self):
        with pytest.raises(errors.InvalidParameter, match="y must be real numbers"):
            posterior_mean([[1.0]], ["a"], 1.0, self.SPEC, make_grid([1.0]))
