import math

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
    oracle,
    posterior_mean,
    sample_ss1,
    toeplitz_regressor,
    uniform_grid,
)

from helpers import inf_norm, random_grid, random_spec


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
    def test_float_range_overflow_is_a_domain_error(self):
        grid = uniform_grid(10, 1.0, 1.0)
        rng = np.random.default_rng(9)
        phi = toeplitz_regressor(rng.standard_normal(40), 10)
        y = rng.standard_normal(40)
        # exp(-100 * 10) is below the float range: the prior inverse overflows.
        with pytest.raises(errors.SingularGram):
            log_marginal_likelihood(phi, y, 0.1, KernelSpec(family=SS1, c=1.0, beta=100.0), grid)
        # Phi'Phi / sigma2 overflows for a subnormal noise variance.
        with pytest.raises(errors.NotPositiveDefinite):
            posterior_mean(phi, y, 1e-310, KernelSpec(family=WIENER, c=1.0), grid)


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
        h0 = sample_ss1(grid, c=c, beta=beta, seed=seed, p=1).paths[0]
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
        # beta * t_n = 2000 underflows exp(-beta * t_n), so that prior's
        # closed-form inverse overflows; the candidate must count as failed.
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

        underflow_only = SearchConfig(family=SS1, c_grid=(1.0,), beta_grid=(30.0, 50.0), sigma2_grid=(0.01,))
        with pytest.raises(errors.SingularGram):
            fit(problem, grid, underflow_only)


class TestSingleEvaluationPath:
    """fit folds the data once, and the tuner evaluates exactly the public functions."""

    def test_fit_builds_the_regressor_once(self, monkeypatch):
        problem, grid, c, beta, sigma2 = TestTune().make_ss1_problem(order=8, n_data=90)
        calls = []

        def counting(u, order):
            calls.append(order)
            return toeplitz_regressor(u, order)

        monkeypatch.setattr(stablekern.estimator, "toeplitz_regressor", counting)
        search = SearchConfig(family=SS1, c_grid=(c, 2 * c), beta_grid=(beta,), sigma2_grid=(sigma2,))
        fit(problem, grid, search)
        assert calls == [8]

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
            assert entry["log_ml"] == log_marginal_likelihood(phi, problem.y, entry["sigma2"], spec, grid)
        coefficients = posterior_mean(phi, problem.y, est.sigma2, est.spec, grid)
        np.testing.assert_array_equal(coefficients, est.coefficients)
