"""Acceptance suite: ten pass/fail criteria covering the whole library.

Run with ``pytest tests/test_acceptance.py -s`` to see one
``ACCEPTANCE <label>: PASS`` or ``FAIL`` line per criterion.
"""

import math
import time
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np
import pytest

from stablekern import (
    SS1,
    WIENER,
    EstimationProblem,
    KernelSpec,
    SearchConfig,
    apply_precision,
    band_extend,
    band_project,
    closed_form_inverse,
    completion_entropy_audit,
    fit,
    gaussian_entropy,
    gram,
    increment_constrained_entropy_test,
    log_det,
    log_marginal_likelihood,
    make_grid,
    oracle,
    posterior_mean,
    precision_factor,
    sample_ss1,
    sample_wiener,
    sqrt_factor,
    stable_time_transform,
    toeplitz_regressor,
    uniform_grid,
)

from helpers import inf_norm

LN2 = math.log(2.0)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def random_instance(rng, family, n_low, n_high):
    n = int(rng.integers(n_low, n_high + 1))
    times = np.cumsum(rng.uniform(0.1, 2.0, n))
    c = float(rng.uniform(0.1, 10.0))
    beta = None if family == WIENER else float(rng.uniform(0.05, 2.0))
    return KernelSpec(family=family, c=c, beta=beta), make_grid(times)


@pytest.fixture(scope="module")
def instances():
    """200 randomized instances (100 per family), shared by criteria 1-3."""
    rng = np.random.default_rng(20260814)
    out = []
    for family in (WIENER, SS1):
        for _ in range(100):
            out.append(random_instance(rng, family, 3, 50))
    return out


def test_criterion_01_inverse_identity(instances):
    with criterion("1 closed-form inverse"):
        start = time.perf_counter()
        for spec, grid in instances:
            p = gram(spec, grid).values
            tri = closed_form_inverse(spec, grid)
            residual = inf_norm(tri.to_dense() @ p - np.eye(grid.n))
            assert residual <= 1e-8 * grid.n
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_02_log_determinant(instances):
    with criterion("2 closed-form log-determinant"):
        for spec, grid in instances:
            ld = log_det(spec, grid)
            ld_ref = oracle.dense_logdet(gram(spec, grid).values)
            assert abs(ld - ld_ref) <= 1e-9 * max(1.0, abs(ld))


def test_criterion_03_factorizations(instances):
    with criterion("3 precision factor and square root"):
        for spec, grid in instances:
            p = gram(spec, grid).values
            tri = closed_form_inverse(spec, grid).to_dense()
            f = precision_factor(spec, grid).to_dense()
            assert inf_norm(f.T @ f - tri) <= 1e-10 * inf_norm(tri)
            u = sqrt_factor(spec, grid).to_dense()
            assert inf_norm(u @ u.T - p) <= 1e-12 * inf_norm(p)


def test_criterion_04_band_completion():
    with criterion("4 maximum-entropy band completion"):
        rng = np.random.default_rng(41)
        for family in (WIENER, SS1):
            for _ in range(50):
                spec, grid = random_instance(rng, family, 3, 30)
                p = gram(spec, grid).values
                ext = band_extend(band_project(p))
                assert np.max(np.abs(ext - p) / np.abs(p)) <= 1e-12
                inv = oracle.dense_inverse(ext)
                off_band = np.triu(inv, k=2)
                assert np.max(np.abs(off_band)) <= 1e-8 * np.max(np.abs(inv))


def test_criterion_05_completion_entropy_dominance():
    with criterion("5 completion entropy dominance"):
        start = time.perf_counter()
        rng = np.random.default_rng(52)
        for family in (WIENER, SS1):
            spec, grid = random_instance(rng, family, 6, 6)
            report = completion_entropy_audit(spec, grid, seed=5, trials=1000)
            margins = report.reference_entropy - np.asarray(report.candidate_entropies)
            assert np.all(margins >= -1e-9)
            assert np.mean(margins >= 1e-6) >= 0.95
        assert time.perf_counter() - start < 30.0


def test_criterion_06_increment_entropy_dominance():
    with criterion("6 increment-constrained entropy dominance"):
        rng = np.random.default_rng(63)
        for family in (WIENER, SS1):
            spec, grid = random_instance(rng, family, 4, 4)
            report = increment_constrained_entropy_test(spec, grid, seed=6, trials=1000)
            entropies = np.asarray(report.candidate_entropies)
            assert np.all(entropies <= report.reference_entropy + 1e-9)
            assert abs(entropies[0] - report.reference_entropy) <= 1e-9


def test_criterion_07_sampler_covariances():
    with criterion("7 sampler and time-transform covariances"):
        start = time.perf_counter()
        p_paths = 200_000
        grid = make_grid([0.4, 1.0, 1.7, 2.5, 3.2])
        c, beta = 1.8, 0.6

        def check(paths, target):
            emp = paths.T @ paths / p_paths
            d = np.diag(target)
            se = np.sqrt((np.outer(d, d) + target**2) / p_paths)
            assert np.all(np.abs(emp - target) <= 5.0 * se)

        wiener_target = gram(KernelSpec(family=WIENER, c=c), grid).values
        check(sample_wiener(grid, c=c, seed=71, p=p_paths).paths, wiener_target)

        ss1_target = gram(KernelSpec(family=SS1, c=c, beta=beta), grid).values
        check(sample_ss1(grid, c=c, beta=beta, seed=72, p=p_paths).paths, ss1_target)

        tf = stable_time_transform(grid, beta=beta)
        on_tau = sample_wiener(tf.tau, c=c, seed=73, p=p_paths)
        check(tf.reverse_paths(on_tau).paths, ss1_target)
        assert time.perf_counter() - start < 60.0


def test_criterion_08_structured_performance():
    with criterion("8 O(n) structured apply"):
        rng = np.random.default_rng(85)
        spec = KernelSpec(family=WIENER, c=1.0)

        def setup(n):
            factor = precision_factor(spec, uniform_grid(n, 1e-3, 1e-3))
            return factor, rng.standard_normal(n)

        def block_time(factor, x, block=1, samples=5):
            times = []
            for _ in range(samples):
                t0 = perf_counter()
                for _ in range(block):
                    apply_precision(factor, x)
                times.append((perf_counter() - t0) / block)
            return median(times)

        # The doubling ladder starts at n = 10^6 so every size sits in one
        # memory regime. Below that the working set (a few arrays of n
        # doubles, 19 MB at n = 400k) can still fit the cache a small VM
        # gets: on a 2-vCPU VM apply_precision cost 7-10 ns per element up
        # to n = 200k-400k and 17-23 ns beyond, so t(800k)/t(400k) read
        # 3.0-4.1 for an O(n) apply. From 10^6 up every size is
        # memory-bound, and an O(n^2) apply would still read about 4.
        sizes = (1_000_000, 2_000_000, 4_000_000)
        cases = {n: setup(n) for n in sizes}
        single = min(block_time(*cases[1_000_000]) for _ in range(3))
        assert single < 0.5

        # Round-robin over the sizes, so machine drift hits each one alike,
        # and judge each size by its fastest round, since load on a shared
        # host only adds time.  One untimed round first: the gate above
        # leaves the n = 10^6 arrays in a large last-level cache, so a round
        # timed straight after it reads that size fast.
        for n in sizes:
            apply_precision(*cases[n])
        samples = {n: [] for n in sizes}
        for _ in range(40):
            for n in sizes:
                samples[n].append(block_time(*cases[n], samples=1))
        timings = {n: min(samples[n]) for n in sizes}
        for n in sizes[:-1]:
            ratio = timings[2 * n] / timings[n]
            assert 1.5 <= ratio <= 3.0, f"doubling ratio at n={n}: {ratio:.2f}"


def test_criterion_09_estimator_coherence():
    with criterion("9 estimator coherence"):
        rng = np.random.default_rng(96)
        for family in (WIENER, SS1):
            for _ in range(25):
                n_data = int(rng.integers(20, 201))
                order = int(rng.integers(1, min(n_data, 50) + 1))
                spec, grid = random_instance(rng, family, order, order)
                u = rng.standard_normal(n_data)
                phi = toeplitz_regressor(u, order)
                h0 = rng.standard_normal(order)
                sigma2 = float(rng.uniform(0.05, 0.5))
                y = phi @ h0 + math.sqrt(sigma2) * rng.standard_normal(n_data)

                h = posterior_mean(phi, y, sigma2, spec, grid)
                p = gram(spec, grid).values
                a = phi.T @ phi / sigma2 + oracle.dense_inverse(p)
                h_ref = oracle.dense_inverse(a) @ (phi.T @ y) / sigma2
                assert np.max(np.abs(h - h_ref)) <= 1e-8 * max(1.0, np.max(np.abs(h_ref)))

                value = log_marginal_likelihood(phi, y, sigma2, spec, grid)
                cov = phi @ p @ phi.T + sigma2 * np.eye(n_data)
                quad = y @ (oracle.dense_inverse(cov) @ y)
                ref = -0.5 * (n_data * math.log(2.0 * math.pi) + oracle.dense_logdet(cov) + quad)
                assert abs(value - ref) <= 1e-8 * max(1.0, abs(ref))

        # Tuning never falls below the true hyperparameters when they sit
        # on the search grid (data simulated from the prior).
        for family, c, beta in ((WIENER, 2.0, None), (SS1, 2.0, 0.4)):
            order, n_data = 30, 500
            grid = uniform_grid(order, 1.0, 1.0)
            data_rng = np.random.default_rng(97)
            if family == WIENER:
                h0 = sample_wiener(grid, c=c, seed=970, p=1).paths[0]
            else:
                h0 = sample_ss1(grid, c=c, beta=beta, seed=970, p=1).paths[0]
            u = data_rng.standard_normal(n_data)
            phi = toeplitz_regressor(u, order)
            clean = phi @ h0
            sigma2 = float(np.var(clean) / 10.0)
            y = clean + math.sqrt(sigma2) * data_rng.standard_normal(n_data)
            problem = EstimationProblem(u=u, y=y, order=order)
            search = SearchConfig(
                family=family,
                c_grid=(0.25 * c, c, 4.0 * c),
                beta_grid=None if beta is None else (0.5 * beta, beta, 2.0 * beta),
                sigma2_grid=(0.25 * sigma2, sigma2, 4.0 * sigma2),
            )
            result = fit(problem, grid, search)
            truth_spec = KernelSpec(family=family, c=c, beta=beta)
            truth = log_marginal_likelihood(phi, y, sigma2, truth_spec, grid)
            assert result.log_ml >= truth - 1e-6


def test_criterion_10_worked_examples():
    with criterion("10 pinned worked examples"):
        ss1 = KernelSpec(family=SS1, c=1.0, beta=LN2)
        ss1_grid = make_grid([1.0, 2.0, 3.0])
        wiener = KernelSpec(family=WIENER, c=1.0)
        wiener_grid = make_grid([1.0, 2.0, 4.0])

        p_ss1 = gram(ss1, ss1_grid).values
        np.testing.assert_allclose(
            p_ss1,
            [[0.5, 0.25, 0.125], [0.25, 0.25, 0.125], [0.125, 0.125, 0.125]],
            rtol=1e-12,
        )
        p_wiener = gram(wiener, wiener_grid).values
        np.testing.assert_allclose(
            p_wiener, [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 4.0]], rtol=1e-12
        )

        tri = closed_form_inverse(ss1, ss1_grid)
        np.testing.assert_allclose(tri.diag, [4.0, 12.0, 16.0], rtol=1e-12)
        np.testing.assert_allclose(tri.offdiag, [-4.0, -8.0], rtol=1e-12)
        tri_w = closed_form_inverse(wiener, wiener_grid)
        np.testing.assert_allclose(tri_w.diag, [2.0, 1.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(tri_w.offdiag, [-1.0, -0.5], rtol=1e-12)

        assert log_det(ss1, ss1_grid) == pytest.approx(math.log(1.0 / 256.0), rel=1e-12)
        assert log_det(wiener, wiener_grid) == pytest.approx(LN2, rel=1e-12)

        s = precision_factor(ss1, ss1_grid)
        root8 = 2.0 * math.sqrt(2.0)
        np.testing.assert_allclose(s.diag, [2.0, root8, root8], rtol=1e-12)
        np.testing.assert_allclose(s.super, [-2.0, -root8], rtol=1e-12)
        w = precision_factor(wiener, wiener_grid)
        np.testing.assert_allclose(w.diag, [math.sqrt(2.0), 1.0, 0.5], rtol=1e-12)
        np.testing.assert_allclose(w.super, [-math.sqrt(2.0) / 2.0, -0.5], rtol=1e-12)

        u = sqrt_factor(ss1, ss1_grid).to_dense()
        inv_root8 = 1.0 / root8
        np.testing.assert_allclose(
            u,
            [[0.5, inv_root8, inv_root8], [0.0, inv_root8, inv_root8], [0.0, 0.0, inv_root8]],
            rtol=1e-12,
        )
        u_w = sqrt_factor(wiener, wiener_grid).to_dense()
        np.testing.assert_allclose(u_w @ u_w.T, p_wiener, rtol=1e-12, atol=1e-15)

        assert band_extend(band_project(p_ss1))[0, 2] == pytest.approx(0.125, rel=1e-12)
        assert band_extend(band_project(p_wiener))[0, 2] == pytest.approx(1.0, rel=1e-12)

        assert gaussian_entropy(p_ss1) == pytest.approx(1.4842, abs=1e-4)
