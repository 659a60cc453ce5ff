"""Cross-checks against 60-digit arithmetic.

The cancellation-prone quantities (tiny-beta increments, log-determinants
whose raw determinants underflow float64) are recomputed here with mpmath
and compared both to the frozen constants pinned elsewhere in the suite
and to the library's float64 closed forms.  So is the band completion's
fill-in, whose entries are products along the chain, the estimator's
whitened posterior system, and the SS-1 square root's column-scale slopes
in beta, which the tuner's gradient reads.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

import stablekern.maxent
from stablekern import (
    SS1,
    WIENER,
    KernelSpec,
    TridiagonalMatrix,
    band_extend,
    band_project,
    gram,
    log_det,
    log_marginal_likelihood,
    make_grid,
    posterior_mean,
    stable_increments,
    toeplitz_regressor,
    uniform_grid,
)

from stablekern.kernels import _Chain

from helpers import mp_regression, random_grid, random_spec


@pytest.fixture(autouse=True)
def sixty_digits():
    """Each test runs at 60 digits, and leaves mpmath's global precision as it found it."""
    with mpmath.workdps(60):
        yield


def mp_increments(times, beta):
    b = mpmath.mpf(beta)
    exps = [mpmath.e ** (-b * mpmath.mpf(t)) for t in times]
    return [exps[i] - exps[i + 1] for i in range(len(times) - 1)] + [exps[-1]]


def mp_log_det(times, beta, c):
    total = len(times) * mpmath.log(mpmath.mpf(c))
    for d in mp_increments(times, beta):
        total += mpmath.log(d)
    return total


class TestTinyBetaIncrements:
    def test_frozen_constant_matches_sixty_digits(self):
        ref = mp_increments([1.0, 2.0], 1e-8)[0]
        assert float(ref) == pytest.approx(9.999999850000001e-09, rel=1e-15)

    def test_library_matches_sixty_digits(self):
        delta = stable_increments(make_grid([1.0, 2.0]), beta=1e-8)
        ref = mp_increments([1.0, 2.0], 1e-8)
        assert delta[0] == pytest.approx(float(ref[0]), rel=1e-12)
        assert delta[1] == pytest.approx(float(ref[1]), rel=1e-14)

    def test_random_tiny_spacings(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            beta = 10.0 ** rng.uniform(-10, -4)
            times = np.cumsum(rng.uniform(1e-4, 1.0, 6))
            delta = stable_increments(make_grid(times), beta=beta)
            ref = mp_increments([float(t) for t in times], beta)
            for got, want in zip(delta, ref):
                assert got == pytest.approx(float(want), rel=1e-12)


class TestLogDeterminants:
    def test_frozen_tiny_beta_value(self):
        spec = KernelSpec(family=SS1, c=1.0, beta=1e-8)
        ld = log_det(spec, make_grid([1.0, 2.0]))
        ref = mp_log_det([1.0, 2.0], 1e-8, 1.0)
        assert float(ref) == pytest.approx(-18.420680778952367, rel=1e-14)
        assert ld == pytest.approx(float(ref), rel=1e-12)

    def test_frozen_underflowing_value(self):
        times = [float(t) for t in range(1, 51)]
        spec = KernelSpec(family=SS1, c=1.0, beta=2.0)
        ld = log_det(spec, uniform_grid(50, 1.0, 1.0))
        ref = mp_log_det(times, 2.0, 1.0)
        # The raw determinant here is ~1e-1111, far below float64 range.
        assert mpmath.e**ref < mpmath.mpf(10) ** -1000
        assert float(ref) == pytest.approx(-2557.125259435574, rel=1e-14)
        assert ld == pytest.approx(float(ref), rel=1e-12)


class TestIncrementsBelowTheFloatRange:
    """Once beta*t_n passes ~745 the increments underflow a double; their logs do not."""

    def test_uniform_grid_to_t_1000(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ld = log_det(KernelSpec(family=SS1, c=1.0, beta=1.0), uniform_grid(10, 100.0, 100.0))
        ref = mp_log_det([100.0 * k for k in range(1, 11)], 1.0, 1.0)
        # -(100 + 200 + ... + 1000), up to the ln(1 - exp(-100)) terms.
        assert float(ref) == -5500.0
        assert ld == pytest.approx(float(ref), rel=1e-15)

    def test_random_grids(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            beta = 10.0 ** rng.uniform(-2, 1)
            c = 10.0 ** rng.uniform(-3, 3)
            steps = rng.uniform(1e-6, 1.0, int(rng.integers(2, 15)))
            times = np.cumsum(steps) * rng.uniform(750, 1e4) / (beta * steps.sum())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ld = log_det(KernelSpec(family=SS1, c=c, beta=beta), make_grid(times))
            ref = mp_log_det([float(t) for t in times], beta, c)
            assert ld == pytest.approx(float(ref), rel=1e-13)


class TestBandCompletion:
    def test_fill_matches_sixty_digits(self):
        # M[i, j] = o_i * prod_{i < l < j} (o_l / d_l): one division and one
        # product per step, so to first order the relative error is at most
        # 2 (j - i - 1) units of roundoff.
        u = 2.0**-53
        rng = np.random.default_rng(43)
        worst = 0.0
        for trial in range(30):
            if trial % 3 < 2:
                spec = random_spec(rng, (WIENER, SS1)[trial % 3])
                band = band_project(gram(spec, random_grid(rng, 16)).values)
            else:
                diag = rng.uniform(0.1, 10.0, size=16)
                off = rng.uniform(-0.95, 0.95, size=15) * np.sqrt(diag[:-1] * diag[1:])
                band = TridiagonalMatrix(diag=diag, offdiag=off)
            m = band_extend(band)
            for i in range(band.n - 2):
                exact = mpmath.mpf(band.offdiag[i])
                for j in range(i + 2, band.n):
                    exact *= mpmath.mpf(band.offdiag[j - 1]) / mpmath.mpf(band.diag[j - 1])
                    err = float(abs((mpmath.mpf(m[i, j]) - exact) / exact))
                    assert err <= 2 * (j - i - 1) * u
                    worst = max(worst, err)
        assert worst <= 1e-15

    @pytest.mark.parametrize("diag, offdiag", [([5e-324, 1.7e308, 1.0], [1e-12, 0.5]),
                                               ([1.0, 5e-324, 1.7e308], [1e-170, 1e-12])])
    def test_subnormal_diagonal_completes(self, diag, offdiag):
        # o_i / d_i overflows at the subnormal d_i, yet o_i^2 < d_i d_{i+1}:
        # the band is completable.  The first M[0, 2] is itself subnormal.
        u = 2.0**-53
        band = TridiagonalMatrix(diag=np.array(diag), offdiag=np.array(offdiag))
        d = [mpmath.mpf(x) for x in diag]
        o = [mpmath.mpf(x) for x in offdiag]
        rho, v = stablekern.maxent._band_correlations(band)
        for i in range(2):
            exact = o[i] / mpmath.sqrt(d[i] * d[i + 1])
            assert float(abs((mpmath.mpf(rho[i]) - exact) / exact)) <= 2 * u
            assert float(abs((mpmath.mpf(v[i]) - (1 - exact**2)) / (1 - exact**2))) <= 2 * u
        m = band_extend(band)
        exact = o[0] * o[1] / d[1]
        assert float(abs(mpmath.mpf(m[0, 2]) - exact)) <= max(4 * u * float(exact), 2.0**-1075)
        assert m[2, 0] == m[0, 2]
        np.testing.assert_array_equal(np.diag(m), diag)
        np.testing.assert_array_equal(np.diag(m, 1), offdiag)


def regression_problems(count=32, seed=44):
    """The committed set: both families, non-uniform grids, order 3..15, N = order + 5..60."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 16))
        n_data = n + int(rng.integers(5, 61))
        grid = random_grid(rng, n)
        spec = random_spec(rng, (WIENER, SS1)[k % 2])
        phi = toeplitz_regressor(rng.standard_normal(n_data), n)
        sigma2 = float(10.0 ** rng.uniform(-2, 0))
        y = phi @ rng.standard_normal(n) + math.sqrt(sigma2) * rng.standard_normal(n_data)
        yield phi, y, sigma2, spec, grid


class TestWhitenedPosterior:
    def test_posterior_mean_matches_fifty_digits(self):
        residuals = []
        for phi, y, sigma2, spec, grid in regression_problems():
            h = posterior_mean(phi, y, sigma2, spec, grid)
            _, exact = mp_regression(phi, y, sigma2, spec, grid, 50)
            residuals.append(max(abs(float(e) - x) for e, x in zip(exact, h)) / np.max(np.abs(h)))
        assert max(residuals) <= 1e-13


class TestRootSlopes:
    """d ln root_j / d beta of the SS-1 square root's column scales, against 60-digit derivatives."""

    @staticmethod
    def mp_slopes(times, beta):
        # ln root_j = -beta t_j / 2 + ln(-expm1(-beta (t_{j+1} - t_j))) / 2 (c = 1), differentiated
        # in u = ln beta, so that the step scales with beta.
        ts = [mpmath.mpf(t) for t in times]

        def log_root(j):
            def f(u):
                b = mpmath.exp(u)
                rel = -mpmath.expm1(-b * (ts[j + 1] - ts[j])) if j + 1 < len(ts) else mpmath.mpf(1)
                return -b * ts[j] / 2 + mpmath.log(rel) / 2
            return f

        u = mpmath.log(mpmath.mpf(beta))
        return [mpmath.diff(log_root(j), u) / mpmath.mpf(beta) for j in range(len(ts))]

    # beta*dt from 1e-300 up, past 710 where expm1 overflows and the slope is -t_j / 2.
    CASES = {
        "steps of 1e-300": ([1e-300, 2e-300, 3.5e-300], 1.0),
        "beta of 1e-300": ([1.0, 2.5, 4.0, 9.0], 1e-300),
        "past expm1's range": ([1.0, 700.0, 1500.0, 1500.5], 1.0),
        "near expm1's limit": ([2.0, 711.0, 1420.0], 1.0),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_sixty_digits(self, case):
        times, beta = self.CASES[case]
        self.check(np.array(times), beta)

    @pytest.mark.filterwarnings("error")
    def test_random_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            grid = random_grid(rng, int(rng.integers(1, 12)))
            self.check(grid.times, float(rng.uniform(0.01, 3.0)))

    def check(self, times, beta):
        got = _Chain(KernelSpec(family=SS1, c=1.0, beta=beta), times).root_slopes()
        want = self.mp_slopes(times, beta)
        for j, (g, w) in enumerate(zip(got.tolist(), want)):
            # Each slope is -t_j / 2 plus a nonnegative term: a few units of roundoff of their sum of magnitudes.
            scale = float(mpmath.mpf(times[j]) / 2 + abs(w + mpmath.mpf(times[j]) / 2))
            assert abs(g - float(w)) <= 4e-16 * scale, (j, g, w)
