import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekern import (
    SS1,
    WIENER,
    KernelSpec,
    apply_precision,
    closed_form_inverse,
    errors,
    gram,
    increment_constrained_entropy_test,
    kernel_eval,
    log_det,
    make_grid,
    oracle,
    audit_constraints,
    precision_factor,
    sample,
    sqrt_factor,
    stable_increments,
    uniform_grid,
)
from stablekern import kernels
from stablekern.grid import SamplingGrid
from stablekern.structure import TridiagonalMatrix, UpperBidiagonal

from helpers import inf_norm, random_grid, random_spec

LN2 = math.log(2.0)
U = 2.0**-53  # unit roundoff
SS1_SPEC = KernelSpec(family=SS1, c=1.0, beta=LN2)
SS1_GRID = make_grid([1.0, 2.0, 3.0])
W_SPEC = KernelSpec(family=WIENER, c=1.0)
W_GRID = make_grid([1.0, 2.0, 4.0])


class TestWorkedExamples:
    def test_ss1_inverse(self):
        tri = closed_form_inverse(SS1_SPEC, SS1_GRID)
        np.testing.assert_allclose(tri.diag, [4.0, 12.0, 16.0], rtol=1e-12)
        np.testing.assert_allclose(tri.offdiag, [-4.0, -8.0], rtol=1e-12)

    def test_wiener_inverse(self):
        tri = closed_form_inverse(W_SPEC, W_GRID)
        np.testing.assert_allclose(tri.diag, [2.0, 1.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(tri.offdiag, [-1.0, -0.5], rtol=1e-12)

    def test_log_dets(self):
        assert log_det(SS1_SPEC, SS1_GRID) == pytest.approx(math.log(1.0 / 256.0), rel=1e-12)
        assert log_det(W_SPEC, W_GRID) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_ss1_factor(self):
        f = precision_factor(SS1_SPEC, SS1_GRID)
        s = 2.0 * math.sqrt(2.0)
        np.testing.assert_allclose(f.diag, [2.0, s, s], rtol=1e-12)
        np.testing.assert_allclose(f.super, [-2.0, -s], rtol=1e-12)

    def test_wiener_factor(self):
        f = precision_factor(W_SPEC, W_GRID)
        np.testing.assert_allclose(f.diag, [math.sqrt(2.0), 1.0, 0.5], rtol=1e-12)
        np.testing.assert_allclose(f.super, [-math.sqrt(0.5), -0.5], rtol=1e-12)

    def test_ss1_sqrt(self):
        u = sqrt_factor(SS1_SPEC, SS1_GRID).to_dense()
        r = 1.0 / (2.0 * math.sqrt(2.0))
        expected = [[0.5, r, r], [0.0, r, r], [0.0, 0.0, r]]
        np.testing.assert_allclose(u, expected, rtol=1e-12)

    def test_sqrt_single_point_ss1(self):
        u = sqrt_factor(SS1_SPEC, make_grid([1.0])).to_dense()
        np.testing.assert_allclose(u, [[math.sqrt(0.5)]], rtol=1e-12)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_inverse_identity_and_logdet(self, family):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(1, 31))
            g = random_grid(rng, n)
            spec = random_spec(rng, family)
            p = gram(spec, g).values
            tri = closed_form_inverse(spec, g).to_dense()
            assert inf_norm(tri @ p - np.eye(n)) <= 1e-10 * n
            ld = log_det(spec, g)
            assert abs(ld - oracle.dense_logdet(p)) <= 1e-10 * max(1.0, abs(ld))

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_inverse_is_the_sum_of_reciprocal_steps(self, family):
        # The steps formed apart, each in its own array: the same arithmetic, bit for bit.
        rng = np.random.default_rng(102)
        for n in (1, 2, 7, 40):
            g = random_grid(rng, n)
            spec = random_spec(rng, family)
            t = g.times
            if family == WIENER:
                delta = np.diff(t, prepend=0.0)
            else:
                delta = np.exp(-spec.beta * t) * np.append(-np.expm1(np.diff(t) * -spec.beta), 1.0)
            r = 1.0 / (delta * spec.c)
            diag = r.copy()
            # Each diagonal entry adds the reciprocal of the step toward the end where the clock vanishes.
            if family == WIENER:
                diag[:-1] += r[1:]
                offdiag = -r[1:]
            else:
                diag[1:] += r[:-1]
                offdiag = -r[:-1]
            tri = closed_form_inverse(spec, g)
            np.testing.assert_array_equal(tri.diag, diag)
            np.testing.assert_array_equal(tri.offdiag, offdiag)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_factor_identities(self, family):
        rng = np.random.default_rng(202)
        for _ in range(20):
            n = int(rng.integers(1, 31))
            g = random_grid(rng, n)
            spec = random_spec(rng, family)
            p = gram(spec, g).values
            tri = closed_form_inverse(spec, g).to_dense()
            f = precision_factor(spec, g)
            assert np.all(f.diag > 0)
            fd = f.to_dense()
            assert inf_norm(fd.T @ fd - tri) <= 1e-12 * inf_norm(tri)
            root = sqrt_factor(spec, g)
            # One factorization: F's diagonal is the reciprocal of U's column scales, bit for bit.
            np.testing.assert_array_equal(f.diag, 1.0 / root.inv_diag)
            if family == SS1:
                np.testing.assert_array_equal(f.super, -f.diag[:-1])
            u = root.to_dense()
            assert inf_norm(u @ u.T - p) <= 1e-13 * inf_norm(p)
            assert np.array_equal(u, np.triu(u))
            # F = U^{-1}: each entry of F U is a sum of at most two products,
            # within 4 units of roundoff of |F| |U|.
            assert np.all(np.abs(fd @ u - np.eye(n)) <= 4 * U * (np.abs(fd) @ np.abs(u)))

    @pytest.mark.parametrize("family", [WIENER, SS1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_n_extends_the_closed_forms(self, family, n):
        # The closed forms are stated for n >= 3; the same expressions are
        # used down to n = 1, so pin them against the dense oracle.
        rng = np.random.default_rng(10 * n)
        g = random_grid(rng, n)
        spec = random_spec(rng, family)
        p = gram(spec, g).values
        tri = closed_form_inverse(spec, g).to_dense()
        np.testing.assert_allclose(tri, oracle.dense_inverse(p), rtol=1e-12)
        assert log_det(spec, g) == pytest.approx(oracle.dense_logdet(p), rel=1e-13, abs=1e-13)
        f = precision_factor(spec, g).to_dense()
        np.testing.assert_allclose(f.T @ f, tri, rtol=1e-12)
        u = sqrt_factor(spec, g).to_dense()
        np.testing.assert_allclose(u @ u.T, p, rtol=1e-12)


class TestScaleCoherence:
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_scale_moves_predictably(self, family):
        rng = np.random.default_rng(33)
        g = random_grid(rng, 12)
        c = 4.2
        unit = KernelSpec(family=family, c=1.0, beta=None if family == WIENER else 0.9)
        scaled = KernelSpec(family=family, c=c, beta=None if family == WIENER else 0.9)
        assert log_det(scaled, g) == pytest.approx(log_det(unit, g) + 12 * math.log(c), rel=1e-12)
        np.testing.assert_allclose(
            closed_form_inverse(scaled, g).diag, closed_form_inverse(unit, g).diag / c, rtol=1e-14
        )
        np.testing.assert_allclose(
            precision_factor(scaled, g).diag, precision_factor(unit, g).diag / math.sqrt(c), rtol=1e-14
        )

    def test_log_det_survives_underflowing_determinant(self):
        # Raw determinant here is far below the smallest double; frozen
        # from a 60-digit evaluation.
        g = make_grid(np.arange(1.0, 51.0))
        spec = KernelSpec(family=SS1, c=1.0, beta=2.0)
        assert log_det(spec, g) == pytest.approx(-2557.125259435574, rel=1e-13)


class TestApplyPrecision:
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_matches_dense_tridiagonal(self, family):
        rng = np.random.default_rng(44)
        g = random_grid(rng, 40)
        spec = random_spec(rng, family)
        v = rng.standard_normal(40)
        tri = closed_form_inverse(spec, g).to_dense()
        factor = precision_factor(spec, g)
        out = apply_precision(factor, v)
        np.testing.assert_allclose(out, tri @ v, rtol=1e-10, atol=1e-12 * inf_norm(tri))
        # The two sweeps, each product in its own array: the same arithmetic, bit for bit.
        u = factor.diag * v
        u[:-1] += factor.super * v[1:]
        expected = factor.diag * u
        expected[1:] += factor.super * u[:-1]
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_inverts_gram(self, family):
        rng = np.random.default_rng(55)
        g = random_grid(rng, 25, inc_low=0.5, inc_high=1.5)
        spec = KernelSpec(family=family, c=2.0, beta=None if family == WIENER else 0.4)
        x = rng.standard_normal(25)
        b = gram(spec, g).values @ x
        np.testing.assert_allclose(apply_precision(precision_factor(spec, g), b), x, rtol=1e-8, atol=1e-10)

    def test_dimension_mismatch(self):
        f = precision_factor(SS1_SPEC, SS1_GRID)
        with pytest.raises(errors.DimensionMismatch):
            apply_precision(f, np.ones(4))
        with pytest.raises(errors.DimensionMismatch):
            apply_precision(f, np.ones((3, 1)))

    @pytest.mark.filterwarnings("error")
    def test_result_beyond_the_float_range(self):
        # F reaches exp(350) ~ 1e152 here, so F'F v ~ 1e304 * 1e5 is not a float.
        f = precision_factor(KernelSpec(family=SS1, c=1.0, beta=1.0), uniform_grid(7, 100.0, 100.0))
        assert np.all(np.isfinite(apply_precision(f, np.ones(7))))
        with pytest.raises(errors.InvalidParameter, match="float range"):
            apply_precision(f, 1e5 * np.ones(7))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector(self, bad):
        v = np.ones(3)
        v[1] = bad
        with pytest.raises(errors.InvalidParameter, match="finite vector"):
            apply_precision(precision_factor(SS1_SPEC, SS1_GRID), v)


class TestErrors:
    def test_wiener_zero_start_singular_everywhere(self):
        g = make_grid([0.0, 1.0, 2.0])
        for op in (closed_form_inverse, log_det, precision_factor, sqrt_factor):
            with pytest.raises(errors.SingularGram):
                op(W_SPEC, g)

    @pytest.mark.filterwarnings("error")
    def test_wiener_unit_triangle_forms_only_its_upper_ratios(self):
        # Below the diagonal t_i / t_j reaches 1e300 / 1e-300, past the float range.
        times = [1e-300, 1.0, 1e300]
        g = make_grid(times)
        root = sqrt_factor(W_SPEC, g)
        want = np.array([[times[i] / times[j] if i <= j else 0.0 for j in range(3)] for i in range(3)])
        np.testing.assert_array_equal(root.unit_triangle(), want)
        np.testing.assert_array_equal(root.to_dense(), want * root.inv_diag)
        assert increment_constrained_entropy_test(W_SPEC, g, 0, 5).dominance

    @pytest.mark.filterwarnings("error")
    def test_wiener_log_det_where_c_delta_overflows(self):
        # c * delta_1 = 1e300 * 1e10: the typed error of gram, and no numpy warning.
        spec, g = KernelSpec(family=WIENER, c=1e300), make_grid([1e10])
        for op in (log_det, gram):
            with pytest.raises(errors.SingularGram):
                op(spec, g)

    @pytest.mark.filterwarnings("error")
    def test_ss1_inverse_beyond_the_float_range(self):
        # exp(-1000) underflows: the inverse would reach 1e130 and then inf.
        spec = KernelSpec(family=SS1, c=1.0, beta=1.0)
        g = uniform_grid(10, 100.0, 100.0)
        with pytest.raises(errors.SingularGram):
            closed_form_inverse(spec, g)
        assert math.isfinite(log_det(spec, g))
        # The factors need no reciprocal of a step: U's columns sqrt(delta_j)
        # reach only exp(-500) ~ 7e-218, and F's entries 1/sqrt(delta_j) only
        # exp(500) ~ 1.4e217.  U U' = P down to the float range, where P's
        # exact entries exp(-max(t_i, t_j)) fall below it.
        with mpmath.workdps(60):
            clock = [mpmath.exp(-mpmath.mpf(t)) for t in g.times]
            steps = [clock[j] - clock[j + 1] for j in range(9)] + [clock[-1]]
            root = sqrt_factor(spec, g)
            u = root.to_dense()
            assert np.array_equal(u, np.triu(u[:1].repeat(10, axis=0)))
            for got, step in zip(root.inv_diag, steps):
                assert abs(mpmath.mpf(got) - mpmath.sqrt(step)) <= 2 * U * mpmath.sqrt(step)
            factor = precision_factor(spec, g)
            np.testing.assert_array_equal(factor.super, -factor.diag[:-1])
            for got, step in zip(factor.diag, steps):
                assert abs(mpmath.mpf(got) - 1 / mpmath.sqrt(step)) <= 3 * U / mpmath.sqrt(step)
            p = u @ u.T
            for i in range(10):
                for j in range(10):
                    exact = clock[max(i, j)]
                    assert abs(mpmath.mpf(p[i, j]) - exact) <= 4 * U * exact + 2.0**-1074 * 10

    @pytest.mark.filterwarnings("error")
    def test_ss1_sqrt_exists_while_its_column_root_is_normal(self):
        # At c = 1 the last column scale is exp(-beta*t_n / 2): a normal
        # float up to beta*t_n ~ 1416.8, twice the precision factor's reach.
        g = uniform_grid(40, 1.0, 1.0)
        root = sqrt_factor(KernelSpec(family=SS1, c=1.0, beta=35.4), g)
        with mpmath.workdps(30):
            # -beta*t_n is rounded once, to within 2^-43 of 1416: that bounds the error.
            exact = mpmath.exp(-mpmath.mpf(35.4) * 40 / 2)
            assert abs(mpmath.mpf(root.inv_diag[-1]) - exact) <= 2.0**-43 * exact
        np.testing.assert_array_equal(root.unit_triangle(), np.triu(np.ones((40, 40))))
        # exp(-beta*t_n / 2) below the normal floats fails, whatever c.
        for beta, c in ((35.42, 1.0), (37.3, 1.0), (36.0, 1e300)):
            with pytest.raises(errors.SingularGram, match="square-root column scale"):
                sqrt_factor(KernelSpec(family=SS1, c=c, beta=beta), g)
        # So does a normal exp(-beta*t_n / 2) whose scale sqrt(c) takes below them.
        with pytest.raises(errors.SingularGram, match="square-root column scale"):
            sqrt_factor(KernelSpec(family=SS1, c=1e-300, beta=35.4), g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, times, exists", [
        # SS-1 on t = 1, ..., 40: U ends where exp(-beta*t_n / 2) leaves the normal floats.
        (KernelSpec(family=SS1, c=1.0, beta=25.0), np.arange(1.0, 41.0), True),
        (KernelSpec(family=SS1, c=1.0, beta=35.4), np.arange(1.0, 41.0), True),
        (KernelSpec(family=SS1, c=1.0, beta=35.42), np.arange(1.0, 41.0), False),
        (KernelSpec(family=SS1, c=1e300, beta=36.0), np.arange(1.0, 41.0), False),
        (KernelSpec(family=SS1, c=1e-300, beta=35.4), np.arange(1.0, 41.0), False),
        # Wiener: c * delta_1 = 1e-310 cannot be inverted, but its root 1e-155 can.
        (KernelSpec(family=WIENER, c=1e-300), [1e-10, 1.0, 2.0], True),
        (KernelSpec(family=WIENER, c=1.0), [0.0, 1.0, 2.0], False),
    ], ids=["ss1-1000", "ss1-1416", "ss1-1416.8", "ss1-c1e300", "ss1-c1e-300", "wiener-c1e-300", "wiener-t1-0"])
    def test_factors_share_one_domain(self, spec, times, exists):
        # F is built from U's column scales, so it exists exactly where U does.
        g = make_grid(times)
        if exists:
            np.testing.assert_array_equal(precision_factor(spec, g).diag, 1.0 / sqrt_factor(spec, g).inv_diag)
        else:
            for function in (sqrt_factor, precision_factor):
                with pytest.raises(errors.SingularGram, match="square-root column scale"):
                    function(spec, g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_sqrt_scales_keep_full_precision_for_a_small_c(self, family):
        # c * delta ~ 1e-310 is subnormal, but each scale sqrt(c * delta) ~ 1e-155 is
        # a normal float: formed as a product of roots, it keeps full precision.
        g = make_grid([1e-10, 3e-10, 4e-10, 7e-10])
        spec = KernelSpec(family=family, c=1e-300, beta=None if family == WIENER else 1.0)
        root = sqrt_factor(spec, g)
        with mpmath.workdps(60):
            t = [mpmath.mpf(x) for x in g.times]
            c = mpmath.mpf(spec.c)
            if family == WIENER:
                var = [c * t[j] * (t[j + 1] - t[j]) / t[j + 1] for j in range(3)] + [c * t[3]]
            else:
                clock = [mpmath.exp(-x) for x in t]
                var = [c * (clock[j] - clock[j + 1]) for j in range(3)] + [c * clock[3]]
            for got, v in zip(root.inv_diag, var):
                assert abs(mpmath.mpf(got) - mpmath.sqrt(v)) <= 4 * U * mpmath.sqrt(v)

    @pytest.mark.filterwarnings("error")
    def test_wiener_factors_beyond_the_gram_range(self):
        # c*t_n = 1e309 overflows, and so does the Gram matrix, but the last
        # precision-factor entry 1/sqrt(c*t_n) = 10^-154.5 is a float, and so
        # is its reciprocal, the last square-root scale.
        spec = KernelSpec(family=WIENER, c=1e300)
        g = make_grid(np.arange(1, 11) * 1e8)
        factor = precision_factor(spec, g)
        assert factor.diag[-1] == pytest.approx(10.0**-154.5, rel=4 * U)
        assert np.all(np.isfinite(factor.diag)) and np.all(np.isfinite(factor.super))
        root = sqrt_factor(spec, g)
        assert root.inv_diag[-1] == pytest.approx(10.0**154.5, rel=4 * U)
        np.testing.assert_allclose(root.inv_diag * factor.diag, 1.0, rtol=4 * U, atol=0.0)
        with pytest.raises(errors.SingularGram, match="Gram entry"):
            gram(spec, g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("function", [log_det, gram, sqrt_factor, closed_form_inverse, kernel_eval])
    def test_ss1_log_clock_beyond_the_float_range(self, function):
        # beta*t_n = 1e310: the log clock -beta*t_n is not a float.
        spec = KernelSpec(family=SS1, c=1.0, beta=1e300)
        with pytest.raises(errors.SingularGram, match="log clock"):
            if function is kernel_eval:
                kernel_eval(spec, 1.0, 1e10)
            else:
                function(spec, make_grid([1.0, 1e10]))

    @pytest.mark.filterwarnings("error")
    def test_ss1_log_det_sum_beyond_the_float_range(self):
        # Each -beta*t is a float, but their sum -2.5e308 is not.
        with pytest.raises(errors.SingularGram, match="sum of their logs"):
            log_det(KernelSpec(family=SS1, c=1.0, beta=1e300), make_grid([1e8, 1.5e8]))

    @pytest.mark.filterwarnings("error")
    def test_ss1_subnormal_step_is_singular(self):
        # beta*dt = 1e-320 is subnormal, and so is -expm1(-beta*dt): with about
        # three digits left, the first square-root scale read 9.99994e-161
        # against the exact 1e-160.
        spec = KernelSpec(family=SS1, c=1.0, beta=1e-320)
        g = uniform_grid(3, 1.0, 1.0)
        for function in (sqrt_factor, log_det, gram, closed_form_inverse, precision_factor):
            with pytest.raises(errors.SingularGram, match="relative step"):
                function(spec, g)
        # kernel_eval reads no step: exp(-2e-320) rounds to 1.
        assert kernel_eval(spec, 1.0, 2.0) == 1.0
        # At the smallest normal beta*dt every scale keeps full precision.
        beta = float(np.finfo(float).tiny)
        root = sqrt_factor(KernelSpec(family=SS1, c=1.0, beta=beta), g)
        with mpmath.workdps(60):
            b = mpmath.mpf(beta)
            clock = [mpmath.exp(-b * t) for t in (1, 2, 3)]
            steps = [clock[0] * -mpmath.expm1(-b), clock[1] * -mpmath.expm1(-b), clock[2]]
            for got, step in zip(root.inv_diag, steps):
                assert abs(mpmath.mpf(got) - mpmath.sqrt(step)) <= 2 * U * mpmath.sqrt(step)

    @pytest.mark.filterwarnings("error")
    def test_ss1_inverse_near_the_float_range(self):
        # exp(-700) ~ 1e-304: the inverse reaches 1e304 and stays finite.
        spec = KernelSpec(family=SS1, c=1.0, beta=1.0)
        g = uniform_grid(7, 100.0, 100.0)
        tri = closed_form_inverse(spec, g)
        assert np.all(np.isfinite(tri.diag)) and tri.diag[-1] > 1e303
        assert np.all(np.isfinite(precision_factor(spec, g).diag))



@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=12),
    st.sampled_from([WIENER, SS1]),
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_inverse_identity_property(increments, family, c, beta):
    g = make_grid(np.cumsum(increments))
    spec = KernelSpec(family=family, c=c, beta=None if family == WIENER else beta)
    n = g.n
    p = gram(spec, g).values
    tri = closed_form_inverse(spec, g).to_dense()
    assert inf_norm(tri @ p - np.eye(n)) <= 1e-9 * n


class TestNonNumericOrMisshapenBands:
    """Band arrays that are not real vectors raise typed errors, not numpy's or Python's."""

    def test_string_vector_to_apply_precision(self):
        factor = precision_factor(W_SPEC, make_grid([1.0, 2.0, 3.0]))
        with pytest.raises(errors.InvalidParameter, match="v must be real numbers"):
            apply_precision(factor, ["a", "b", "c"])

    def test_tridiagonal_from_lists(self):
        # It raised AttributeError: a list has no shape.
        band = TridiagonalMatrix([1.0, 2.0, 3.0], [0.5, 1.0])
        assert band.diag.dtype == band.offdiag.dtype == np.float64
        np.testing.assert_array_equal(band.to_dense(), [[1.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, 3.0]])

    def test_bidiagonal_from_lists(self):
        factor = UpperBidiagonal([1.0, 2.0], [0.5])
        np.testing.assert_array_equal(factor.to_dense(), [[1.0, 0.5], [0.0, 2.0]])

    def test_column_diagonal_is_a_dimension_mismatch(self):
        # Accepted before, after which band_extend raised a misleading NotCompletable.
        with pytest.raises(errors.DimensionMismatch):
            TridiagonalMatrix(np.ones((3, 1)), np.ones(2))
        with pytest.raises(errors.DimensionMismatch):
            UpperBidiagonal(np.ones((2, 1)), np.ones(1))

    def test_string_band(self):
        with pytest.raises(errors.InvalidParameter, match="offdiag must be real numbers"):
            TridiagonalMatrix(np.ones(3), ["a", "b"])

    def test_float64_arrays_are_kept_not_copied(self):
        diag, off = np.ones(4), np.full(3, 0.5)
        band = TridiagonalMatrix(diag, off)
        assert band.diag is diag and band.offdiag is off
        factor = precision_factor(W_SPEC, uniform_grid(4, 1.0, 1.0))
        assert UpperBidiagonal(factor.diag, factor.super).diag is factor.diag


# Every public function that reads a grid's chain, as the arrays (or floats) it returns.
CHAIN_READERS = {
    "inverse": lambda spec, g: (lambda tri: (tri.diag, tri.offdiag))(closed_form_inverse(spec, g)),
    "log_det": lambda spec, g: (log_det(spec, g),),
    "precision": lambda spec, g: (lambda f: (f.diag, f.super))(precision_factor(spec, g)),
    "sqrt": lambda spec, g: (sqrt_factor(spec, g).inv_diag,),
    "gram": lambda spec, g: (gram(spec, g).values,),
    "sample": lambda spec, g: (sample(spec, g, 7, 3).paths,),
    "audit": lambda spec, g: ([list(vars(check).values())
                               for check in audit_constraints(sample(spec, g, 7, 100), spec).checks],),
    "increments": lambda spec, g: (stable_increments(g, spec.beta) if spec.beta else np.zeros(0),),
}
MEMO_TIMES = np.cumsum(np.random.default_rng(11).uniform(0.01, 0.6, 40))
MEMO_SPECS = (KernelSpec(family=SS1, c=1.5, beta=0.7), KernelSpec(family=WIENER, c=1.5),
              KernelSpec(family=SS1, c=2.5, beta=0.7))


def bits(values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def fresh(spec, name):
    """What ``name`` returns on a grid that holds no chain yet."""
    return bits(CHAIN_READERS[name](spec, make_grid(MEMO_TIMES)))


class TestChainMemo:
    """A grid keeps the chain of the last kernel asked of it; no result depends on that."""

    @pytest.mark.parametrize("seed", range(4))
    def test_any_order_of_calls_gives_the_bits_of_a_fresh_grid(self, seed):
        # SS-1 and Wiener alternate, and two scales c share one beta.
        calls = [(spec, name) for spec in MEMO_SPECS for name in CHAIN_READERS] * 2
        order = np.random.default_rng(seed).permutation(len(calls))
        g = make_grid(MEMO_TIMES)
        for k in order:
            spec, name = calls[k]
            assert bits(CHAIN_READERS[name](spec, g)) == fresh(spec, name), (spec, name)

    def test_writing_into_results_changes_no_later_call(self):
        g = make_grid(MEMO_TIMES)
        for spec in MEMO_SPECS:
            outputs = [closed_form_inverse(spec, g).diag, precision_factor(spec, g).diag,
                       sqrt_factor(spec, g).inv_diag, sample(spec, g, 7, 3).paths,
                       stable_increments(g, spec.beta or 1.0)]
            for out in outputs:
                out[...] = np.nan
            for name in CHAIN_READERS:
                assert bits(CHAIN_READERS[name](spec, g)) == fresh(spec, name), (spec, name)

    def test_the_kept_arrays_are_read_only(self):
        g = make_grid(MEMO_TIMES)
        for spec in MEMO_SPECS:
            chain = kernels._chain(spec, g)
            kept = [chain.clock, chain.rel] + ([chain.log_scale] if spec.beta else [])
            assert [a.flags.writeable for a in kept] == [False] * len(kept)
            with pytest.raises(ValueError):
                chain.rel[0] = 1.0

    def test_one_chain_per_grid(self):
        g = make_grid(MEMO_TIMES)
        first = kernels._chain(MEMO_SPECS[0], g)
        assert kernels._chain(KernelSpec(family=SS1, c=1.5, beta=0.7), g) is first  # an equal spec
        ref = weakref.ref(first)
        del first
        log_det(MEMO_SPECS[1], g)
        assert ref() is None
        assert g._chain.spec == MEMO_SPECS[1]

    def test_a_grid_builds_one_chain_per_change_of_kernel(self, monkeypatch):
        # The benchmark's op: both samplers, then four closed forms per kernel.
        built = []

        class Counted(kernels._Chain):
            def __init__(self, spec, times):
                built.append(spec.family)
                super().__init__(spec, times)

        monkeypatch.setattr(kernels, "_Chain", Counted)
        g = make_grid(MEMO_TIMES)
        ss1, wiener = MEMO_SPECS[:2]
        sample(ss1, g, 1, 1), sample(wiener, g, 1, 1)
        for spec in (ss1, wiener):
            closed_form_inverse(spec, g), log_det(spec, g), precision_factor(spec, g), sqrt_factor(spec, g)
        assert built == [SS1, WIENER, SS1, WIENER]

    def test_a_grid_keeps_its_own_copy(self):
        times = MEMO_TIMES.copy()
        base = MEMO_TIMES.copy()
        view = base.view()
        view.setflags(write=False)  # read-only, but its memory can still change
        for g, source in ((SamplingGrid(times), times), (SamplingGrid(view), base)):
            for spec in MEMO_SPECS:
                for name in CHAIN_READERS:
                    CHAIN_READERS[name](spec, g)
                    source[-1] += 0.25
                    assert bits(CHAIN_READERS[name](spec, g)) == fresh(spec, name), (spec, name)
            assert g._chain is not None
