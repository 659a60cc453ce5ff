import math

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
    log_det,
    make_grid,
    oracle,
    precision_factor,
    sqrt_factor,
    uniform_grid,
)

from helpers import inf_norm, random_grid, random_spec

LN2 = math.log(2.0)
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
            u = sqrt_factor(spec, g).to_dense()
            assert inf_norm(u @ u.T - p) <= 1e-13 * inf_norm(p)
            assert np.array_equal(u, np.triu(u))

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
        out = apply_precision(precision_factor(spec, g), v)
        np.testing.assert_allclose(out, tri @ v, rtol=1e-10, atol=1e-12 * inf_norm(tri))

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


class TestErrors:
    def test_wiener_zero_start_singular_everywhere(self):
        g = make_grid([0.0, 1.0, 2.0])
        for op in (closed_form_inverse, log_det, precision_factor, sqrt_factor):
            with pytest.raises(errors.SingularGram):
                op(W_SPEC, g)

    @pytest.mark.filterwarnings("error")
    def test_ss1_inverse_beyond_the_float_range(self):
        # exp(-1000) underflows: the inverse would reach 1e130 and then inf.
        spec = KernelSpec(family=SS1, c=1.0, beta=1.0)
        g = uniform_grid(10, 100.0, 100.0)
        for op in (closed_form_inverse, precision_factor, sqrt_factor):
            with pytest.raises(errors.SingularGram):
                op(spec, g)
        assert math.isfinite(log_det(spec, g))

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
