import math

import mpmath
import numpy as np
import pytest

from stablekern import SS1, KernelSpec, errors, gram, make_grid
from stablekern.oracle import dense_chol, dense_inverse, dense_logdet


class TestDenseInverse:
    def test_known_2x2(self):
        inv = dense_inverse([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(inv, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], rtol=1e-15)

    def test_identity(self):
        np.testing.assert_array_equal(dense_inverse(np.eye(4)), np.eye(4))

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dense_inverse(a), a, atol=1e-15)

    def test_random_inverse_identity(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((30, 30))
        a = a @ a.T + 30.0 * np.eye(30)
        residual = dense_inverse(a) @ a - np.eye(30)
        assert np.max(np.abs(residual)) < 1e-11

    def test_singular(self):
        with pytest.raises(errors.Singular):
            dense_inverse(np.ones((3, 3)))

    def test_not_square(self):
        with pytest.raises(errors.DimensionMismatch):
            dense_inverse(np.ones((2, 3)))

    def test_not_finite(self):
        with pytest.raises(errors.InvalidParameter):
            dense_inverse([[1.0, float("nan")], [0.0, 1.0]])


class TestDenseLogdet:
    def test_diagonal(self):
        assert dense_logdet(np.diag([2.0, 3.0, 4.0])) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_pivoted_case(self):
        # det of [[0,1],[2,0]] is -2: no positive log-determinant exists.
        with pytest.raises(errors.NotPositiveDefinite):
            dense_logdet([[0.0, 1.0], [2.0, 0.0]])

    def test_positive_det_with_row_swaps(self):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
        assert dense_logdet(a) == pytest.approx(math.log(6.0), rel=1e-14)

    def test_matches_cholesky_on_random_spd(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 20, 60):
            g = rng.standard_normal((n, n))
            a = g @ g.T + n * np.eye(n)
            ld = dense_logdet(a)
            ld_chol = 2.0 * float(np.sum(np.log(np.diag(dense_chol(a)))))
            assert ld == pytest.approx(ld_chol, rel=1e-12)

    def test_singular(self):
        with pytest.raises(errors.Singular):
            dense_logdet(np.zeros((2, 2)))


class TestRelativePivotFloor:
    """SS-1 Grams whose last pivots lie below 1e-300, judged against 60-digit arithmetic.

    Their correlations exp(-beta|t_i - t_j|/2) are well conditioned, so the
    pivot floor is relative to each column: an absolute floor of 1e-300
    raised Singular on all three.
    """

    GRIDS = ([1.0, 300.0, 700.0], [1.0, 300.0, 709.0], np.linspace(600.0, 705.0, 12).tolist())

    @pytest.mark.parametrize("times", GRIDS, ids=["1-300-700", "1-300-709", "linspace-600-705"])
    def test_log_det_and_inverse_match_60_digits(self, times):
        p = gram(KernelSpec(SS1, 1.0, 1.0), make_grid(times)).values
        assert p[-1, -1] < 1e-300
        # mpmath's own singularity test is relative to the matrix norm, so it is
        # given the correlation form, scaled in 60-digit arithmetic.
        with mpmath.workdps(60):
            roots = [mpmath.sqrt(mpmath.mpf(x)) for x in np.diag(p)]
            corr = mpmath.matrix([[mpmath.mpf(x) / (ri * rj) for x, rj in zip(row, roots)]
                                  for row, ri in zip(p.tolist(), roots)])
            ld = float(mpmath.log(mpmath.det(corr)) + 2 * mpmath.fsum(map(mpmath.log, roots)))
            corr_inv = corr**-1
            inv = np.array([[float(corr_inv[i, j] / (ri * rj)) for j, rj in enumerate(roots)]
                            for i, ri in enumerate(roots)])
        assert abs(dense_logdet(p) - ld) <= 1e-14 * abs(ld)
        # Entry errors of the inverse scale with its rows and columns: compare on the correlation scale.
        root = np.sqrt(np.diag(p))
        err = root[:, None] * (dense_inverse(p) - inv) * root
        assert np.max(np.abs(err)) <= 1e-13 * np.max(np.abs(root[:, None] * inv * root))


class TestDenseChol:
    def test_known_factor(self):
        low = dense_chol([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], rtol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((25, 25))
        a = g @ g.T + 25.0 * np.eye(25)
        low = dense_chol(a)
        np.testing.assert_allclose(low @ low.T, a, rtol=1e-12)
        assert np.array_equal(low, np.tril(low))

    def test_indefinite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            dense_chol([[1.0, 0.0], [0.0, -1.0]])

    def test_semidefinite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            dense_chol([[1.0, 1.0], [1.0, 1.0]])


class TestNonNumericInput:
    def test_string_matrix_to_dense_logdet(self):
        with pytest.raises(errors.InvalidParameter, match="must be real numbers"):
            dense_logdet([["a"]])

    def test_list_input_is_not_modified(self):
        m = [[4.0, 2.0], [2.0, 3.0]]
        assert dense_logdet(m) == pytest.approx(math.log(8.0))
        assert m == [[4.0, 2.0], [2.0, 3.0]]
