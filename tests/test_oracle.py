import math

import numpy as np
import pytest

from stablekern import errors
from stablekern.oracle import dense_chol, dense_inverse, dense_logdet, matmul


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


class TestMatmul:
    def test_product(self):
        out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestNonNumericInput:
    def test_string_matrix_to_dense_logdet(self):
        with pytest.raises(errors.InvalidParameter, match="must be real numbers"):
            dense_logdet([["a"]])

    def test_complex_factors_to_matmul(self):
        with pytest.raises(errors.InvalidParameter, match="must be real numbers"):
            matmul([[1j]], [[1.0]])

    def test_list_input_is_not_modified(self):
        m = [[4.0, 2.0], [2.0, 3.0]]
        assert dense_logdet(m) == pytest.approx(math.log(8.0))
        assert m == [[4.0, 2.0], [2.0, 3.0]]
