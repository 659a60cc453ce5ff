import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekern import (
    ENTROPY_TOLERANCE,
    SS1,
    WIENER,
    GaussianEntropyReport,
    KernelSpec,
    TridiagonalMatrix,
    band_extend,
    band_project,
    completion_entropy_audit,
    errors,
    gaussian_entropy,
    gram,
    increment_constrained_entropy_test,
    make_grid,
    oracle,
    random_positive_extension,
)

from helpers import random_grid, random_spec

LN2 = math.log(2.0)
SS1_SPEC = KernelSpec(family=SS1, c=1.0, beta=LN2)
SS1_GRID = make_grid([1.0, 2.0, 3.0])
LOG_2PIE = math.log(2.0 * math.pi) + 1.0


def band_extend_by_loop(a):
    """The fill-in one entry at a time, by increasing distance from the diagonal."""
    n = a.n
    m = np.diag(a.diag.astype(float))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = a.offdiag
    m[idx + 1, idx] = a.offdiag
    for dist in range(2, n):
        for i in range(n - dist):
            j = i + dist
            m[i, j] = m[i, j - 1] * m[j - 1, j] / m[j - 1, j - 1]
            m[j, i] = m[i, j]
    return m


class TestBandProject:
    def test_keeps_band(self):
        p = gram(SS1_SPEC, SS1_GRID).values
        skel = band_project(p)
        np.testing.assert_array_equal(skel.diag, np.diag(p))
        np.testing.assert_array_equal(skel.offdiag, np.diag(p, 1))

    def test_not_symmetric(self):
        m = np.eye(3)
        m[0, 2] = 1e-300
        with pytest.raises(errors.NotSymmetric):
            band_project(m)

    def test_not_square(self):
        with pytest.raises(errors.DimensionMismatch):
            band_project(np.ones((2, 3)))

    def test_too_small(self):
        with pytest.raises(errors.InvalidParameter):
            band_project(np.eye(2))


class TestBandExtend:
    def test_ss1_fill_in(self):
        m = band_extend(band_project(gram(SS1_SPEC, SS1_GRID).values))
        assert m[0, 2] == pytest.approx(0.125, rel=1e-12)

    def test_wiener_fill_in(self):
        p = gram(KernelSpec(family=WIENER, c=1.0), make_grid([1.0, 2.0, 4.0])).values
        m = band_extend(band_project(p))
        assert m[0, 2] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_roundtrip_recovers_gram(self, family):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_grid(rng, int(rng.integers(3, 31)))
            p = gram(random_spec(rng, family), g).values
            m = band_extend(band_project(p))
            np.testing.assert_allclose(m, p, rtol=1e-12)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_extension_inverse_is_tridiagonal(self, family):
        rng = np.random.default_rng(10)
        g = random_grid(rng, 12)
        p = gram(random_spec(rng, family), g).values
        inv = oracle.dense_inverse(band_extend(band_project(p)))
        beyond = np.triu(inv, k=2)
        assert np.max(np.abs(beyond)) <= 1e-8 * np.max(np.abs(inv))

    def test_matches_the_entrywise_fill_in_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            if trial % 2:
                spec = random_spec(rng, (WIENER, SS1)[trial % 4 // 2])
                p = gram(spec, random_grid(rng, n)).values
                skel = TridiagonalMatrix(diag=np.diag(p).copy(), offdiag=np.diag(p, 1).copy())
            else:
                # Signed off-diagonals, each 2x2 minor positive definite.
                diag = rng.uniform(0.1, 10.0, size=n)
                rho = rng.uniform(-0.95, 0.95, size=n - 1)
                skel = TridiagonalMatrix(diag=diag, offdiag=rho * np.sqrt(diag[:-1] * diag[1:]))
            assert np.array_equal(band_extend(skel), band_extend_by_loop(skel))

    def test_not_completable_minor(self):
        skel = TridiagonalMatrix(diag=np.array([1.0, 1.0, 1.0]), offdiag=np.array([1.1, 0.2]))
        with pytest.raises(errors.NotCompletable):
            band_extend(skel)

    def test_not_completable_diag(self):
        skel = TridiagonalMatrix(diag=np.array([1.0, -1.0, 1.0]), offdiag=np.array([0.1, 0.1]))
        with pytest.raises(errors.NotCompletable):
            band_extend(skel)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_band_entry(self, bad):
        # NaN fails every comparison, so it would pass the 2x2 minor test.
        for diag, offdiag in (([1.0, bad, 1.0], [0.1, 0.1]), ([1.0, 1.0, 1.0], [bad, 0.1])):
            with pytest.raises(errors.InvalidParameter, match="band entries must be finite"):
                band_extend(TridiagonalMatrix(diag=np.array(diag), offdiag=np.array(offdiag)))

    def test_skeleton_shape_check(self):
        with pytest.raises(errors.DimensionMismatch):
            TridiagonalMatrix(diag=np.ones(3), offdiag=np.ones(3))


class TestGaussianEntropy:
    def test_unit_scalar(self):
        assert gaussian_entropy(np.eye(1)) == pytest.approx(1.4189385332046727, rel=1e-15)

    def test_scaled_identity(self):
        n = 4
        expected = 0.5 * n * LOG_2PIE + 0.5 * n * math.log(3.0)
        assert gaussian_entropy(3.0 * np.eye(n)) == pytest.approx(expected, rel=1e-14)

    def test_worked_example(self):
        p = gram(SS1_SPEC, SS1_GRID).values
        expected = 1.5 * LOG_2PIE + 0.5 * math.log(1.0 / 256.0)
        assert gaussian_entropy(p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.4842268773742372, abs=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            gaussian_entropy(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_not_finite(self):
        with pytest.raises(errors.InvalidParameter):
            gaussian_entropy(np.array([[float("nan")]]))


class TestRandomPositiveExtension:
    def setup_method(self):
        self.skel = band_project(gram(SS1_SPEC, SS1_GRID).values)

    def test_deterministic_given_seed(self):
        a = random_positive_extension(self.skel, seed=3)
        b = random_positive_extension(self.skel, seed=3)
        assert np.array_equal(a, b)
        c = random_positive_extension(self.skel, seed=4)
        assert not np.array_equal(a, c)

    def test_band_preserved_exactly_and_positive_definite(self):
        ext = random_positive_extension(self.skel, seed=0)
        np.testing.assert_array_equal(np.diag(ext), self.skel.diag)
        np.testing.assert_array_equal(np.diag(ext, 1), self.skel.offdiag)
        assert np.array_equal(ext, ext.T)
        oracle.dense_chol(ext)

    def test_negative_seed(self):
        for seed in (-3, True):
            with pytest.raises(errors.InvalidParameter, match="seed"):
                random_positive_extension(self.skel, seed=seed)

    def test_changes_the_free_entry(self):
        base = band_extend(self.skel)
        for seed in range(20):
            ext = random_positive_extension(self.skel, seed=seed)
            assert ext[0, 2] != base[0, 2]


class TestEntropyDominance:
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_completion_dominates_random_extensions(self, family):
        rng = np.random.default_rng(77)
        g = random_grid(rng, 6, inc_low=0.5, inc_high=1.5)
        spec = KernelSpec(family=family, c=1.3, beta=None if family == WIENER else 0.5)
        report = completion_entropy_audit(spec, g, seed=5, trials=100)
        assert report.dominance
        margins = report.reference_entropy - np.asarray(report.candidate_entropies)
        assert np.all(margins >= -ENTROPY_TOLERANCE)
        assert np.mean(margins >= 1e-6) >= 0.95

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_increment_laws_are_dominated(self, family):
        g = make_grid([0.5, 1.25, 2.0, 3.5])
        spec = KernelSpec(family=family, c=2.0, beta=None if family == WIENER else 0.8)
        report = increment_constrained_entropy_test(spec, g, seed=2, trials=100)
        assert report.dominance
        # First candidate is the identity correlation: same law, same entropy.
        assert report.candidate_entropies[0] == pytest.approx(report.reference_entropy, abs=1e-9)
        others = np.asarray(report.candidate_entropies[1:])
        assert np.all(others <= report.reference_entropy + ENTROPY_TOLERANCE)
        assert np.all(others < report.reference_entropy)

    def test_float_seed(self):
        with pytest.raises(errors.InvalidParameter, match="seed"):
            increment_constrained_entropy_test(SS1_SPEC, SS1_GRID, seed=1.5, trials=3)

    def test_trials_must_be_positive(self):
        for trials in (0, 2.5, True, "2"):
            with pytest.raises(errors.InvalidParameter):
                increment_constrained_entropy_test(SS1_SPEC, SS1_GRID, seed=0, trials=trials)
            with pytest.raises(errors.InvalidParameter):
                completion_entropy_audit(SS1_SPEC, SS1_GRID, seed=0, trials=trials)

    def test_negative_seed(self):
        for seed in (-1, np.int64(-5), True):
            with pytest.raises(errors.InvalidParameter, match="seed"):
                increment_constrained_entropy_test(SS1_SPEC, SS1_GRID, seed=seed, trials=3)
            with pytest.raises(errors.InvalidParameter, match="seed"):
                completion_entropy_audit(SS1_SPEC, SS1_GRID, seed=seed, trials=3)


class TestReport:
    def test_dominance_flag_uses_tolerance(self):
        ok = GaussianEntropyReport.from_entropies(1.0, [0.5, 1.0 + 0.5e-9])
        assert ok.dominance
        bad = GaussianEntropyReport.from_entropies(1.0, [0.5, 1.0 + 2e-9])
        assert not bad.dominance
        assert bad.max_excess == pytest.approx(2e-9)

    def test_to_dict_is_json_ready(self):
        d = GaussianEntropyReport.from_entropies(1.0, [0.5]).to_dict()
        assert d["dominance"] is True
        assert d["candidate_entropies"] == [0.5]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=-0.9, max_value=0.9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_completable_skeletons_extend_to_spd_with_tridiagonal_inverse(n, rho, seed):
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.1, 10.0, size=n)
    off = rho * np.sqrt(diag[:-1] * diag[1:])
    ext = band_extend(TridiagonalMatrix(diag=diag, offdiag=off))
    low = oracle.dense_chol(ext)
    assert np.all(np.diag(low) > 0)
    inv = oracle.dense_inverse(ext)
    beyond = np.triu(inv, k=2)
    assert np.max(np.abs(beyond)) <= 1e-8 * np.max(np.abs(inv))
