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
    maxent,
    oracle,
    random_positive_extension,
    sqrt_factor,
    uniform_grid,
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
            m[i, j] = m[i, j - 1] * (m[j - 1, j] / m[j - 1, j - 1])
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
        # o_0 / d_0 is past the float range; no overflow warning escapes.
        skel = TridiagonalMatrix(diag=np.array([1e-300, 1.0, 1.0]), offdiag=np.array([1e10, 0.2]))
        with pytest.raises(errors.NotCompletable):
            band_extend(skel)

    def test_small_diagonals_do_not_underflow(self):
        # The diagonal runs from 8e-40 down to 4e-196, so the product of two
        # neighbouring diagonal entries underflows: such a product made this
        # Gram band look not completable, and zeroed the fill-in.
        spec = KernelSpec(family=SS1, c=1.0, beta=1.0)
        g = uniform_grid(5, 90.0, 90.0)
        p = gram(spec, g).values
        assert np.max(np.abs(band_extend(band_project(p)) - p) / np.abs(p)) <= 1e-12
        for audit in (completion_entropy_audit, increment_constrained_entropy_test):
            report = audit(spec, g, seed=0, trials=20)
            assert report.dominance
            assert report.identity_residual <= 1e-10

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


def dvine_by_solve(band, partials):
    """The D-vine one entry at a time, each from solves over the window between the pair."""
    n = band.n
    m = np.diag(band.diag.astype(float))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = band.offdiag
    k = 0
    for lag in range(2, n):
        for i in range(n - lag):
            j = i + lag
            s = m[i + 1:j, i + 1:j]
            a, b = m[i, i + 1:j], m[j, i + 1:j]
            sa, sb = np.linalg.solve(s, a), np.linalg.solve(s, b)
            m[i, j] = m[j, i] = a @ sb + partials[k] * np.sqrt((m[i, i] - a @ sa) * (m[j, j] - b @ sb))
            k += 1
    return m


def kernel_band(family, n, seed):
    rng = np.random.default_rng(seed)
    return band_project(gram(random_spec(rng, family), random_grid(rng, n)).values)


class TestDVine:
    """Completions from out-of-band partial correlations by the lattice recursion."""

    @pytest.mark.parametrize("n", [3, 20, 40])
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_lattice_matches_the_per_entry_solve(self, family, n):
        band = kernel_band(family, n, n)
        partials = np.random.default_rng(n + 1).uniform(-0.3, 0.3, size=(4, (n - 1) * (n - 2) // 2))
        got = maxent._completions(band, partials)
        scale = np.sqrt(np.outer(band.diag, band.diag))
        for cand, row in zip(got, partials):
            assert np.max(np.abs(cand - dvine_by_solve(band, row)) / scale) <= 1e-12

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_zero_partials_give_the_completion(self, family):
        for n in (3, 20, 60):
            band = kernel_band(family, n, n)
            want = band_extend(band)
            got = maxent._completions(band, np.zeros((2, (n - 1) * (n - 2) // 2)))
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_band_is_bit_exact(self, family):
        for n in (3, 20, 60):
            band = kernel_band(family, n, n)
            for seed in (0, 1, (2, 3)):
                ext = random_positive_extension(band, seed)
                assert np.array_equal(np.diag(ext), band.diag)
                assert np.array_equal(np.diag(ext, 1), band.offdiag)
                assert np.array_equal(ext, ext.T)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_partials_near_one_stay_positive_definite(self, family):
        # All 1711 partials at +-0.999 at once would make det R 0.002^1711 times
        # the band's, far too small for any float64 matrix to stay positive
        # definite.  So each lag in turn gets +-0.999, the other lags zero.
        n = 60
        band = kernel_band(family, n, 60)
        rng = np.random.default_rng(61)
        start = 0
        for lag in range(2, n):
            partials = np.zeros((1, (n - 1) * (n - 2) // 2))
            partials[0, start:start + n - lag] = rng.choice([-0.999, 0.999], size=n - lag)
            start += n - lag
            oracle.dense_chol(maxent._completions(band, partials)[0])

    def test_band_correlation_rounding_to_one(self):
        # The first 2x2 minor 9 - o^2 is positive, but o / (sqrt(3) * sqrt(3))
        # rounds to 1.0.
        band = TridiagonalMatrix(diag=np.array([3.0, 3.0, 3.0]), offdiag=np.array([2.9999999999999996, 0.5]))
        ext = random_positive_extension(band, 0)
        assert np.all(np.isfinite(ext))
        assert np.array_equal(np.diag(ext, 1), band.offdiag)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_identity_residual(self, family):
        rng = np.random.default_rng(15)
        cases = [(random_spec(rng, family), random_grid(rng, 20)) for _ in range(3)]
        if family == SS1:
            # beta * t_n = 50: the Gram entries span e^0 to e^-50.
            cases.append((KernelSpec(family=SS1, c=0.7, beta=5.0), uniform_grid(20, 0.5, 0.5)))
        for spec, g in cases:
            report = completion_entropy_audit(spec, g, seed=9, trials=30)
            assert report.identity_residual <= 1e-10
            assert report.dominance
            band = band_project(gram(spec, g).values)
            size = (g.n - 1) * (g.n - 2) // 2
            gaps = [0.5 * np.sum(np.log1p(-maxent._partials(size, (9, k)) ** 2)) for k in range(30)]
            deficits = np.asarray(report.candidate_entropies) - report.reference_entropy
            assert report.identity_residual == pytest.approx(np.max(np.abs(deficits - gaps)), abs=1e-15)
            assert report.reference_entropy == gaussian_entropy(band_extend(band))

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_capped_run_matches_uncapped(self, family, monkeypatch):
        rng = np.random.default_rng(13)
        g = random_grid(rng, 20)
        spec = random_spec(rng, family)
        audits = (completion_entropy_audit, increment_constrained_entropy_test)
        wants = [audit(spec, g, seed=4, trials=20) for audit in audits]
        # 7 candidates leave three chunks, the last one short; 0 bytes, one per chunk.
        for cap in (7 * 20 * 20 * 8, 0):
            monkeypatch.setattr(maxent, "_CANDIDATE_BYTES", cap)
            for audit, want in zip(audits, wants):
                got = audit(spec, g, seed=4, trials=20)
                # Batched einsum and matmul are not bit-stable across batch shapes.
                np.testing.assert_allclose(got.candidate_entropies, want.candidate_entropies, rtol=1e-14)
                assert got.reference_entropy == want.reference_entropy

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_extension_is_the_audit_candidate(self, family):
        rng = np.random.default_rng(14)
        g = random_grid(rng, 20)
        spec = random_spec(rng, family)
        report = completion_entropy_audit(spec, g, seed=6, trials=10)
        band = band_project(gram(spec, g).values)
        got = [gaussian_entropy(random_positive_extension(band, (6, k))) for k in range(10)]
        np.testing.assert_allclose(got, report.candidate_entropies, rtol=1e-14)

    def test_partials_are_drawn_lag_by_lag_in_one_draw(self):
        band = kernel_band(SS1, 5, 0)
        ext = random_positive_extension(band, 8)
        partials = np.random.default_rng(8).uniform(-0.3, 0.3, size=6)
        # Lag 2 holds pairs (0, 2), (1, 3), (2, 4); lag 3 (0, 3), (1, 4); lag 4 (0, 4).
        np.testing.assert_allclose(ext, dvine_by_solve(band, partials), rtol=1e-13)


class TestIncrementLaw:
    """Increment candidates U C U', C a D-vine correlation matrix drawn from (seed, k)."""

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_candidates_are_dvine_correlations(self, family):
        rng = np.random.default_rng(16)
        n = 8
        spec, g = random_spec(rng, family), random_grid(rng, n)
        report = increment_constrained_entropy_test(spec, g, seed=11, trials=6)
        root = sqrt_factor(spec, g).to_dense()
        size = n * (n - 1) // 2
        for k, entropy in enumerate(report.candidate_entropies):
            partials = maxent._partials(size, (11, k)) if k else np.zeros(size)
            rho = partials[None, :n - 1]
            c = maxent._dvine(rho, (1.0 - rho) * (1.0 + rho), partials[None, n - 1:])[0]
            assert np.array_equal(np.diag(c), np.ones(n))
            assert np.array_equal(c, c.T)
            unit_band = TridiagonalMatrix(diag=np.ones(n), offdiag=partials[:n - 1])
            assert np.max(np.abs(c - dvine_by_solve(unit_band, partials[n - 1:]))) <= 1e-12
            assert entropy == pytest.approx(gaussian_entropy(root @ c @ root.T), rel=1e-14)
            if k == 0:
                assert np.array_equal(c, np.eye(n))

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_one_and_two_points(self, family):
        assert np.array_equal(maxent._dvine(np.zeros((3, 0)), np.ones((3, 0)), np.zeros((3, 0))), np.ones((3, 1, 1)))
        two = maxent._dvine(np.array([0.4]), np.array([0.84]), np.zeros((2, 0)))
        assert np.array_equal(two, np.array([[[1.0, 0.4], [0.4, 1.0]]] * 2))
        spec = KernelSpec(family=family, c=1.5, beta=None if family == WIENER else 0.7)
        one = increment_constrained_entropy_test(spec, make_grid([2.0]), seed=3, trials=4)
        # C is 1x1: every candidate is the kernel law.
        np.testing.assert_allclose(one.candidate_entropies, one.reference_entropy, rtol=1e-15)
        pair = increment_constrained_entropy_test(spec, make_grid([0.5, 2.0]), seed=3, trials=4)
        rho = np.array([maxent._partials(1, (3, k))[0] for k in range(1, 4)])
        deficits = np.asarray(pair.candidate_entropies[1:]) - pair.reference_entropy
        np.testing.assert_allclose(deficits, 0.5 * np.log1p(-rho * rho), rtol=1e-12)
        for report in (one, pair):
            assert report.dominance
            assert report.identity_residual <= 1e-14

    @pytest.mark.parametrize("n", [4, 20, 60])
    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_identity_residual(self, family, n):
        rng = np.random.default_rng(n)
        report = increment_constrained_entropy_test(random_spec(rng, family), random_grid(rng, n), seed=5, trials=30)
        assert report.dominance
        assert report.identity_residual <= 1e-10


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
        # Each deficit is 1/2 ln det C, up to the dense entropies' rounding.
        assert report.identity_residual <= 1e-10
        # First candidate is the identity correlation: same law, same entropy.
        assert report.candidate_entropies[0] == pytest.approx(report.reference_entropy, abs=1e-9)
        others = np.asarray(report.candidate_entropies[1:])
        assert np.all(others <= report.reference_entropy + ENTROPY_TOLERANCE)
        assert np.all(others < report.reference_entropy)

    def test_near_singular_correlation_is_redrawn(self):
        # When C was the Gram matrix of random unit rows, trial 46 of this seed
        # drew a C so close to singular that its candidate had no Cholesky
        # factor in floating point.  A D-vine C with partials in (-0.3, 0.3)
        # is well conditioned, so every candidate has one.
        times = [1.26, 2.26, 3.37, 4.42, 5.77, 6.92, 7.48, 7.85, 9.07, 9.49,
                 10.88, 11.0, 12.33, 12.47, 13.68, 14.84, 14.98, 16.28, 16.69, 17.22]
        spec = KernelSpec(family=WIENER, c=9.634590487177686)
        report = increment_constrained_entropy_test(spec, make_grid(times), seed=1057115397, trials=47)
        assert report.dominance
        assert np.all(np.isfinite(report.candidate_entropies))

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
        ok = GaussianEntropyReport.from_entropies(1.0, [0.5, 1.0 + 0.5e-9], gaps=[-0.5, 0.0])
        assert ok.dominance
        bad = GaussianEntropyReport.from_entropies(1.0, [0.5, 1.0 + 2e-9], gaps=[-0.5, 0.0])
        assert not bad.dominance
        assert bad.max_excess == pytest.approx(2e-9)

    def test_to_dict_is_json_ready(self):
        d = GaussianEntropyReport.from_entropies(1.0, [0.5], gaps=[-0.5]).to_dict()
        assert d["dominance"] is True
        assert d["candidate_entropies"] == [0.5]
        assert d["identity_residual"] == 0.0

    def test_identity_residual_is_the_largest_gap_miss(self):
        report = GaussianEntropyReport.from_entropies(1.0, [0.5, 0.25, 1.0], gaps=[-0.5, -0.5, 0.0])
        assert report.identity_residual == 0.25
        assert report.to_dict()["identity_residual"] == 0.25
        with pytest.raises(ValueError):
            GaussianEntropyReport.from_entropies(1.0, [0.5, 0.25], gaps=[-0.5])


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


class TestNonNumericMatrices:
    """Matrices that are not real raise InvalidParameter, not numpy's ValueError or a ComplexWarning."""

    def test_string_matrix_to_band_project(self):
        with pytest.raises(errors.InvalidParameter, match="must be real numbers"):
            band_project([["a"]])

    def test_string_covariance_to_gaussian_entropy(self):
        with pytest.raises(errors.InvalidParameter, match="must be real numbers"):
            gaussian_entropy([["a"]])

    @pytest.mark.filterwarnings("error")
    def test_complex_matrix_to_band_project(self):
        # It dropped the imaginary part behind numpy's ComplexWarning.
        with pytest.raises(errors.InvalidParameter, match="must be real numbers"):
            band_project(np.eye(3) * (1 + 1j))

    def test_column_diagonal_band_to_band_extend(self):
        with pytest.raises(errors.DimensionMismatch):
            band_extend(TridiagonalMatrix(np.ones((3, 1)), np.ones(2)))
