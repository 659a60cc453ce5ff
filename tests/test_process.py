import hashlib
import math
import warnings

import numpy as np
import pytest

from stablekern import (
    NOISE_ALGORITHM,
    SS1,
    WIENER,
    KernelSpec,
    PathSet,
    WhiteNoiseSource,
    audit_constraints,
    errors,
    gram,
    make_grid,
    sample_ss1,
    sample_wiener,
    stable_time_transform,
    uniform_grid,
)

from helpers import inverse_cdf_paths

LN2 = math.log(2.0)
GRID = make_grid([0.5, 1.0, 2.0, 3.5])


def empirical_cov(paths):
    return paths.T @ paths / paths.shape[0]


def cov_tolerance(target, p, z=5.0):
    d = np.diag(target)
    return z * np.sqrt((np.outer(d, d) + target**2) / p)


class TestWhiteNoiseSource:
    def test_reproducible(self):
        a = WhiteNoiseSource(seed=11).draw((3, 4))
        b = WhiteNoiseSource(seed=11).draw((3, 4))
        assert np.array_equal(a, b)

    def test_seed_matters(self):
        a = WhiteNoiseSource(seed=1).draw(1000)
        b = WhiteNoiseSource(seed=2).draw(1000)
        assert not np.array_equal(a, b)

    def test_variance_scaling(self):
        a = WhiteNoiseSource(seed=5, variance=1.0).draw(100)
        b = WhiteNoiseSource(seed=5, variance=4.0).draw(100)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-15)

    def test_moments(self):
        x = WhiteNoiseSource(seed=0, variance=2.5).draw(200_000)
        assert abs(x.mean()) < 5 * math.sqrt(2.5 / x.size)
        assert abs(x.var() - 2.5) < 5 * 2.5 * math.sqrt(2.0 / x.size)

    def test_bad_variance(self):
        for v in (0.0, -1.0, float("nan"), float("inf"), True, "1.0"):
            with pytest.raises(errors.InvalidParameter):
                WhiteNoiseSource(seed=0, variance=v)

    def test_negative_seed(self):
        for seed in (-1, np.int64(-5), True):
            with pytest.raises(errors.InvalidParameter, match="seed"):
                WhiteNoiseSource(seed=seed)
        for seed in (-1, True):
            with pytest.raises(errors.InvalidParameter, match="seed"):
                sample_wiener(GRID, c=1.0, seed=seed, p=2)
            with pytest.raises(errors.InvalidParameter, match="seed"):
                sample_ss1(GRID, c=1.0, beta=LN2, seed=seed, p=2)

    def test_non_integer_seed(self):
        for seed in (1.5, "7", None, (3, -1), (2, 0.5), (1, False)):
            with pytest.raises(errors.InvalidParameter, match="seed"):
                WhiteNoiseSource(seed=seed)

    def test_string_seed_draw(self):
        with pytest.raises(errors.InvalidParameter, match="seed"):
            WhiteNoiseSource(seed="7").draw(2)

    def test_tuple_seeds_are_accepted(self):
        a = WhiteNoiseSource(seed=(4, np.int64(2))).draw(5)
        assert np.array_equal(a, WhiteNoiseSource(seed=(4, 2)).draw(5))

    def test_algorithm_id(self):
        assert NOISE_ALGORITHM == "pcg64-ziggurat"


class TestInverseCdfPaths:
    """The test-side copy of the inverse-CDF sampler draws what that sampler drew.

    The digest was recorded while ``sample`` was the inverse-CDF sampler,
    and the helper then matched it bit for bit on every case below: the true
    responses of the committed refined-fit problems (SS-1 c = 2, beta = 0.3
    on 50 points and beta = 0.4 on 10, seeds 0-2) and 120 paths of each
    family on the golden-bytes grid.
    """

    DIGEST = "dd48201256748cabb837af1c547c55aff5f8c0d7c532b3dac459818cd0eeac6e"

    def test_draws_are_pinned(self):
        golden = make_grid([0.3, 0.75, 1.2, 2.05, 2.5, 3.9, 4.0, 5.25])
        cases = [(KernelSpec(family=SS1, c=2.0, beta=beta), uniform_grid(n, 1.0, 1.0), seed, 1)
                 for beta, n in ((0.3, 50), (0.4, 10)) for seed in (0, 1, 2)]
        cases += [(KernelSpec(family=WIENER, c=2.2), golden, 7, 120),
                  (KernelSpec(family=SS1, c=1.3, beta=0.45), golden, 7, 120)]
        digest = hashlib.sha256()
        for spec, grid, seed, p in cases:
            digest.update(inverse_cdf_paths(spec, grid, seed, p).paths.tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestPathSet:
    def test_shape_check(self):
        with pytest.raises(errors.DimensionMismatch):
            PathSet(grid=GRID, paths=np.zeros((3, GRID.n + 1)))
        with pytest.raises(errors.DimensionMismatch):
            PathSet(grid=GRID, paths=np.zeros(GRID.n))

    def test_p_property(self):
        ps = PathSet(grid=GRID, paths=np.zeros((7, GRID.n)))
        assert ps.p == 7
        assert "p=7" in repr(ps)


class TestSamplers:
    def test_wiener_deterministic(self):
        a = sample_wiener(GRID, c=1.5, seed=42, p=8)
        b = sample_wiener(GRID, c=1.5, seed=42, p=8)
        assert np.array_equal(a.paths, b.paths)
        assert a.paths.shape == (8, GRID.n)

    def test_ss1_deterministic(self):
        a = sample_ss1(GRID, c=1.5, beta=0.7, seed=42, p=8)
        b = sample_ss1(GRID, c=1.5, beta=0.7, seed=42, p=8)
        assert np.array_equal(a.paths, b.paths)

    def test_argument_validation(self):
        with pytest.raises(errors.InvalidParameter):
            sample_wiener(GRID, c=0.0, seed=0, p=10)
        for p in (0, 2.5, True, "2"):
            with pytest.raises(errors.InvalidParameter):
                sample_wiener(GRID, c=1.0, seed=0, p=p)
        with pytest.raises(errors.InvalidParameter):
            sample_ss1(GRID, c=1.0, beta=float("nan"), seed=0, p=10)

    def test_wiener_covariance(self):
        p = 40_000
        spec = KernelSpec(family=WIENER, c=2.0)
        target = gram(spec, GRID).values
        ps = sample_wiener(GRID, c=2.0, seed=101, p=p)
        emp = empirical_cov(ps.paths)
        assert np.all(np.abs(emp - target) <= cov_tolerance(target, p))

    def test_ss1_covariance(self):
        p = 40_000
        spec = KernelSpec(family=SS1, c=2.0, beta=0.7)
        target = gram(spec, GRID).values
        ps = sample_ss1(GRID, c=2.0, beta=0.7, seed=102, p=p)
        emp = empirical_cov(ps.paths)
        assert np.all(np.abs(emp - target) <= cov_tolerance(target, p))


    def test_float_seed_is_a_domain_error(self):
        with pytest.raises(errors.InvalidParameter, match="seed"):
            sample_wiener(GRID, 1.0, 1.5, 2)

    def test_wiener_zero_start_samples_a_pinned_origin(self):
        paths = sample_wiener(make_grid([0.0, 1.0, 2.0]), c=1.0, seed=3, p=4).paths
        assert np.all(paths[:, 0] == 0.0)
        assert np.all(paths[:, 1:] != 0.0)


class TestTimeTransform:
    def test_transformed_grid_values(self):
        tf = stable_time_transform(make_grid([1.0, 2.0, 3.0]), beta=LN2)
        np.testing.assert_allclose(tf.tau.times, [0.125, 0.25, 0.5], rtol=1e-15)
        np.testing.assert_array_equal(tf.reversal, [2, 1, 0])

    def test_reversed_wiener_matches_ss1_law(self):
        p = 40_000
        beta = 0.7
        spec = KernelSpec(family=SS1, c=2.0, beta=beta)
        target = gram(spec, GRID).values
        tf = stable_time_transform(GRID, beta=beta)
        on_tau = sample_wiener(tf.tau, c=2.0, seed=103, p=p)
        ps = tf.reverse_paths(on_tau)
        assert ps.grid == GRID
        emp = empirical_cov(ps.paths)
        assert np.all(np.abs(emp - target) <= cov_tolerance(target, p))

    def test_reverse_rejects_foreign_paths(self):
        tf = stable_time_transform(GRID, beta=0.7)
        direct = sample_ss1(GRID, c=1.0, beta=0.7, seed=0, p=5)
        with pytest.raises(errors.DimensionMismatch):
            tf.reverse_paths(direct)

    def test_bad_beta(self):
        for beta in (0.0, -1.0, True, "0.7"):
            with pytest.raises(errors.InvalidParameter):
                stable_time_transform(GRID, beta=beta)

    def test_underflowing_transform(self):
        with pytest.raises(errors.InvalidParameter):
            stable_time_transform(make_grid([1.0, 2.0]), beta=1000.0)
        # beta*t_n = 1e310 overflows before the exponential underflows.
        with pytest.raises(errors.InvalidParameter):
            stable_time_transform(make_grid([1.0, 1e10]), beta=1e300)


class TestAudit:
    def test_matched_wiener_passes(self):
        spec = KernelSpec(family=WIENER, c=1.5)
        ps = sample_wiener(GRID, c=1.5, seed=7, p=5000)
        report = audit_constraints(ps, spec)
        assert report.ok
        assert report.max_abs_z < 5.0
        assert report.family == WIENER
        assert report.n_paths == 5000
        assert len(report.checks) == GRID.n

    def test_matched_ss1_passes(self):
        spec = KernelSpec(family=SS1, c=1.5, beta=0.7)
        ps = sample_ss1(GRID, c=1.5, beta=0.7, seed=8, p=5000)
        report = audit_constraints(ps, spec)
        assert report.ok

    def test_wrong_scale_is_flagged(self):
        ps = sample_wiener(GRID, c=1.0, seed=9, p=5000)
        report = audit_constraints(ps, KernelSpec(family=WIENER, c=4.0))
        assert not report.ok
        assert report.max_abs_z > 20.0
        assert any(c.flagged for c in report.checks)

    def test_wrong_family_is_flagged(self):
        ps = sample_wiener(GRID, c=1.0, seed=10, p=5000)
        report = audit_constraints(ps, KernelSpec(family=SS1, c=1.0, beta=0.7))
        assert not report.ok

    def test_too_few_paths(self):
        ps = sample_wiener(GRID, c=1.0, seed=0, p=99)
        with pytest.raises(errors.TooFewPaths):
            audit_constraints(ps, KernelSpec(family=WIENER, c=1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e300])
    def test_non_finite_paths(self, bad):
        ps = sample_wiener(GRID, c=1.0, seed=0, p=200)
        ps.paths[17, 1] = bad
        with pytest.raises(errors.InvalidParameter, match="finite"):
            audit_constraints(ps, KernelSpec(family=WIENER, c=1.0))

    def test_target_beyond_the_float_range(self):
        # c*delta = 1e300 * 1e10 overflows, with finite, small paths; it
        # printed numpy's overflow warning before.  Warnings are errors here
        # under any runner.
        ps = PathSet(grid=make_grid([1e10, 2e10]), paths=np.ones((200, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.SingularGram, match="variance target c\\*delta leaves the float range"):
                audit_constraints(ps, KernelSpec(family=WIENER, c=1e300))
            report = audit_constraints(ps, KernelSpec(family=WIENER, c=1.7e298))
        assert [c.variance_target for c in report.checks] == [1.7e308, 1.7e308]

    def test_zero_standard_error_keeps_the_sign(self):
        # Wiener t1 = 0: the first increment's target variance, so its standard error, is 0.
        paths = np.random.default_rng(0).standard_normal((200, 3))
        paths[:, 0] = -1.0
        report = audit_constraints(PathSet(grid=make_grid([0.0, 1.0, 2.0]), paths=paths),
                                   KernelSpec(family=WIENER, c=1.0))
        first = report.checks[0]
        assert (first.mean, first.mean_se, first.mean_z) == (-1.0, 0.0, -math.inf)
        assert first.flagged and report.max_abs_z == math.inf

    def test_report_to_dict(self):
        ps = sample_wiener(GRID, c=1.0, seed=0, p=200)
        d = audit_constraints(ps, KernelSpec(family=WIENER, c=1.0)).to_dict()
        assert set(d) == {"family", "n_paths", "checks", "max_abs_z", "ok"}
        assert d["checks"][0]["index"] == 1
        assert isinstance(d["ok"], bool)


class TestNonNumericPaths:
    """Paths that are not real numbers raise InvalidParameter, not AttributeError or UFuncTypeError."""

    def test_path_set_from_lists(self):
        grid = make_grid([1.0, 2.0, 3.0])
        ps = PathSet(grid, [[1.0, 2.0, 3.0]])
        assert ps.paths.dtype == np.float64 and ps.p == 1

    def test_string_paths_to_audit_constraints(self):
        grid = make_grid([1.0, 2.0, 3.0])
        with pytest.raises(errors.InvalidParameter, match="paths must be real numbers"):
            audit_constraints(PathSet(grid, np.full((100, 3), "1.0")), KernelSpec(family=WIENER, c=1.0))

    def test_sampled_paths_are_kept_not_copied(self):
        ps = sample_wiener(GRID, 1.0, 3, 4)
        assert PathSet(GRID, ps.paths).paths is ps.paths
