import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablekern import (
    SS1,
    WIENER,
    KernelSpec,
    errors,
    gram,
    kernel_eval,
    make_grid,
    oracle,
    read_kernel_file,
    stable_increments,
    uniform_grid,
)

from helpers import random_grid, random_spec

LN2 = math.log(2.0)


class TestKernelSpec:
    def test_wiener_needs_no_beta(self):
        spec = KernelSpec(family=WIENER, c=2.0)
        assert spec.beta is None

    def test_zero_scale_rejected(self):
        with pytest.raises(errors.InvalidParameter):
            KernelSpec(family=WIENER, c=0.0)

    @pytest.mark.parametrize("c", [-1.0, float("nan"), float("inf"), True, "1.0",
                                   pytest.param(10**400, id="int-beyond-float-range")])
    def test_bad_scale_rejected(self, c):
        with pytest.raises(errors.InvalidParameter):
            KernelSpec(family=SS1, c=c, beta=1.0)

    def test_unknown_family(self):
        with pytest.raises(errors.InvalidParameter):
            KernelSpec(family="brownian", c=1.0)

    def test_ss1_requires_beta(self):
        with pytest.raises(errors.InvalidParameter):
            KernelSpec(family=SS1, c=1.0)
        for beta in (0.0, True, "0.5"):
            with pytest.raises(errors.InvalidParameter):
                KernelSpec(family=SS1, c=1.0, beta=beta)

    def test_wiener_rejects_beta(self):
        with pytest.raises(errors.InvalidParameter):
            KernelSpec(family=WIENER, c=1.0, beta=1.0)

    def test_dict_roundtrip(self):
        spec = KernelSpec(family=SS1, c=1.0, beta=LN2)
        assert KernelSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"family": "ss1", "c": 1.0, "beta": LN2}

    @pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.int32, np.int64])
    def test_numpy_hyperparameters_are_stored_as_float(self, kind):
        # A float32 scale used to leak into kernel_eval: np.float32(0.1), 7 digits.
        value = kind(0.1) if np.issubdtype(kind, np.floating) else kind(3)
        wiener = KernelSpec(family=WIENER, c=value)
        ss1 = KernelSpec(family=SS1, c=value, beta=value)
        assert type(wiener.c) is float and type(ss1.c) is float and type(ss1.beta) is float
        assert wiener.c == ss1.beta == float(value)
        got = kernel_eval(wiener, 1.0, 2.0)
        assert type(got) is float and got == float(value)
        got = kernel_eval(ss1, 1.0, 2.0)
        assert type(got) is float
        assert got == kernel_eval(KernelSpec(family=SS1, c=float(value), beta=float(value)), 1.0, 2.0)
        assert json.dumps(ss1.to_dict()) == json.dumps({"family": "ss1", "c": float(value), "beta": float(value)})
        assert json.dumps(wiener.to_dict()) == json.dumps({"family": "wiener", "c": float(value)})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(errors.InvalidParameter):
            KernelSpec.from_dict({"family": "ss1", "c": 1.0, "beta": 1.0, "gamma": 2.0})

    def test_read_kernel_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": "ss1", "c": 1.0, "beta": 0.693147}))
        spec = read_kernel_file(path)
        assert spec == KernelSpec(family=SS1, c=1.0, beta=0.693147)

    def test_read_kernel_file_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(errors.InvalidParameter):
            read_kernel_file(path)


class TestKernelEval:
    def test_wiener_is_scaled_min(self):
        assert kernel_eval(KernelSpec(family=WIENER, c=1.0), 2.0, 4.0) == 2.0
        assert kernel_eval(KernelSpec(family=WIENER, c=3.0), 5.0, 1.5) == 4.5

    def test_ss1_is_scaled_exponential_of_max(self):
        spec = KernelSpec(family=SS1, c=1.0, beta=LN2)
        assert kernel_eval(spec, 1.0, 3.0) == pytest.approx(0.125, rel=1e-15)
        spec3 = KernelSpec(family=SS1, c=3.0, beta=LN2)
        assert kernel_eval(spec3, 2.0, 2.0) == pytest.approx(0.75, rel=1e-15)

    def test_symmetry_is_exact(self):
        spec = KernelSpec(family=SS1, c=1.7, beta=0.3)
        assert kernel_eval(spec, 1.2, 5.9) == kernel_eval(spec, 5.9, 1.2)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_bad_times(self, family):
        spec = KernelSpec(family=family, c=1.0, beta=None if family == WIENER else LN2)
        for t, s in ((-1.0, 2.0), (2.0, -0.5)):
            with pytest.raises(errors.NegativeTime):
                kernel_eval(spec, t, s)
        for t, s in ((float("nan"), 1.0), (1.0, float("inf")), (float("nan"), float("nan"))):
            with pytest.raises(errors.InvalidParameter):
                kernel_eval(spec, t, s)
        # Not numbers, whatever float() makes of them; 10**400 overflows a float.
        for bad in ("2.0", True, False, "abc", None, [1.0], np.array(1.0), 10**400):
            for t, s in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(errors.InvalidParameter, match="real times"):
                    kernel_eval(spec, t, s)

    @pytest.mark.parametrize("family", [WIENER, SS1])
    def test_numpy_and_integer_times(self, family):
        spec = KernelSpec(family=family, c=1.0, beta=None if family == WIENER else LN2)
        want = kernel_eval(spec, 2.0, 3.0)
        assert kernel_eval(spec, 2, 3) == want
        assert kernel_eval(spec, np.int64(2), np.float64(3.0)) == want
        assert kernel_eval(spec, np.float32(2.0), 3.0) == want


class TestGram:
    def test_ss1_worked_example(self):
        spec = KernelSpec(family=SS1, c=1.0, beta=LN2)
        p = gram(spec, make_grid([1.0, 2.0, 3.0])).values
        expected = [[0.5, 0.25, 0.125], [0.25, 0.25, 0.125], [0.125, 0.125, 0.125]]
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_wiener_worked_example(self):
        p = gram(KernelSpec(family=WIENER, c=1.0), make_grid([1.0, 2.0, 4.0])).values
        np.testing.assert_array_equal(p, [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 4.0]])

    def test_entries_match_kernel_eval(self):
        rng = np.random.default_rng(42)
        g = random_grid(rng, 6)
        for family in (WIENER, SS1):
            spec = random_spec(rng, family)
            p = gram(spec, g).values
            for i in range(6):
                for j in range(6):
                    assert p[i, j] == pytest.approx(kernel_eval(spec, g.times[i], g.times[j]), rel=1e-15)

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(7)
        g = random_grid(rng, 20)
        for family in (WIENER, SS1):
            p = gram(random_spec(rng, family), g).values
            assert np.array_equal(p, p.T)

    def test_scaling_is_exact(self):
        g = make_grid([0.4, 1.1, 2.9, 3.3])
        base = gram(KernelSpec(family=SS1, c=1.0, beta=0.8), g).values
        scaled = gram(KernelSpec(family=SS1, c=3.5, beta=0.8), g).values
        assert np.array_equal(scaled, 3.5 * base)

    def test_wiener_zero_start_is_singular(self):
        with pytest.raises(errors.SingularGram):
            gram(KernelSpec(family=WIENER, c=1.0), make_grid([0.0, 1.0]))

    def test_ss1_clock_below_the_float_range_is_singular(self):
        # exp(-1000) underflows to 0: the last row and column would vanish.
        with pytest.raises(errors.SingularGram):
            gram(KernelSpec(family=SS1, c=1.0, beta=1.0), uniform_grid(10, 100.0, 100.0))

    def test_ss1_allows_zero_start(self):
        p = gram(KernelSpec(family=SS1, c=2.0, beta=1.0), make_grid([0.0, 1.0])).values
        assert p[0, 0] == 2.0

    def test_positive_definite_on_random_grids(self):
        rng = np.random.default_rng(3)
        for family in (WIENER, SS1):
            p = gram(random_spec(rng, family), random_grid(rng, 50)).values
            low = oracle.dense_chol(p)
            assert np.all(np.diag(low) > 0)

    def test_values_read_only(self):
        p = gram(KernelSpec(family=WIENER, c=1.0), make_grid([1.0, 2.0])).values
        with pytest.raises(ValueError):
            p[0, 0] = 9.0


class TestStableIncrements:
    def test_worked_example(self):
        d = stable_increments(make_grid([1.0, 2.0, 3.0]), LN2)
        np.testing.assert_allclose(d, [0.25, 0.125, 0.125], rtol=1e-15)

    def test_single_point_keeps_virtual_tail(self):
        d = stable_increments(make_grid([1.0]), LN2)
        np.testing.assert_allclose(d, [0.5], rtol=1e-15)

    def test_tiny_beta_matches_extended_precision(self):
        # Frozen from a 60-digit evaluation of exp(-1e-8) - exp(-2e-8) and
        # exp(-2e-8); the direct subtraction loses half its digits here.
        d = stable_increments(make_grid([1.0, 2.0]), 1e-8)
        assert d[0] == pytest.approx(9.999999850000001e-09, rel=1e-12)
        assert d[1] == pytest.approx(0.9999999800000002, rel=1e-14)

    def test_increments_telescope_to_first_exponential(self):
        rng = np.random.default_rng(11)
        g = random_grid(rng, 30)
        beta = 0.7
        d = stable_increments(g, beta)
        assert np.all(d > 0)
        assert np.sum(d) == pytest.approx(math.exp(-beta * g.times[0]), rel=1e-14)

    def test_bad_beta(self):
        g = make_grid([1.0, 2.0])
        for beta in (0.0, -1.0, float("nan"), True, "0.5"):
            with pytest.raises(errors.InvalidParameter):
                stable_increments(g, beta)


@given(
    st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=20, unique=True),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_stable_increments_positive_and_telescoping(times, beta):
    g = make_grid(sorted(times))
    d = stable_increments(g, beta)
    assert np.all(d > 0)
    assert np.sum(d) == pytest.approx(math.exp(-beta * g.times[0]), rel=1e-12)
