import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablekern import (SS1, WIENER, KernelSpec, SamplingGrid, closed_form_inverse, errors, log_det, make_grid,
                        read_grid_file, uniform_grid)


class TestMakeGrid:
    def test_accepts_strictly_increasing_times(self):
        g = make_grid([0.0, 0.5, 1.25])
        assert g.n == 3
        assert len(g) == 3
        np.testing.assert_array_equal(g.times, [0.0, 0.5, 1.25])

    def test_single_point(self):
        assert make_grid([2.0]).n == 1

    def test_times_are_read_only(self):
        g = make_grid([1.0, 2.0])
        with pytest.raises(ValueError):
            g.times[0] = 5.0

    def test_roundtrip_equality(self):
        g = make_grid([0.5, 1.5, 4.0])
        assert make_grid(g.times) == g
        assert g != make_grid([0.5, 1.5, 4.0001])

    def test_empty(self):
        with pytest.raises(errors.Empty):
            make_grid([])

    def test_negative_time(self):
        with pytest.raises(errors.NegativeTime):
            make_grid([-1.0, 2.0])
        with pytest.raises(errors.NegativeTime):
            make_grid([3.0, -1.0])

    def test_non_increasing(self):
        with pytest.raises(errors.NonIncreasing):
            make_grid([2.0, 1.0])

    def test_exact_duplicates_rejected(self):
        with pytest.raises(errors.NonIncreasing):
            make_grid([1.0, 1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(errors.InvalidParameter):
            make_grid([1.0, float("nan")])
        with pytest.raises(errors.InvalidParameter):
            make_grid([1.0, float("inf")])


class TestUniformGrid:
    def test_formula(self):
        g = uniform_grid(3, 0.5, 1.0)
        np.testing.assert_array_equal(g.times, [1.0, 1.5, 2.0])

    def test_single_point(self):
        np.testing.assert_array_equal(uniform_grid(1, 1.0, 3.0).times, [3.0])

    @pytest.mark.parametrize("n,delta,t_start", [(0, 1.0, 1.0), (2.5, 1.0, 1.0), (True, 1.0, 1.0), ("3", 1.0, 1.0),
                                                (3, 0.0, 1.0), (3, -1.0, 1.0), (3, 1.0, 0.0), (3, 1.0, -2.0),
                                                (3, "0.5", 1.0), (3, True, 1.0), (3, 1.0, "1"), (3, 1.0, True),
                                                (3, float("nan"), 1.0), (3, 1.0, float("inf"))])
    def test_invalid_parameters(self, n, delta, t_start):
        with pytest.raises(errors.InvalidParameter):
            uniform_grid(n, delta, t_start)

    @pytest.mark.parametrize("n,delta,t_start", [(10, 1e308, 1e308), (3, float("inf"), 1.0),
                                                (3, 10**400, 1.0), (3, 1.0, 10**400)])
    def test_non_finite_times_raise_without_a_warning(self, n, delta, t_start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InvalidParameter, match="finite"):
                uniform_grid(n, delta, t_start)


class TestGridFile:
    def test_reads_times_ignoring_comments(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("# a comment\n1.0\n2.5  # trailing comment\n\n4.0\n")
        g = read_grid_file(path)
        np.testing.assert_array_equal(g.times, [1.0, 2.5, 4.0])

    def test_bad_line(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(errors.InvalidParameter):
            read_grid_file(path)

    def test_only_comments_is_empty(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(errors.Empty):
            read_grid_file(path)


@given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=30, unique=True))
def test_sorted_unique_positive_times_always_make_a_grid(times):
    g = make_grid(sorted(times))
    assert g.n == len(times)
    assert np.all(np.diff(g.times) > 0)


class TestNonNumericTimes:
    """Times that are not real numbers raise InvalidParameter, not numpy's ValueError or TypeError."""

    def test_string_times(self):
        with pytest.raises(errors.InvalidParameter, match="grid times must be real numbers"):
            make_grid(["a"])

    def test_complex_times(self):
        with pytest.raises(errors.InvalidParameter, match="grid times must be real numbers"):
            make_grid([1j])

    def test_ragged_or_missing_times(self):
        for times in ([[1.0, 2.0], [3.0]], [1.0, None], ["1.0"], [10**400]):
            with pytest.raises(errors.InvalidParameter):
                make_grid(times)

    def test_integer_and_object_times_convert(self):
        assert make_grid([1, 2, 3]) == make_grid(np.array([1.0, 2.0, 3.0], dtype=object))


# Every input of TestMakeGrid and TestNonNumericTimes, then unsorted, 2-D and
# negative times.
GRID_INPUTS = [[0.0, 0.5, 1.25], [2.0], [1.0, 2.0], [0.5, 1.5, 4.0], [0.5, 1.5, 4.0001], [], [-1.0, 2.0],
               [3.0, -1.0], [2.0, 1.0], [1.0, 1.0, 2.0], [1.0, float("nan")], [1.0, float("inf")], ["a"], [1j],
               [[1.0, 2.0], [3.0]], [1.0, None], ["1.0"], [10**400], [1, 2, 3],
               np.array([1.0, 2.0, 3.0], dtype=object), [3.0, 1.0, 2.0], np.array([[2.0, 3.0]]),
               np.array([-1.0, 0.5])]


def outcome(build, times):
    """The grid's times and their flags, or the error's type and message."""
    try:
        g = build(times)
    except errors.StableKernError as exc:
        return type(exc), str(exc)
    return g.times.dtype, g.times.tobytes(), g.times.flags.writeable, g.times.flags.owndata


class TestHandBuiltGrids:
    """``SamplingGrid(times)`` obeys the grid rules as ``make_grid`` does."""

    @pytest.mark.parametrize("times", GRID_INPUTS, ids=[repr(t)[:40] for t in GRID_INPUTS])
    def test_the_constructor_checks_as_make_grid_does(self, times):
        assert outcome(SamplingGrid, times) == outcome(make_grid, times)

    @pytest.mark.parametrize("times,error", [([3.0, 1.0, 2.0], errors.NonIncreasing),
                                             (np.array([-1.0, 0.5]), errors.NegativeTime),
                                             (np.array([1.0, float("nan")]), errors.InvalidParameter)])
    @pytest.mark.parametrize("spec", [KernelSpec(family=WIENER, c=1.0), KernelSpec(family=SS1, c=1.0, beta=0.5)],
                             ids=[WIENER, SS1])
    def test_bad_times_raise_the_grid_error(self, times, error, spec):
        # They raised AttributeError, returned a log-det or raised SingularGram.
        with pytest.raises(error):
            log_det(spec, SamplingGrid(times))

    def test_a_row_of_times_is_flattened(self):
        # It raised TypeError.
        spec = KernelSpec(family=SS1, c=1.0, beta=0.5)
        assert log_det(spec, SamplingGrid(np.array([[2.0, 3.0]]))) == log_det(spec, make_grid([2.0, 3.0]))

    def test_copies_and_pickles_carry_the_times_only(self):
        g = make_grid(np.linspace(0.5, 50.0, 10**4))
        closed_form_inverse(KernelSpec(family=SS1, c=1.0, beta=0.5), g)
        assert g._chain is not None
        blob = pickle.dumps(g)
        assert len(blob) < g.times.nbytes + 1024  # the chain's three n-arrays would quadruple it
        for h in (pickle.loads(blob), copy.deepcopy(g), copy.copy(g)):
            assert h == g and h._chain is None
            assert not h.times.flags.writeable and h.times.flags.owndata

    def test_repr_prints_python_floats(self):
        assert repr(make_grid([1, 2.5, 3])) == "SamplingGrid(n=3, t1=1.0, tn=3.0)"
