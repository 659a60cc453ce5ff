"""The README's library example runs and returns the values its comments state."""

import math
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M).group(1)
    names = {}
    exec(block, names)
    np.testing.assert_array_max_ulp(names["p"], [[1 / 2, 1 / 4, 1 / 8], [1 / 4, 1 / 4, 1 / 8], [1 / 8, 1 / 8, 1 / 8]],
                                    maxulp=2)
    np.testing.assert_array_max_ulp(names["tri"].diag, [4.0, 12.0, 16.0], maxulp=2)
    np.testing.assert_array_max_ulp(names["tri"].offdiag, [-4.0, -8.0], maxulp=2)
    assert abs(names["ld"] - math.log(1 / 256)) <= math.ulp(math.log(1 / 256))
    np.testing.assert_allclose(names["x"], [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert names["paths"].shape == (10_000, 3)
