"""Structured covariance kernels on time grids.

Wiener and first-order stable-spline (SS-1) kernels with closed-form
inverses, determinants and factorizations, maximum-entropy audits,
exact process samplers, and a kernel-regularized FIR estimator whose
linear algebra runs at the FIR order rather than the data length.

The package needs numpy and nothing else at runtime: the samplers draw
their normals with numpy's generator, and the estimator's linear algebra
and simplex are numpy too.

Each module's ``__all__`` is the one declaration of its public names;
the package exports them all, in module order.
"""

from . import errors, grid, kernels, structure, maxent, process, estimator
from .errors import *
from .grid import *
from .kernels import *
from .structure import *
from .maxent import *
from .process import *
from .estimator import *

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, grid, kernels, structure, maxent, process, estimator):
    __all__ += _module.__all__
del _module
