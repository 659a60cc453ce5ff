"""Every name a library module imports is used in that module, every
private module-level name is read somewhere in the package, every name a
module exports exists, the package exports exactly the modules' names,
no library module reaches into numpy's private modules or names, no
library module or test file imports scipy, only the chain core reads the
chain's kernel family, only the likelihood evaluator and the posterior
mean factor the estimator's bordered system, the estimator imports
nothing from ``structure`` and builds a chain only in its whitening,
every other module builds one only through the grid's chain memo,
nothing ``fit`` reaches builds the Toeplitz regressor, and one loop
parses the lines of a text table.

pyflakes is not a dependency, so this walks the syntax tree with the
standard library's ``ast``.  ``__init__.py`` is skipped by the unused-import
scan: its imports are the package's re-exports.
"""

import ast
import importlib
import pathlib

import pytest

import stablekern
from stablekern import errors, estimator, grid, kernels, maxent, process, structure

SOURCES = sorted(pathlib.Path(stablekern.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names listed in __all__ are exported, which is a use.
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private(dotted: str):
    """The numpy path up to its first private part (leading underscore, dunders aside), or None."""
    parts = dotted.split(".")
    if parts[0] == "numpy":
        for k, part in enumerate(parts[1:], start=2):
            if part.startswith("_") and not part.endswith("__"):
                return ".".join(parts[:k])
    return None


def private_numpy_uses(source: str):
    """(line, dotted name) of each private numpy module or name a module imports or reads.

    Attribute chains on a name bound to numpy (``np.linalg._umath_linalg``)
    count as well as import statements.
    """
    tree = ast.parse(source)
    bound = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if prefix := _private(alias.name):
                    found.append((node.lineno, prefix))
                if alias.name.split(".")[0] == "numpy":
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if prefix := _private(dotted):
                    found.append((node.lineno, prefix))
                bound[alias.asname or alias.name] = dotted
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = []
            inner = node
            while isinstance(inner, ast.Attribute):
                chain.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in bound:
                dotted = ".".join([bound[inner.id], *reversed(chain)])
                if prefix := _private(dotted):
                    found.append((node.lineno, prefix))
    return sorted(set(found))


def test_scan_finds_private_numpy():
    source = ("import numpy as np\nimport numpy.linalg._umath_linalg\n"
              "from numpy.linalg import _umath_linalg as u, norm\nfrom numpy import linalg as la\n"
              "x = np.linalg._umath_linalg.cholesky_lo\ny = la._private\nz = np.__version__, np.linalg.norm\n")
    assert private_numpy_uses(source) == [
        (2, "numpy.linalg._umath_linalg"), (3, "numpy.linalg._umath_linalg"),
        (5, "numpy.linalg._umath_linalg"), (6, "numpy.linalg._private")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_numpy(path):
    assert private_numpy_uses(path.read_text(encoding="utf-8")) == []


def imports_of(source: str, package: str):
    """Lines of the ``import`` statements, at any depth, that name ``package`` or a submodule of it.

    A relative import is read from inside ``stablekern``: ``from .structure
    import x`` and ``from . import structure`` both name ``stablekern.structure``.
    """
    def named(dotted):
        return dotted == package or dotted.startswith(package + ".")

    def modules(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        base = ".".join(filter(None, ["stablekern" if node.level else None, node.module]))
        return [base] + [f"{base}.{alias.name}" for alias in node.names]

    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and any(map(named, modules(node)))})


def test_scan_finds_a_scipy_import():
    source = ("import scipy\nimport numpy, scipy.special as sp\nfrom scipy.special import ndtri\n"
              "def f():\n    from scipy import linalg\n    return linalg\n"
              "import scipyx\nfrom .scipy import y\nz = 'scipy'\n")
    assert imports_of(source, "scipy") == [1, 2, 3, 5]


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_no_scipy_import(path):
    # Neither the runtime nor the tests need scipy: the inverse-CDF draws the
    # committed test problems were built on are stored in inverse_cdf_normals.txt.
    assert imports_of(path.read_text(encoding="utf-8"), "scipy") == []


def test_scan_finds_an_import_of_a_package_module():
    source = ("from .structure import sqrt_factor\nfrom . import structure as st\nimport stablekern.structure\n"
              "def f():\n    from stablekern.structure import StructuredSqrt\n    return StructuredSqrt\n"
              "from stablekern import structure\nfrom .kernels import _Chain\nfrom .structures import x\n"
              "from . import kernels\nstructure = 'structure'\n")
    assert imports_of(source, "stablekern.structure") == [1, 2, 3, 5, 7]


def test_estimator_does_not_import_the_structure_module():
    # The estimator whitens by the chain itself: the square root's triangle
    # is folded into the data once, and each beta only scales by its roots.
    assert imports_of(pathlib.Path(estimator.__file__).read_text(encoding="utf-8"), "stablekern.structure") == []


def attribute_reads(source: str, attr: str):
    """Lines on which ``attr`` is read as an attribute of anything (``x.attr``, ``x.y.attr``)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)})


def test_scan_finds_an_attribute_read():
    source = ("chain.rising = True\nif chain.rising:\n    x = a.b.rising.c\n"
              "rising = 1\ny = rising, chain.risen\n")
    assert attribute_reads(source, "rising") == [2, 3]


def test_only_the_chain_reads_the_family():
    # The chain core's constructor turns the kernel family into ``rising``;
    # every other module asks the chain for what the family decides.
    assert [p.name for p in SOURCES if attribute_reads(p.read_text(encoding="utf-8"), "rising")] == ["kernels.py"]


def _owners(source: str, hit):
    """Names of the functions holding a node for which ``hit`` is true; ``<module>`` outside any.

    A node belongs to the innermost function around it.
    """
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def _reads(node, name: str) -> bool:
    """Whether node reads ``name`` as a bare name or an attribute."""
    return ((isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)
            ) and isinstance(node.ctx, ast.Load)


def readers(source: str, name: str):
    """Names of the functions that read ``name`` (``name``, ``name(...)``, ``x.name``); ``<module>`` outside any."""
    return _owners(source, lambda node: _reads(node, name))


def callers(source: str, name: str):
    """Names of the functions that call ``name`` (``name(...)``, ``x.name(...)``); ``<module>`` outside any."""
    return _owners(source, lambda node: isinstance(node, ast.Call) and _reads(node.func, name))


def test_scan_finds_the_readers_of_a_name():
    source = ("def _bordered():\n    pass\n"
              "def a():\n    return _bordered()\n"
              "def b():\n    def inner():\n        return m._bordered(1)\n    return inner\n"
              "def c():\n    f = _bordered\n    return f\n"
              "def d():\n    _bordered = 1\n    m._bordered = 2\n"
              "x = _bordered\n")
    assert readers(source, "_bordered") == ["<module>", "a", "c", "inner"]


def test_scan_finds_the_callers_of_a_name():
    source = ("class _W:\n    chain: _Chain\n"
              "def a(spec, t):\n    return _Chain(spec, t).roots()\n"
              "def b():\n    def inner():\n        return kernels._Chain(1, 2)\n    return inner\n"
              "def c(white: _Chain):\n    f = _Chain\n    return white.chain.roots(), f\n"
              "x = _Chain(3, 4)\n")
    assert callers(source, "_Chain") == ["<module>", "a", "inner"]


def test_only_the_whitening_builds_a_chain_in_the_estimator():
    # One chain per beta, kept with its whitened data: the gradient's slopes
    # and the posterior mean read that chain instead of building another.
    assert callers(pathlib.Path(estimator.__file__).read_text(encoding="utf-8"), "_Chain") == ["_whiten"]


def test_only_the_memo_builds_a_chain_outside_the_estimator():
    # A grid keeps the chain of the last kernel asked of it; a function that
    # built its own would form the chain's n-arrays again on every call.
    found = {p.stem: callers(p.read_text(encoding="utf-8"), "_Chain") for p in SOURCES if p.stem != "estimator"}
    assert {name: funcs for name, funcs in found.items() if funcs} == {"kernels": ["_chain"]}


def reachable(source: str, start: str):
    """Names of ``start`` and of the functions defined in ``source`` that it calls, directly or through one another.

    A call reaches every function of that name (``callers`` matches by name),
    nested functions included.  A function passed as an argument is reached
    only where a parameter of its own name is called.
    """
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = {start}
    while more := {name for name in defined - found if found.intersection(callers(source, name))}:
        found |= more
    return sorted(found)


def test_scan_finds_the_functions_a_function_reaches():
    source = ("def fit():\n    return _tune(lambda: _fold())\n"
              "def _tune():\n    def batch():\n        return m._whiten()\n"
              "    def func():\n        return batch()\n    return _bfgs(func)\n"
              "def _bfgs(func):\n    return func()\n"
              "def _whiten():\n    return 1\n"
              "def _fold():\n    return 2\n"
              "def toeplitz_regressor():\n    return _lags()\n"
              "def _lags():\n    return 3\n"
              "def unused():\n    return _lags\n")
    assert reachable(source, "fit") == ["_bfgs", "_fold", "_tune", "_whiten", "batch", "fit", "func"]


def test_fit_builds_no_regressor():
    # fit folds the data from lag products of u: no N x n Toeplitz regressor.
    source = pathlib.Path(estimator.__file__).read_text(encoding="utf-8")
    assert set(reachable(source, "fit")).intersection(callers(source, "toeplitz_regressor")) == set()


def table_line_loops(source: str):
    """Names of the functions that loop over ``_data_lines(...)`` (a for statement or a comprehension)."""
    return _owners(source, lambda node: isinstance(node, (ast.For, ast.comprehension))
                   and isinstance(node.iter, ast.Call) and _reads(node.iter.func, "_data_lines"))


def test_scan_finds_the_loops_over_table_lines():
    source = ("def a(fh):\n    return [t for _, t in _data_lines(fh)]\n"
              "def b(fh):\n    for k, t in grid._data_lines(fh):\n        pass\n"
              "def c(fh):\n    return next(_data_lines(fh))\n")
    assert table_line_loops(source) == ["a", "b"]


def test_one_loop_parses_table_lines():
    # audit, extend, fit and grid files share one grammar; a second loop over
    # a table's lines would be a second grammar.
    loops = [f"{p.stem}.{name}" for p in MODULES for name in table_line_loops(p.read_text(encoding="utf-8"))]
    assert loops == ["grid._parse_rows"]


def test_only_the_evaluators_factor_the_bordered_system():
    # The tuner's fixed and free noise variance share one evaluator; a second
    # caller of the bordered factor would be a second path.
    found = {p.name: readers(p.read_text(encoding="utf-8"), "_bordered") for p in SOURCES}
    assert {name: funcs for name, funcs in found.items() if funcs} == {"estimator.py": ["_log_mls", "_posterior_mean"]}

def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: List[int] = []\n") == [
        (1, "os"), (2, "Optional")]



@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str):
    """(line, name) of each module-level private function, class or constant (dunders aside)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith("_") and not name.endswith("__")]
    return found


def dead_private_names(sources):
    """(file, line, name) of each private module-level name that no source reads.

    A read is a loaded bare name or an attribute name anywhere in
    ``sources`` (file name -> text); an import alone is not a read.
    """
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((name, line, private) for name, source in sources.items()
                  for line, private in private_definitions(source) if private not in read)


def test_scan_finds_a_dead_private_name():
    sources = {"a.py": ("_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
                        "class _Orphan:\n    pass\n__all__ = []\n"),
               "b.py": "import a\nfrom a import _DEAD\nx = a._helper()\n"}
    assert dead_private_names(sources) == [("a.py", 2, "_DEAD"), ("a.py", 5, "_Orphan")]


def test_no_dead_private_names():
    # A deletion that leaves a private helper or constant behind fails here.
    assert dead_private_names({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_every_export_resolves():
    # A public name removed from a module but left in __all__ fails here,
    # not at a caller's `from stablekern import *`.
    assert [name for name in stablekern.__all__ if not hasattr(stablekern, name)] == []
    assert len(set(stablekern.__all__)) == len(stablekern.__all__)


def test_package_exports_are_the_module_exports():
    # Each module's __all__ is the one declaration of its public names.
    assert stablekern.__all__ == ["__version__", *errors.__all__, *grid.__all__, *kernels.__all__,
                                  *structure.__all__, *maxent.__all__, *process.__all__, *estimator.__all__]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_exports_exist(path):
    module = importlib.import_module(f"stablekern.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
