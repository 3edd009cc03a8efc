"""Rules on what the package's modules import and define, read with ``ast``.

- The package imports only scipy's and numpy's public modules.  A private
  module (any dotted part after ``scipy`` or ``numpy`` that starts with an
  underscore) can change or vanish in any release; the package reaches
  HiGHS through ``scipy.optimize.linprog``, and seeds PCG64 through
  ``numpy.random.bit_generator.ISeedSequence``.
- Only ``util`` imports ``json``: ``util.json_bytes`` is the one JSON rule,
  which writes a result as its dataclass fields by name.
- Only ``Orbit`` defines ``to_dict``, because its JSON is not its fields.
- No module imports or names ``solve_ivp``: every adaptive run steps
  scipy's public DOP853 or RK45 in ``integrate._adaptive_run``'s own loop.
"""

import ast
from pathlib import Path

import hamlv


def private_scipy_imports(source):
    """The dotted names of private scipy modules or members that source
    imports, at any depth of the module."""
    return private_imports(source, "scipy")


def private_numpy_imports(source):
    """The same for numpy."""
    return private_imports(source, "numpy")


def private_imports(source, package):
    """The dotted names of private modules or members of package that
    source imports, at any depth of the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == package
                  and any(part.startswith("_")
                          for part in name.split(".")[1:])]
    return found


def test_rule_reads_every_import_form():
    assert private_scipy_imports(
        "import scipy.optimize._highspy._core as h\n"
        "from scipy.optimize._linprog_util import _check_result\n"
        "from scipy.optimize import _highspy\n"
        "def f():\n"
        "    from scipy import _lib\n") == [
            "scipy.optimize._highspy._core",
            "scipy.optimize._linprog_util._check_result",
            "scipy.optimize._highspy", "scipy._lib"]
    assert private_scipy_imports(
        "import scipy\nfrom scipy.optimize import linprog\n"
        "from ._private import x\nimport numpy._core\n") == []


def test_no_private_scipy_module():
    package = Path(hamlv.__file__).parent
    found = {path.name: private_scipy_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_numpy_rule_reads_every_import_form():
    assert private_numpy_imports(
        "import numpy._core as core\n"
        "from numpy.random._pcg64 import PCG64\n"
        "from numpy.random import _pcg64\n"
        "def f():\n"
        "    from numpy import _core\n"
        "    import numpy.linalg._linalg\n") == [
            "numpy._core", "numpy.random._pcg64.PCG64",
            "numpy.random._pcg64", "numpy._core", "numpy.linalg._linalg"]
    assert private_numpy_imports(
        "import numpy as np\nfrom numpy.random import PCG64\n"
        "from numpy.random.bit_generator import ISeedSequence\n"
        "from numpy.polynomial.legendre import leggauss\n"
        "from ._core import x\nimport scipy._lib\n") == []


def test_no_private_numpy_module():
    found = {name: private_numpy_imports(source)
             for name, source in package_sources().items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def imports_json(source):
    """Whether source imports the json package, in any form at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "json" for name in names):
            return True
    return False


def to_dict_classes(source):
    """The names of the classes in source that define a to_dict method."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "to_dict" for item in node.body)]


def package_sources():
    package = Path(hamlv.__file__).parent
    return {path.name: path.read_text()
            for path in sorted(package.glob("*.py"))}


def test_json_rule_reads_every_import_form():
    for source in ("import json\n", "import os, json as j\n",
                   "from json import dumps\n",
                   "def f():\n    import json.decoder\n"):
        assert imports_json(source), source
    for source in ("import jsonschema\n", "from .util import json_bytes\n",
                   "from . import json\n", "json = None\n"):
        assert not imports_json(source), source


def test_only_util_imports_json():
    assert [name for name, source in package_sources().items()
            if imports_json(source)] == ["util.py"]


def test_to_dict_rule_reads_nested_classes():
    assert to_dict_classes(
        "class A:\n    def to_dict(self):\n        pass\n"
        "def f():\n    class B:\n        def to_dict(self):\n"
        "            pass\n"
        "class C:\n    def save(self):\n        def to_dict():\n"
        "            pass\n"
        "def to_dict():\n    pass\n") == ["A", "B"]


def test_only_orbit_defines_to_dict():
    assert {name: classes for name, source in package_sources().items()
            if (classes := to_dict_classes(source))} == {"star.py": ["Orbit"]}


def names_solve_ivp(source):
    """Whether source imports solve_ivp or reaches it by name or attribute,
    at any depth of the module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if "solve_ivp" in names:
            return True
    return False


def test_solve_ivp_rule_reads_every_form():
    for source in ("from scipy.integrate import solve_ivp\n",
                   "from scipy.integrate import solve_ivp as ivp\n",
                   "import scipy.integrate\nscipy.integrate.solve_ivp(f)\n",
                   "def f():\n    from scipy import integrate\n"
                   "    return integrate.solve_ivp\n"):
        assert names_solve_ivp(source), source
    for source in ("from scipy.integrate import DOP853, RK45\n",
                   "# solve_ivp\n", "x = 'solve_ivp'\n"):
        assert not names_solve_ivp(source), source


def test_no_module_names_solve_ivp():
    assert [name for name, source in package_sources().items()
            if names_solve_ivp(source)] == []
