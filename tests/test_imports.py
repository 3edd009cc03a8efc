"""The package imports only scipy's public modules.

A private scipy module (any dotted part after ``scipy`` that starts with an
underscore) can change or vanish in any scipy release; the package reaches
HiGHS through ``scipy.optimize.linprog`` instead.
"""

import ast
from pathlib import Path

import hamlv


def private_scipy_imports(source):
    """The dotted names of private scipy modules or members that source
    imports, at any depth of the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "scipy"
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
