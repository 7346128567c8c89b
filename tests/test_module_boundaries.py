"""Module boundaries of the package: each module's private names (a
leading underscore) stay inside it, each object's private attributes
are read only through self or cls, only the solver module reaches
SuperLU's splu, so every factor takes its one path, and every exported
name exists."""

import ast
from pathlib import Path

import pytest

import poromech
import poromech.mesh
import poromech.problems

PACKAGE = Path(poromech.__file__).parent

# the public API of namedtuples carries a leading underscore
NAMEDTUPLE_API = {"_make", "_fields", "_replace", "_asdict"}


def _private(dotted):
    """Whether a dotted name has a part with a leading underscore that is
    not a dunder."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in dotted.split("."))


def private_imports(path):
    """(line, name) of every private name or module the file imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = ([module] if _private(module)
                     else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if _private(name)]
    return found


def private_attributes(path):
    """(line, expression) of every private attribute taken of an object
    other than self or cls, the namedtuple API aside."""
    return sorted((node.lineno, ast.unparse(node))
                  for node in ast.walk(ast.parse(path.read_text(),
                                                 filename=str(path)))
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and node.attr not in NAMEDTUPLE_API
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls")))


def test_no_module_imports_private_names():
    offenders = [f"{path.relative_to(PACKAGE)}:{line} {name}"
                 for path in sorted(PACKAGE.rglob("*.py"))
                 for line, name in private_imports(path)]
    assert offenders == []


def test_private_import_check_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "from ..assembly import State, _csr\n"
                     "from ._impl import helper\n"
                     "import pkg._hidden\n"
                     "from . import __version__\n")
    assert private_imports(probe) == [(2, "_csr"), (3, "_impl"),
                                      (4, "pkg._hidden")]


def test_no_private_attribute_access_across_objects():
    offenders = [f"{path.relative_to(PACKAGE)}:{line} {expr}"
                 for path in sorted(PACKAGE.rglob("*.py"))
                 for line, expr in private_attributes(path)]
    assert offenders == []


def test_private_attribute_check_sees_other_objects(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("self._cache = CellGeometry._make(row)\n"
                     "cls._registry, point._replace(x=1), obj.__dict__\n"
                     "mesh._check_tags()\n"
                     "self.mesh._tags = system.solver._lu\n")
    assert private_attributes(probe) == [(3, "mesh._check_tags"),
                                         (4, "self.mesh._tags"),
                                         (4, "system.solver._lu")]


def splu_references(path):
    """(line, expression) of every name, attribute or import of splu."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == "splu"]
        elif (isinstance(node, ast.Attribute) and node.attr == "splu"
              or isinstance(node, ast.Name) and node.id == "splu"):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_only_the_solver_calls_splu():
    offenders = [f"{path.relative_to(PACKAGE)}:{line} {expr}"
                 for path in sorted(PACKAGE.rglob("*.py"))
                 if path != PACKAGE / "solver.py"
                 for line, expr in splu_references(path)]
    assert offenders == []


def test_splu_check_sees_calls_and_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.sparse.linalg as spla\n"
                     "lu = spla.splu(a, permc_spec='NATURAL')\n"
                     "from scipy.sparse.linalg import splu as lu_of\n"
                     "lu = scipy.sparse.linalg.splu(a)\n"
                     "x = spla.spsolve(a, b)\n")
    assert splu_references(probe) == [(2, "spla.splu"), (3, "splu"),
                                      (4, "scipy.sparse.linalg.splu")]


@pytest.mark.parametrize("module", [poromech, poromech.mesh,
                                    poromech.problems],
                         ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    """A stale string in __all__ breaks only `from module import *`."""
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []
