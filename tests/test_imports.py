"""Import hygiene: every name a package module imports is used in it, and
the package imports nothing beyond the standard library and the
dependencies that ``pyproject.toml`` declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

import svtr

MODULES = sorted(p for p in Path(svtr.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


def _absolute_imports(path):
    """The dotted name of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_only_the_standard_library_numpy_and_scipy_special():
    tomllib = pytest.importorskip("tomllib")
    third_party = set()
    for path in MODULES + [Path(svtr.__file__)]:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            if top in sys.stdlib_module_names:
                continue
            assert top == "numpy" or name == "scipy.special", f"{path.name} imports {name}"
            third_party.add(top)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in dependencies}
