"""Source hygiene: every name a package module imports is used in it, the
package imports nothing beyond the standard library and the dependencies
that ``pyproject.toml`` declares, and every error it raises by name is one
of its typed errors."""

import ast
import re
import sys
from pathlib import Path

import pytest

import svtr
from svtr import exceptions

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


def _named_raises(path):
    """(raised name, enclosing function names) of every ``raise Name(...)``
    and ``raise module.Name(...)`` in the module at ``path``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, (ast.Name, ast.Attribute))):
                found.append((ast.unparse(child.exc.func), scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_every_named_raise_is_a_typed_error():
    # A proper subclass of SvtrError, so that a caller can tell the errors
    # apart; the CLI's argparse type parsers raise argparse's own error.
    typed = {name for name, obj in vars(exceptions).items() if isinstance(obj, type)
             and issubclass(obj, exceptions.SvtrError) and obj is not exceptions.SvtrError}
    untyped = [(path.name, name) for path in MODULES + [Path(svtr.__file__)]
               for name, scope in _named_raises(path)
               if name not in typed and not (path.name == "cli.py" and "_number" in scope
                                             and name == "argparse.ArgumentTypeError")]
    assert not untyped
