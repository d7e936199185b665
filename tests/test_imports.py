"""Source hygiene: every name a package module imports is used in it, the
package imports nothing beyond the standard library and the dependencies
that ``pyproject.toml`` declares, and every error it raises by name is one
of its typed errors.  Of scipy, importing svtr loads only the compiled erf
module, which a later ``import scipy.special`` binds as usual."""

import ast
import os
import re
import subprocess
import sys
import textwrap
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


def _run(code):
    """Run ``code`` in a fresh interpreter that imports svtr from this tree."""
    src = str(Path(svtr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                   timeout=60)


def test_importing_every_module_loads_no_scipy_module():
    names = ", ".join(f"svtr.{path.stem}" for path in MODULES)
    _run(f"""
        import sys, svtr, {names}
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not scipy, scipy
        """)


@pytest.mark.parametrize("first, second", [("svtr.tensor", "scipy.special"),
                                           ("scipy.special", "svtr.tensor")])
def test_scipy_special_binds_the_erf_of_svtr(first, second):
    _run(f"""
        import {first}
        import {second}
        assert svtr.tensor.erf is scipy.special.erf
        assert scipy.special._special_ufuncs.erf is scipy.special.erf
        """)


def test_erf_falls_back_to_scipy_special_on_another_layout(tmp_path):
    # find_spec points scipy at an empty directory, so the extension file is
    # not found; the import system itself does not call importlib.util.find_spec.
    _run(f"""
        import importlib.machinery, importlib.util
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append({str(tmp_path)!r})
        real = importlib.util.find_spec
        importlib.util.find_spec = lambda name, package=None: (
            spec if name == "scipy" else real(name, package))
        import sys, svtr.tensor
        assert "scipy.special" in sys.modules
        import scipy.special
        assert svtr.tensor.erf is scipy.special.erf
        """)
