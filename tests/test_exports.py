"""The package exports exactly the union of its modules' export lists, and keeps no dead names."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qcawalk
from qcawalk import (
    algebra,
    amplitudes,
    asymptotics,
    coined_walks,
    correspondence,
    params,
    qca_core,
)

MODULES = (algebra, amplitudes, asymptotics, coined_walks, correspondence, params, qca_core)


def test_package_all_is_union_of_module_lists():
    union = set().union(*(module.__all__ for module in MODULES))
    assert qcawalk.__all__ == sorted(union)


def test_every_export_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qcawalk, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    # a fresh interpreter, where the star import is the package's first lookup
    probe = (
        "import json\n"
        "namespace = {}\n"
        "exec('from qcawalk import *', namespace)\n"
        "import qcawalk\n"
        "print(json.dumps([sorted(set(namespace) - {'__builtins__'}), qcawalk.__all__]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    bound, exported = json.loads(result.stdout)
    assert bound == exported == qcawalk.__all__


@pytest.mark.parametrize(
    "name, loaded",
    [("params", ["params"]), ("cli", ["cli", "params"]), ("algebra", ["algebra", "params"])],
    ids=["params", "cli", "algebra"],
)
def test_a_module_name_lookup_imports_that_module_alone(name, loaded):
    # a from-import looks the name up on the package before it imports the submodule
    probe = (
        f"import sys\nfrom qcawalk import {name}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qcawalk.') or m == 'numpy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [f"qcawalk.{module}" for module in loaded]


def test_no_name_is_listed_by_two_modules():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in seen, f"{name} in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__


def test_removed_names_are_not_exported():
    removed = ("QubitState", "ZERO_TOLERANCE", "MASS_TOLERANCE", "norm_sq", "support",
               "TwoStepFactors", "_UPPER_OFFSETS", "meyer_angles", "_symbol")
    for name in removed:
        assert name not in qcawalk.__all__
        assert not any(hasattr(obj, name) for obj in (qcawalk, *MODULES)), name


def _defined(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_private_module_name_is_used_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(qcawalk.__file__).parent.glob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert unused == []


def _imported(tree: ast.Module) -> list[str]:
    """Names bound by the module's import statements, at any depth; ``__future__`` excluded."""
    return [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(Path(qcawalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in loaded]
    assert unused == []
