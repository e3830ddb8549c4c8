"""The package imports with numpy alone, every name it exports exists, and no import or private helper is unused."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qdiscord

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, qdiscord, qdiscord.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""



def test_every_exported_name_resolves():
    modules = [qdiscord] + [
        importlib.import_module(f"qdiscord.{info.name}")
        for info in pkgutil.iter_modules(qdiscord.__path__)
    ]
    assert len(modules) > 8
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_reexports_every_module_name():
    # Each module's __all__ is the one list of its public names; the package
    # exports each of them as the same object, once.
    names = ["__version__"]
    for info in pkgutil.iter_modules(qdiscord.__path__):
        if info.name in ("cli", "__main__"):
            continue
        module = importlib.import_module(f"qdiscord.{info.name}")
        for name in module.__all__:
            assert getattr(qdiscord, name) is getattr(module, name), f"{module.__name__}.{name}"
        names += module.__all__
    assert len(qdiscord.__all__) == len(set(qdiscord.__all__))
    assert sorted(qdiscord.__all__) == sorted(names)


def test_no_unused_top_level_import():
    # No linter is part of the toolchain, so this walks each module's syntax
    # tree: a name bound by a top-level import must be read somewhere in the
    # module or listed in its __all__.
    paths = sorted((ROOT / "src" / "qdiscord").glob("*.py"))
    assert len(paths) > 8
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            node.value
            for statement in tree.body
            if isinstance(statement, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)
            for node in ast.walk(statement.value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for statement in tree.body:
            if isinstance(statement, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in statement.names]
            elif isinstance(statement, ast.ImportFrom) and statement.module != "__future__":
                names = [alias.asname or alias.name for alias in statement.names if alias.name != "*"]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names if name not in read | exported]
    assert unused == []


def test_every_private_helper_is_read():
    # A top-level private function or class must be read by some other
    # top-level statement of the package, so a helper whose last caller
    # is gone fails here; a read inside its own definition does not count.
    paths = sorted((ROOT / "src" / "qdiscord").glob("*.py"))
    assert len(paths) > 8
    defined, reads = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for statement in tree.body:
            names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and statement.name.startswith("_"):
                defined.append((f"{path.name}: {statement.name}", statement.name, len(reads)))
            reads.append(names)
    assert len(defined) > 20
    unread = [
        label
        for label, name, own in defined
        if not any(name in names for i, names in enumerate(reads) if i != own)
    ]
    assert unread == []
