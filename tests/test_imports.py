"""The package imports with numpy alone, and every name it exports exists."""

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
