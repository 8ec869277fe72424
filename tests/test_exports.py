import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signalgame

MODULES = ["geometry", "game", "solver", "strategy", "evaluator", "cli"]


@pytest.mark.parametrize("module", ["signalgame"] + [f"signalgame.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_are_the_module_exports():
    lists = [importlib.import_module(f"signalgame.{m}").__all__ for m in MODULES]
    assert signalgame.__all__ == [name for names in lists for name in names]
    # A name in two module lists would be silently shadowed by the star imports.
    assert len(set(signalgame.__all__)) == len(signalgame.__all__)
    for name in signalgame.__all__:
        owner = next(m for m, names in zip(MODULES, lists) if name in names)
        assert getattr(signalgame, name) is getattr(
            importlib.import_module(f"signalgame.{owner}"), name
        )


def test_import_leaves_scipy_optimize_unloaded():
    # No module uses scipy.optimize, whose import would add most of the
    # time of `import signalgame`; this keeps a new use from loading it eagerly.
    src = str(Path(signalgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, signalgame; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
