import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signalgame
from test_goldens import GAME_3

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


def _run_fresh(code: str, *args: str) -> str:
    src = str(Path(signalgame.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # No module uses scipy.optimize, whose import would add most of the
    # time of `import signalgame`; this keeps a new use from loading it eagerly.
    code = "import sys, signalgame; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    assert _run_fresh(code) == "[]\n"


def test_scipy_loads_only_for_hulls_of_three_or_more_states(tmp_path):
    # scipy.spatial is most of the import time; 2-state envelopes are
    # monotone chains, so only a 3+-state solve may load it (for Qhull).
    game = tmp_path / "game3.json"
    game.write_text(json.dumps(GAME_3))
    code = """
import sys
import signalgame
from signalgame import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

out_dir = sys.argv[1]
print(scipy_modules())
for builtin in ("quickest_detection", "detector"):
    for command in ("solve", "evaluate", "simulate", "sweep"):
        out = f"{out_dir}/{builtin}-{command}.out"
        assert cli.main([command, "--builtin", builtin, "--horizon", "14", "--out", out]) == 0
print(scipy_modules())
assert cli.main(["solve", "--input", f"{out_dir}/game3.json", "--out", f"{out_dir}/game3.out"]) == 0
print("scipy.spatial" in sys.modules)
"""
    assert _run_fresh(code, str(tmp_path)).splitlines() == ["[]", "[]", "True"]
