import importlib

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
