"""The public surface: every exported name resolves, and the bench table is the bench subcommand."""

import importlib
import pkgutil

import pytest

import qrrt
from qrrt import cli

MODULES = ["qrrt", *(f"qrrt.{info.name}" for info in pkgutil.iter_modules(qrrt.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_bench_recipes_are_the_bench_subcommand():
    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    actions = {action.dest: action for action in subcommands["bench"]._actions}
    assert tuple(actions["recipe"].choices) == tuple(cli.BENCH_RECIPES)
    for name, recipe in cli.BENCH_RECIPES.items():
        assert recipe.run is getattr(cli, f"bench_{name}")
        assert recipe.defaults is getattr(cli, f"{name.upper()}_DEFAULTS")
        # Every override the recipe reads is a bench flag and one of its parameters.
        for key in (*recipe.minima, "n"):
            assert key in actions and key in recipe.defaults, (name, key)
