"""The library's import structure, read with the standard ``ast`` module.

Every name a module imports is used in it (the re-exports of
``__init__`` are exempt), and only the modules that validate inputs import
the config checks: every other module takes built objects, not configs.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "infomarkets"
MODULES = sorted(SRC.glob("*.py"))
CONFIG_CHECKS = {"check_type", "reject_unknown_keys", "require_keys"}
#: the command line (every file and config format), the experiment runner
#: (its parameters) and the module that defines the checks
INPUT_READERS = {"cli.py", "experiments.py", "errors.py"}


def imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(bound name, imported name) of every import in the module at ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``; a name imported from a module has no dot
            out += [(alias.asname or alias.name.split(".")[0], alias.name)
                    for alias in node.names]
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    used = {node.id for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name)}
    assert sorted(bound for bound, _ in imports(path) if bound not in used) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in INPUT_READERS],
                         ids=lambda p: p.stem)
def test_only_input_readers_import_the_config_checks(path):
    assert sorted({name for _, name in imports(path)} & CONFIG_CHECKS) == []
