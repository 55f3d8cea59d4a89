"""The library's import structure, read with the standard ``ast`` module.

Every name a module imports is used in it (the re-exports of
``__init__`` are exempt), every private module-level name is read
somewhere in the library, only the modules that validate inputs import
the config checks (every other module takes built objects, not configs),
and only ``info_model`` defines argument checks.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "infomarkets"
MODULES = sorted(SRC.glob("*.py"))
CONFIG_CHECKS = {"check_type", "read_config"}
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


def private_definitions(tree: ast.Module) -> list[str]:
    """The private (one leading underscore) functions, classes and constants
    defined at the top level of ``tree``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_errors_defines_exactly_the_config_checks():
    """Every config entry is read through ``read_config`` (or, for a bare
    value, ``check_type``): ``errors`` defines no other public function."""
    tree = ast.parse((SRC / "errors.py").read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")} == CONFIG_CHECKS


def test_domain_checks_live_in_info_model():
    """Every argument check (a ``_check_*`` function or method) is defined in
    ``info_model``, so each domain rule has one home."""
    homes = {path.stem for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("_check_")}
    assert homes == {"info_model"}


def test_every_private_name_is_read():
    """A helper whose last caller is deleted goes with it."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = [(stem, name) for stem, tree in trees.items()
               for name in private_definitions(tree)]
    assert len(defined) > 50  # the walk found the definitions
    assert [f"{stem}.{name}" for stem, name in defined if name not in read] == []
