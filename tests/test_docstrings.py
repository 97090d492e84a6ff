import ast
import doctest
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import chainisom
from chainisom import chain_maps
from chainisom.checks import CHECKS
from chainisom.cli import main

from helpers import PUBLIC, walk_code

README = Path(__file__).resolve().parents[1] / "README.md"

# the package and every module in it; __main__ runs the command line on import
MODULES = ["chainisom"] + [
    f"chainisom.{m.name}"
    for m in pkgutil.iter_modules(chainisom.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    failures, tried = doctest.testmod(module)
    # a module whose docstrings show examples must have run them
    assert tried >= (">>>" in inspect.getsource(module))
    assert failures == 0


def _library_block():
    """The python block under README's "## Library"."""
    library = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_example(capsys):
    # the Library block runs as shown
    exec(compile(_library_block(), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["(2 / 2)", "319", "319"]


def _cli_tour():
    """Each ``$ chainisom ...`` line of README's sh blocks, with the lines
    shown under it up to the next command (trailing blank lines dropped)."""
    tour = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, shown = chunk.partition("\n")
            if command.startswith("$ chainisom "):
                tour.append((command[2:], shown.rstrip("\n").split("\n")))
    return tour


TOUR = _cli_tour()


@pytest.mark.parametrize("command, shown", TOUR, ids=[command for command, _ in TOUR])
def test_readme_cli_tour(capsys, command, shown):
    # `| head -N` keeps the first N lines; a `...` line stands for any run
    # of lines
    command, _, head = command.partition(" | head -")
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    if head:
        out = out[: int(head)]
    pattern = "".join(
        r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in shown
    )
    assert re.fullmatch(pattern, "".join(line + "\n" for line in out)), out


def test_readme_lists_every_check_in_registry_order():
    # users pick --check from this list
    listed = README.read_text().split("Available checks:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(CHECKS)


def _unreached():
    """Every top-level function and class defined in the package that
    neither the command line nor the names README's Library block imports
    reach, and that ``PUBLIC`` does not list, as ``module.name``."""
    library = [
        getattr(chainisom, alias.name)
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    found, _ = walk_code(main, *library)
    return sorted(
        f"{name}.{attr}"
        for name in MODULES
        for attr, obj in vars(importlib.import_module(name)).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
        and obj not in found
        and obj not in PUBLIC
    )


def test_every_definition_has_a_caller():
    missing = _unreached()
    assert not missing, f"no caller: {missing}"


def _new_sites(tree, scope="<module>"):
    """The innermost enclosing function of each ``....__new__(...)`` call in
    ``tree`` that names ``PartialInjection``: a value built without
    ``__init__``."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, ast.FunctionDef) else scope
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and any(isinstance(name, ast.Name) and name.id == "PartialInjection"
                        for name in [node.func.value, *node.args])):
            yield scope
        yield from _new_sites(node, inner)


def test_values_are_built_without_init_only_by_trusted():
    # every value gets its fields from the slot setters, in __init__ or in
    # _trusted; no module stores them through a __dict__
    sites = []
    for path in sorted(Path(chainisom.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "__dict__" not in source, path.name
        sites += [f"{path.stem}.{scope}" for scope in _new_sites(ast.parse(source))]
    assert sites == ["chain_maps._trusted"]


def test_reachability_names_a_definition_with_no_caller(monkeypatch):
    def orphan():
        return None

    orphan.__module__ = chain_maps.__name__
    monkeypatch.setattr(chain_maps, "_orphan", orphan, raising=False)
    assert _unreached() == ["chainisom.chain_maps._orphan"]
