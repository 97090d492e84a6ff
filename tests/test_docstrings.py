import doctest
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import chainisom
from chainisom.cli import main

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


def test_readme_library_example(capsys):
    # the python block under "## Library" runs as shown
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
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
