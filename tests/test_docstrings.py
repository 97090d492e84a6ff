import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import chainisom

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
