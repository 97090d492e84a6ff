import doctest
import re
from pathlib import Path

from chainisom import chain_maps

README = Path(__file__).resolve().parents[1] / "README.md"


def test_chain_maps_doctests():
    failures, tried = doctest.testmod(chain_maps)
    assert tried > 0
    assert failures == 0


def test_readme_library_example(capsys):
    # the python block under "## Library" runs as shown
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["(2 / 2)", "319", "319"]
