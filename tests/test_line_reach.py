"""tools/line_reach.py: executable lines, traced lines and what is left."""

import importlib.util
import sys
from pathlib import Path

import pytest

MODULE = '''"""doc."""
import math


def unused():
    return 1


def root(x,
         scale=2.0):
    """doc"""
    if x >= 0.0:
        return scale * math.sqrt(
            x)
    raise ValueError(
        "negative")


class Pair:
    def squares(self):
        return [i * i for i in range(3)]
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def line_reach():
    return _load("line_reach", Path(__file__).resolve().parent.parent / "tools" / "line_reach.py")


def test_line_reach_lists_the_lines_a_run_misses(line_reach, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    path = package / "mod.py"
    path.write_text(MODULE)
    (tmp_path / "outside.py").write_text("def f():\n    return 2\n")
    assert line_reach.executable_lines(path) == {
        1, 2, 5, 6, 9, 10, 12, 13, 14, 15, 16, 19, 20, 21}

    def run():
        mod = _load("reach_mod", path)
        outside = _load("reach_outside", tmp_path / "outside.py")
        return mod.root(4.0) + outside.f(), mod.Pair().squares()

    before = sys.gettrace()
    result, reached = line_reach.reached_lines(package, run)
    assert sys.gettrace() is before
    assert result == (6.0, [0, 1, 4])
    assert set(reached) == {str(path.resolve())}  # nothing outside the package is recorded
    # the unused body and the raise are all that is left
    assert line_reach.unreached(package, reached) == {str(path.resolve()): [6, 15, 16]}
