#!/usr/bin/env python3
"""Lines of the package that the tier-1 tests never reach.

    python3 tools/line_reach.py [PYTEST_ARGS ...]

Runs pytest in this process (by default with the tier-1 arguments,
`-q --continue-on-collection-errors`) under a `sys.settrace` tracer that
records each line it executes in the files of `src/twophase`, and prints
every executable line that no test reached, as `path:line: source`, then
their count.  A line is executable when its compiled module maps a
bytecode instruction to it (`dis.findlinestarts` over every code
object).  Frames outside `src/twophase` get no line tracing, which keeps
the traced suite within about half again its untraced time.  Exits with
pytest's exit code.

Only this process's main thread is traced.  Forked processes are not:
the lines that `compare`'s worker runs (`fv._simulate_into`, under
`fv.run_simulations`) are reached in a child process whose records stay
there, so they are listed.  `coverage` is not needed.
"""

import dis
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twophase"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path):
    """The line numbers that the compiled source of `path` maps an
    instruction to, in every code object it holds, and each code
    object's first line, which its call event reports."""
    lines, stack = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        lines.add(code.co_firstlineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def reached_lines(root, fn, *args):
    """(fn(*args), {file: set of line numbers}) of the lines run in files
    under the directory `root` while fn runs in this thread; the previous
    trace function is restored."""
    prefix = str(Path(root).resolve()) + "/"
    reached, watched = {}, {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = watched.get(name)
        if inside is None:
            inside = watched[name] = str(Path(name).resolve()).startswith(prefix)
        if not inside:
            return None
        reached.setdefault(name, set()).add(frame.f_code.co_firstlineno)
        return local

    old = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(old)
    return result, {str(Path(k).resolve()): v for k, v in reached.items()}


def unreached(root, reached):
    """{path: sorted line numbers} of the executable lines of every .py
    file under `root` that `reached` (as from reached_lines) lacks."""
    out = {}
    for path in sorted(Path(root).resolve().rglob("*.py")):
        missing = sorted(executable_lines(path) - reached.get(str(path), set()))
        if missing:
            out[str(path)] = missing
    return out


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or TIER1_ARGS
    sys.path.insert(0, str(PACKAGE.parent))
    code, reached = reached_lines(PACKAGE, pytest.main, args)
    missing = unreached(PACKAGE, reached)
    for path, lines in missing.items():
        source = Path(path).read_text().splitlines()
        rel = Path(path).relative_to(ROOT)
        for line in lines:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
    print(f"{sum(map(len, missing.values()))} executable lines not reached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
