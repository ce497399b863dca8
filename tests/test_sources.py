"""Package sources compile cleanly."""

import warnings
from pathlib import Path

import twophase

SOURCES = sorted(Path(twophase.__file__).parent.glob("*.py"))


def test_sources_compile_with_warnings_as_errors():
    # compiled from the source text, so no cached bytecode hides a
    # warning (invalid escapes are a DeprecationWarning in 3.11 and a
    # SyntaxWarning later, both raised as SyntaxError under "error")
    assert len(SOURCES) >= 9
    failed = {}
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(), str(path), "exec")
            except SyntaxError as exc:
                failed[path.name] = str(exc)
    assert not failed, failed
