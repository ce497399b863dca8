"""Package sources compile cleanly and import without test-only dependencies."""

import os
import subprocess
import sys
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


def test_cli_import_leaves_scipy_out():
    # scipy is a test and tooling dependency only; importing it would
    # cost the command line most of its start-up time
    # a fresh interpreter, pointed at the same package as this one
    code = "import sys, twophase.cli; print('scipy' in sys.modules)"
    src = str(Path(twophase.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
