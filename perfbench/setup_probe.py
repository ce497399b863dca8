"""Child process that times the set-up a fresh `twophase` invocation pays.

    python3 perfbench/setup_probe.py SRC_DIR PROBLEM

Times importing every layer (scipy included), resolving the preset and its
first, uncached exact construction, and prints the seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import twophase.cli  # noqa: E402,F401  (imports every layer)
from twophase.problems import get_problem  # noqa: E402

get_problem(sys.argv[2]).build_exact()
print(repr(time.perf_counter() - t0))
