"""Run with ``python -m pytest benchmarks/e2e/tests`` (not part of tier-1)."""

import pathlib
import sys

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (ROOT / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
