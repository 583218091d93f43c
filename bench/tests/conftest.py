"""Make ``bench`` and the program importable wherever pytest is started.

Run with ``python -m pytest bench/tests -q`` from the repo root. These
tests are not part of the tier-1 suite (``testpaths`` keeps that to
``tests/``): they check the benchmark, not the program.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
