"""Import paths for the benchmark's own tests.

Run from the repository root:  python3 -m pytest proofbench/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "proofbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
