"""Put the program (``src/``) and the benchmark package on the path."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for path in (str(_ROOT), str(_ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
