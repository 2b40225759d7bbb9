"""Put the checkout's ``src`` on ``sys.path`` after any ``PYTHONPATH``
entry, so ``PYTHONPATH=<other>/src python -m pytest`` tests that other
copy of the package while a plain ``python -m pytest`` tests this one."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
_ENTRIES = {os.path.realpath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
sys.path.insert(max((i + 1 for i, p in enumerate(sys.path) if os.path.realpath(p) in _ENTRIES), default=0), SRC)
