"""Let `python -m voa.cli` subprocesses import the sources of this checkout.

`pythonpath = ["src"]` in pyproject.toml puts `src` on the test process's
`sys.path` only; the CLI tests also start child interpreters.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
