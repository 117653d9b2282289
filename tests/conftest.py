"""Test-session set-up shared by all test modules.

pytest's ``pythonpath`` setting puts ``src`` on this process's import
path only; exporting it lets the CLI subprocesses that some tests start
import the package from the same checkout.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
