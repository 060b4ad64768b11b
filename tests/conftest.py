"""Hypothesis runs derandomized and without an example database: every run
draws the same examples, so a failure repeats and the suite's time is fixed.

The CLI tests start ``python -m apolar`` in subprocesses, which read
``PYTHONPATH`` rather than pytest's ``pythonpath`` setting, so ``src`` is put
on it here and a bare ``python -m pytest`` runs them as the tier-1 command does."""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
