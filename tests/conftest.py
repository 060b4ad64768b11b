"""Hypothesis runs derandomized and without an example database: every run
draws the same examples, so a failure repeats and the suite's time is fixed."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
