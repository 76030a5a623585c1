"""Shared test settings.

Property tests run derandomized and without per-example deadlines, so the
suite gives the same verdict on every run, also on a slow or drifting host.
A derandomized run replays itself, so no example database is written.
"""

from hypothesis import settings

settings.register_profile("roofscope", deadline=None, derandomize=True, database=None)
settings.load_profile("roofscope")
