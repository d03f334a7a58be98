"""Shared test settings.

Property tests draw their examples from a fixed seed, so a run of the
suite checks the same inputs every time and never writes an example
database.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
