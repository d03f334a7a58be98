"""Benchmark of the ansec pipeline; run it with `python3 perfbench/run.py`."""
