"""Benchmark of the mnscodec codec; run perfbench/run.py."""
