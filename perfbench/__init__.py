"""Benchmark package: see run.py and README.md."""
