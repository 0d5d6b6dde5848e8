"""Benchmark of the detschemes package; see README.md and run.py."""
