"""Benchmark of the Moment reproduction (see perfbench/README.md)."""
