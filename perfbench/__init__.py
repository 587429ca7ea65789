"""Benchmark of the repository: see perfbench/README.md."""
