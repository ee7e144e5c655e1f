"""Benchmark harness for classlink; see README.md."""
