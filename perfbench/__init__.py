"""Benchmark of asympush; see README.md in this directory."""
