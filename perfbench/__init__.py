"""Benchmark of flowvos: workloads, tracing and metrics; see README.md."""
