"""Campaign-throughput benchmark: workloads, layer tracing, microbenches.

The entry point is ``benchmarks/perf/run.py``; ``README.md`` beside it
explains the workloads, the metrics and how to compare two commits.
"""
