"""Benchmark for perfnet: four workloads, end-to-end metrics and a traced run.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
see ``perfbench/README.md`` for the workloads and metrics.
"""
