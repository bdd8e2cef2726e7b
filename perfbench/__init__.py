"""Benchmark for lglab: workloads, output checks, spans and statistics.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and the metrics they report.
"""
