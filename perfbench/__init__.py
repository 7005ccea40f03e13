"""Benchmark of the paper's figure pipeline (entry point: ``perfbench/run.py``)."""
