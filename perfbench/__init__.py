"""End-to-end keyword-query benchmark (run perfbench/run.py)."""
