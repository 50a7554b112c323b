"""Benchmark for ricemele; run ``python3 bench/run.py --help``."""
