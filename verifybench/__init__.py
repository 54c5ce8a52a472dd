"""Benchmark of the sphereplanks verifier; run ``verifybench/run.py``."""
