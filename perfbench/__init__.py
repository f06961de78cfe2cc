"""The repository's benchmark of record; see ``perfbench/run.py``."""
