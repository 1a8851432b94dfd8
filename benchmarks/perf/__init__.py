"""Wall-clock serve/replay benchmark with a per-layer time budget.

See ``README.md`` in this directory; ``run.py`` is the one entry point.
"""
