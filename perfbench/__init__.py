"""The repository's performance benchmark; ``perfbench/run.py`` is its entry point."""
