"""perfbench: the repository's one end-to-end + per-layer benchmark.

Run ``python perfbench/run.py`` from the repository root; see
``perfbench/README.md`` for the metric glossary and the workloads.
Nothing under ``src/`` imports this package.
"""
