"""Perf ledger: the repository's benchmark (see ``run.py`` and ``ledger.json``)."""
