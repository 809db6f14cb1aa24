"""Perf ledger: run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfledger/run.py --workload diurnal --seed 1 --seconds 30 --trace 0
    python3 perfledger/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit); ``--workload all`` prints one such object per workload, keyed by
name.  Per-repetition figures, request accounting and span aggregates are
written to ``.perfledger/`` under the repository root.  See ``bench.py``
for how a run is measured and ``ledger.json`` for what each metric means.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfledger: no program source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfledger.bench import main

    sys.exit(main())
