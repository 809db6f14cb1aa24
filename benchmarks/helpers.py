"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's evaluation
and prints the rows/series it produces, so running
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction log
(the printed rows are the paper-vs-measured record; no separate index
file exists).
"""

from __future__ import annotations

from repro.core.config import ArgusConfig
from repro.prompts.dataset import PromptDataset

#: Evaluation-scale knobs.  The paper runs 800-minute traces on real GPUs;
#: benchmark runs use shorter windows so the full suite finishes in minutes
#: while preserving the load *shape* (trough, peak, bursts).
BENCH_TRACE_MINUTES = 90
BENCH_DATASET_SIZE = 1500
BENCH_TRAINING_PROMPTS = 800
BENCH_SEED = 0


def bench_config(**overrides) -> ArgusConfig:
    """The 8-worker A100 configuration used across benchmarks."""
    defaults = dict(
        num_workers=8,
        classifier_training_prompts=BENCH_TRAINING_PROMPTS,
        profiling_prompts=400,
        classifier_epochs=12,
        seed=BENCH_SEED,
    )
    defaults.update(overrides)
    return ArgusConfig(**defaults)


def bench_training_dataset() -> PromptDataset:
    """Shared classifier-training dataset (the DiffusionDB stand-in)."""
    return PromptDataset.synthetic(count=BENCH_TRAINING_PROMPTS, seed=BENCH_SEED + 101)


def print_table(title: str, rows: list[dict]) -> None:
    """Print a list of dict rows as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns))


def print_series(title: str, series: dict) -> None:
    """Print named numeric series (downsampled) for figure-style benchmarks."""
    print(f"\n=== {title} ===")
    for name, values in series.items():
        values = list(values)
        step = max(1, len(values) // 16)
        sampled = [values[i] for i in range(0, len(values), step)]
        rendered = ", ".join(_fmt(v) for v in sampled)
        print(f"{name:>28s}: [{rendered}]")


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
