"""Shared helpers for the benchmark harness.

Every benchmark prints a small table of the rows/series it regenerates (the
paper is a vision paper, so the "tables" are its quantitative claims, one
``test_bench_*`` module each; the README's Performance section describes
them); ``print_rows`` keeps the formatting uniform and copy-pastable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

#: Where the benches write their ``BENCH_*.json`` (git-ignored; CI uploads
#: the files as artifacts), so running the suite never rewrites a tracked
#: file.
BENCH_DIR = Path(__file__).resolve().parent.parent / ".bench_results"


def write_bench(name: str, payload: dict) -> None:
    """Write ``payload`` as ``BENCH_DIR/name``, creating the directory."""
    BENCH_DIR.mkdir(exist_ok=True)
    (BENCH_DIR / name).write_text(json.dumps(payload, indent=2) + "\n")


def print_rows(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a uniform, copy-pastable results table."""
    print(f"\n== {title} ==")
    widths = [max(len(str(header[i])), 12) for i in range(len(header))]
    print("  " + " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(header)))
    for row in rows:
        print("  " + " | ".join(str(value).ljust(widths[i]) for i, value in enumerate(row)))
