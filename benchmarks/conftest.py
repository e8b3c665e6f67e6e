"""Shared helpers for the benchmark harness.

Every benchmark prints a small table of the rows/series it regenerates (the
paper is a vision paper, so the "tables" are its quantitative claims, one
``test_bench_*`` module each; the README's Performance section describes
them); ``print_rows`` keeps the formatting uniform and copy-pastable.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def print_rows(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a uniform, copy-pastable results table."""
    print(f"\n== {title} ==")
    widths = [max(len(str(header[i])), 12) for i in range(len(header))]
    print("  " + " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(header)))
    for row in rows:
        print("  " + " | ".join(str(value).ljust(widths[i]) for i, value in enumerate(row)))
