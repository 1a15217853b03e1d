"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 7).  Workload sizes are laptop-scale by default; set the
``REPRO_FULL=1`` environment variable for larger runs (more episodes, more
benchmark instances) that get closer to the paper's training budgets.

The rows of the paper's tables and figures are also recorded, keyed by
title, in ``BENCH_paper.json`` at the repository root, so a change that
moves a reported number shows in its diff.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

#: Where the paper's tables and figures are recorded.
PAPER_RESULTS = Path(__file__).resolve().parent.parent / "BENCH_paper.json"

#: Titles of the paper's own tables and figures ("Table 4: ...", "Figure 8: ...").
_PAPER_TITLE = re.compile(r"(Table|Figure) \d+:")


def full_scale() -> bool:
    """True when the REPRO_FULL environment variable requests a full-scale run."""
    return os.environ.get("REPRO_FULL", "0") == "1"


def scale(small: int, full: int) -> int:
    """Pick the workload size depending on the REPRO_FULL switch."""
    return full if full_scale() else small


@pytest.fixture(scope="session")
def corpus():
    """The 182-instance goal-oriented ADE benchmark (generated once per session)."""
    from repro.bench import generate_benchmark

    return generate_benchmark()


def print_table(title: str, rows: list[dict]) -> None:
    """Print a result table in a uniform, grep-friendly format.

    A paper table or figure is also written to :data:`PAPER_RESULTS`.
    """
    if _PAPER_TITLE.match(title):
        _record_paper_rows(title, rows)
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0])
    print(" | ".join(str(c) for c in columns))
    for row in rows:
        print(" | ".join(str(row[c]) for c in columns))


def _record_paper_rows(title: str, rows: list[dict]) -> None:
    """Store *rows* under *title* in :data:`PAPER_RESULTS`, keeping the other tables."""
    recorded = json.loads(PAPER_RESULTS.read_text()) if PAPER_RESULTS.exists() else {}
    recorded[title] = rows
    PAPER_RESULTS.write_text(
        json.dumps(dict(sorted(recorded.items())), indent=2, default=str) + "\n"
    )
