"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment table (the index is
``repro.experiments.ALL_EXPERIMENTS``).  Tables are printed through the
capture bypass so ``pytest benchmarks/ --benchmark-only`` shows them inline
with the timing results.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import format_table


@pytest.fixture
def show_table(capsys):
    """Print an experiment table past pytest's capture."""

    def _show(rows, title: str, columns=None) -> None:
        with capsys.disabled():
            print()
            print(format_table(rows, columns=columns, title=title))
            print()

    return _show
