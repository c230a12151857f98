"""Shared fixtures for the paper-reproduction benchmark suite.

Each ``test_table_*.py`` / ``test_figure_*.py`` file regenerates one
results table or figure from the paper, prints it, saves it under
``benchmarks/results/``, and asserts the paper's qualitative claims.
Set ``REPRO_QUICK=1`` to run reduced-size variants.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


@pytest.fixture
def emit(results_dir: pathlib.Path) -> Callable[[str, str], None]:
    """``emit(name, text)`` prints a rendered table and saves it as
    ``results/<name>.txt`` for the paper comparison.  A fixture, not an
    import: with ``perfbench`` collected in the same run, ``from
    conftest import ...`` would find that directory's conftest."""
    def emit_(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")
    return emit_
