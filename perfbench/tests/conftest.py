"""Put the benchmark's modules on the import path and run from the root."""

import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))


@pytest.fixture
def at_root(monkeypatch):
    """Run from the checkout root with tiny-run settings."""
    import harness

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)
    monkeypatch.setattr(harness, "MIN_OPS", 5)
    root = harness.program_root()
    yield root
    shutil.rmtree(harness.scratch_dir(root), ignore_errors=True)
