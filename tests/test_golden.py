"""Exact golden corpus: a slice of the committed reports, reproduced bit for bit.

The full comparison (110 runs, 6,380 entries) is
``python3 scripts/golden_corpus.py``; this runs four of them.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_corpus.py"
_spec = importlib.util.spec_from_file_location("golden_corpus", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("k, seed", [(3, 0), (2, 0), (1, 0), (4, 0)])
def test_reports_match_golden_corpus(k, seed):
    expected = golden.load_corpus()[(k, seed)]
    assert golden.differing(expected, golden.run_entries(k, seed)) == []
