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


def _entry(name, residual, **fields):
    return {"k": 3, "seed": 0, "name": name, "max_residual": residual, "tol": 1e-8,
            "pass": True, "trials": 120, "skipped": False, "error": None, **fields}


def test_named_differences_lists_verdict_moves_and_large_residuals():
    expected = [_entry("same", 1e-9), _entry("small", 1e-12), _entry("large", 2e-10),
                _entry("fails", 1e-12), _entry("fewer", 0.0), _entry("gone", 0.0)]
    actual = [_entry("same", 1e-9), _entry("small", 3e-12), _entry("large", 4e-10),
              _entry("fails", 1.0, **{"pass": False}), _entry("fewer", -0.0, trials=60),
              _entry("new", 0.0)]
    verdicts, residuals = golden.named_differences(expected, actual)
    assert verdicts == [
        (3, 0, "fails", {"pass": (True, False)}),
        (3, 0, "fewer", {"trials": (120, 60)}),
        (3, 0, "gone", {f: (v, None) for f, v in
                        (("pass", True), ("trials", 120), ("skipped", False))}),
        (3, 0, "new", {f: (None, v) for f, v in
                       (("pass", True), ("trials", 120), ("skipped", False))}),
    ]
    # "same" sits above tol/100 but did not move; "small" moved below it
    assert residuals == [(3, 0, "large", 2e-10, 4e-10, 1e-8),
                         (3, 0, "fails", 1e-12, 1.0, 1e-8)]
    assert golden.named_differences(expected, expected) == ([], [])
