"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_run():
    assert DEMOS, "no demo scripts found"
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, f"{demo.name} failed:\n{proc.stderr}"
