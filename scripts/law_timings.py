"""Per-law wall time of a verification run, through the harness's own runner.

    python3 scripts/law_timings.py --suite all --dim 3 --trials 600 --seed 1 --repeat 5

Every law of the suite runs the trials a ``verify`` run with the same
options gives it (``--trials`` scaled by the law's reference count), with
``harness._run_property``, ``--repeat`` times in a row.  The table lists
the best time of each law in ms and in us per trial, costliest first, and
ends with the sum of the best times.  The script imports the package from the ``src``
directory of its own checkout, runs in one process and one thread, and
exits 1 if a law fails in any repeat.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chgeom.harness import (  # noqa: E402
    SuiteConfig,
    _effective_trials,
    _run_property,
)
from chgeom.properties import REGISTRY, suite_properties  # noqa: E402


def law_timings(cfg: SuiteConfig, repeat: int) -> list[dict]:
    """One row per law of the suite: its best wall time over ``repeat`` runs."""
    rows = []
    for prop in suite_properties(cfg.suite):
        indices = range(_effective_trials(prop, cfg.trials))
        best, passed = float("inf"), True
        for _ in range(repeat):
            start = time.perf_counter()
            report = _run_property(prop, REGISTRY.index(prop), cfg, indices)
            best = min(best, time.perf_counter() - start)
            passed = passed and report.passed
        trials = report.trials
        rows.append({"name": prop.name, "trials": trials, "ms": 1e3 * best,
                     "us_per_trial": 1e6 * best / trials if trials else 0.0,
                     "batched": prop.batched is not None, "pass": passed})
    return sorted(rows, key=lambda row: -row["ms"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite", default="all")
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--trials", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5, help="runs per law; the best counts")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    cfg = SuiteConfig(suite=args.suite, k=args.dim, trials=args.trials, seed=args.seed)
    rows = law_timings(cfg, args.repeat)
    print(f"suite {cfg.suite}  (k={cfg.k}, trials={cfg.trials}, seed={cfg.seed}, "
          f"best of {args.repeat})")
    print(f"  {'law':<36} {'trials':>6} {'ms':>9} {'us/trial':>9}")
    for row in rows:
        mark = " batched" if row["batched"] else ""
        fail = "" if row["pass"] else "  FAIL"
        print(f"  {row['name']:<36} {row['trials']:>6} {row['ms']:>9.2f} "
              f"{row['us_per_trial']:>9.1f}{mark}{fail}")
    print(f"  {'sum':<36} {'':>6} {sum(row['ms'] for row in rows):>9.2f}")
    return 0 if all(row["pass"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
