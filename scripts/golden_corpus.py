"""Exact golden corpus of verification reports.

The corpus holds the per-property report entries, every field but
``wall_ms``, of ``run_suite("all", trials=600)`` for k=3 seeds 0-59,
k=2 seeds 0-19 and k=1, 4 and 5 seeds 0-9 each: 6,380 entries.  A pure refactor must reproduce each of
them bit for bit; the comparison is on the JSON text of every entry, so
even the sign of a zero counts.  The seeds are fixed: a difference is a
finding, never a reason to pick other seeds.

    python3 scripts/golden_corpus.py              # compare the full corpus
    python3 scripts/golden_corpus.py --write      # regenerate from this tree

Each differing entry is printed with its old and new ``max_residual``,
``pass`` and ``error`` (and any other field that moved), and the output
ends with a per-law table in Markdown: the differing entries, how many
of them moved ``max_residual`` up and down, and the worst new
``max_residual`` over the law's tolerance.  Exit code 0 when
every entry matches (or after ``--write``), 1 otherwise.
The script imports the package from the ``src`` directory of its own
checkout.  The 110 runs are independent; they are spread over one worker
process per usable CPU (at most 110) and collected in corpus order.
"""

from __future__ import annotations

import argparse
import gzip
import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chgeom.harness import SuiteConfig, run_suite  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "golden_exact.json.gz"
TRIALS = 600
RUNS = ([(3, seed) for seed in range(60)] + [(2, seed) for seed in range(20)]
        + [(k, seed) for k in (1, 4, 5) for seed in range(10)])


def run_entries(k: int, seed: int) -> list[dict]:
    """Report entries of one corpus run, tagged with their (k, seed)."""
    report = run_suite(SuiteConfig(suite="all", k=k, trials=TRIALS, seed=seed))
    return [{"k": k, "seed": seed, **p.as_dict()} for p in report.properties]


def load_corpus() -> dict[tuple[int, int], list[dict]]:
    with gzip.open(CORPUS, "rt", encoding="utf-8") as f:
        entries = json.load(f)
    runs: dict[tuple[int, int], list[dict]] = {}
    for e in entries:
        runs.setdefault((e["k"], e["seed"]), []).append(e)
    return runs


def differing(expected: list[dict], actual: list[dict]) -> list[str]:
    """Names of the entries whose JSON text differs, plus any count mismatch."""
    diffs = [a["name"] for e, a in zip(expected, actual)
             if json.dumps(e, sort_keys=True) != json.dumps(a, sort_keys=True)]
    if len(expected) != len(actual):
        diffs.append(f"<{len(expected)} entries expected, {len(actual)} found>")
    return diffs


def describe(expected: dict, actual: dict) -> str:
    """Old -> new of one entry's max_residual, pass, error and other moved fields."""
    keys = ["max_residual", "pass", "error"]
    keys += [key for key in sorted(expected.keys() | actual.keys())
             if key not in keys and expected.get(key) != actual.get(key)]
    return "; ".join(f"{key} {expected.get(key)!r} -> {actual.get(key)!r}" for key in keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the corpus from this tree instead of comparing")
    args = parser.parse_args(argv)

    workers = min(len(os.sched_getaffinity(0)), len(RUNS))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        results = pool.starmap(run_entries, RUNS, chunksize=1)

    if args.write:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        entries = [e for run in results for e in run]
        with gzip.GzipFile(CORPUS, "wb", mtime=0) as f:
            f.write(json.dumps(entries, sort_keys=True).encode("utf-8"))
        print(f"wrote {len(entries)} entries to {CORPUS.relative_to(ROOT)}")
        return 0

    corpus = load_corpus()
    total = n_fail = 0
    per_law: dict[str, list] = {}   # name -> [entries, up, down, worst new / tol]
    for (k, seed), actual in zip(RUNS, results):
        expected = corpus[(k, seed)]
        old = {e["name"]: e for e in expected}
        new = {a["name"]: a for a in actual}
        for name in differing(expected, actual):
            row = per_law.setdefault(name, [0, 0, 0, 0.0])
            row[0] += 1
            if name in old and name in new:
                before, after = old[name]["max_residual"], new[name]["max_residual"]
                row[1] += after > before
                row[2] += after < before
                row[3] = max(row[3], after / new[name]["tol"])
                print(f"k={k} seed={seed}: {name}: {describe(old[name], new[name])}")
            else:
                print(f"k={k} seed={seed}: {name}: differs")
        total += len(actual)
        n_fail += sum(not e["pass"] for e in actual)
    if per_law:
        print("| law | entries | up | down | worst new / tol |")
        print("| --- | ---: | ---: | ---: | ---: |")
        for name, (n, up, down, worst) in sorted(per_law.items(),
                                                 key=lambda item: (-item[1][0], item[0])):
            print(f"| `{name}` | {n} | {up} | {down} | {worst:.2e} |")
    n_diff = sum(row[0] for row in per_law.values())
    print(f"{n_diff} of {total} entries differ in {len(per_law)} laws; "
          f"{n_fail} failing properties")
    return 0 if not per_law else 1


if __name__ == "__main__":
    sys.exit(main())
