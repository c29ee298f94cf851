"""Benchmark of the chgeom library and its verification harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload api_query_k3 --seed 1 --seconds 20 --trace 0

Each workload runs in this one process, with one caller in a closed loop,
no threads or pools and one BLAS thread.  The package is imported from
``src/`` of the checkout (nothing needs building); without it the script
exits with code 2 and prints no result.  Set-up (importing the package
and building the workload's inputs) is repeated and its median reported
as ``setup_s``.  The timed phase then repeats identical passes for
``--seconds`` and reports medians.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced passes alternate with passes under span tracing
of every layer, and the JSON holds the per-layer metrics.  The
spans of the last traced pass are written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One caller and one BLAS thread; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VERIFY_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 5          # set up at least this often, and for SETUP_SECONDS
SETUP_SECONDS = 2.0
MIN_PASSES = 3

# name -> (suite or None for the query workload, k, trial budget or rounds)
WORKLOADS = {
    "verify_all_k3": ("all", 3, 600),
    "api_query_k3": (None, 3, 250),
    "verify_holonomy_k2": ("holonomy", 2, 3000),
}

# inclusive mean microseconds per call are reported for these spans
US_SPANS = {
    "core": ("dist", "dist_w", "crt", "chordal_sq", "point"),
    "projective": ("lift", "drop", "herm", "moebius_call", "moebius_matmul",
                   "moebius_inverse", "crt_projective"),
    "circles": ("ccircle_through", "chain_chart", "mu", "eta", "conjugate_pole",
                "rcircle_through_hitting", "ccircle_member", "rcircle_member"),
    "foliation": ("project_base", "base_dist", "busemann"),
    "ortho": ("ortho_membership_residuals", "join_decompose", "canonical_fiber"),
    "tangent": ("riem", "sectional", "curvature_operator_spectrum"),
    "sampling": ("sample_point", "sample_distinct_points", "random_moebius",
                 "sample_chain", "sample_ortho_complement"),
}
# calls per pass are reported for these spans
CALL_SPANS = ("core.dist", "core.point", "projective.lift", "projective.drop",
              "projective.herm", "projective.moebius_call", "projective.moebius_matmul",
              "circles.chain_chart", "circles.mu", "sampling.sample_point")


def make_workload(name: str):
    from workloads import ApiQueryWorkload, VerifyWorkload

    suite, k, budget = WORKLOADS[name]
    return ApiQueryWorkload(k, rounds=budget) if suite is None else VerifyWorkload(suite, k, budget)


def layer_metric_units(property_names) -> dict:
    """Every per-layer metric name with its unit, in output order."""
    from tracing import LIBRARY_MODULES, MODULES

    units = {f"{m}.self_s": "s" for m in MODULES}
    units.update({f"{m}.calls": "count" for m in LIBRARY_MODULES})
    units["harness.us_per_trial"] = "us"
    units.update({f"properties.{p}.us_per_trial": "us" for p in property_names})
    units.update({f"{m}.{f}.us": "us" for m, fs in US_SPANS.items() for f in fs})
    units.update({f"{s}.calls": "count" for s in CALL_SPANS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_passes(wl, seconds: float, latencies=None):
    """Repeat passes while the next one should end within ``seconds``.

    At least MIN_PASSES run; each pass is checked after it is timed.
    """
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + passes[-1].wall_s <= seconds):
        result = wl.run_pass(latencies)
        wl.check(result)
        passes.append(result)
    return passes


def run_traced(wl, tracer, seconds: float):
    """Alternate untraced and traced passes within ``seconds``.

    Alternating lets both kinds see the same machine state, so the ratio
    of their medians is the tracing overhead.  Returns the untraced
    passes, the traced passes and the span aggregates of each traced
    pass; the tracer keeps the spans of the last one.  Answers are
    checked untraced, so checks record no spans.
    """
    plain, traced, aggregates = [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_PASSES or time.perf_counter() - start
           + plain[-1].wall_s + traced[-1].wall_s <= seconds):
        result = wl.run_pass()
        wl.check(result)
        plain.append(result)
        tracer.reset()
        tracer.install()
        try:
            result = wl.run_pass()
        finally:
            tracer.uninstall()
        aggregates.append(tracer.aggregate())
        wl.check(result)
        traced.append(result)
    return plain, traced, aggregates


def end_to_end(passes, setup_times) -> dict:
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "ops_per_s": (statistics.median(p.ops / p.wall_s for p in passes), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def query_latency_lines(queries, latencies) -> list:
    """Single-call latency of the query workload: printed, not declared.

    The run's percentiles, then the median of each kind of call.  The
    overall median falls between two kinds of call, so it is too unsteady
    to gate on (see README).
    """
    import numpy as np

    lat = np.stack(latencies) / 1e3   # one row per pass, one column per query
    p50, p99 = np.percentile(lat, [50, 99])
    lines = [f"  query_p50_us {p50:.6g} us, query_p99_us {p99:.6g} us "
             f"({lat.size} single calls)"]
    kinds = np.array([q.op for q in queries])
    for op in dict.fromkeys(kinds):
        lines.append(f"    {op:<16} median {np.median(lat[:, kinds == op]):10.4g} us")
    return lines


def per_layer(tracer, traced, trials_per_pass: float, overhead: float, property_names) -> dict:
    """Per-layer values from the per-pass aggregates in ``traced``.

    A named function the library no longer has reads 0.
    """
    import numpy as np

    n = len(traced)
    calls = traced[0][0]
    incl = sum(a[1] for a in traced)
    self_ns = sum(a[2] for a in traced)
    all_calls = sum(a[0] for a in traced)
    index = {name: i for i, name in enumerate(tracer.names)}
    module_of = np.array([name.split(".", 1)[0] for name in tracer.names])
    units = layer_metric_units(property_names)
    values = {}
    for name in units:
        head, _, tail = name.rpartition(".")
        if tail == "self_s":
            values[name] = float(self_ns[module_of == head].sum()) / n / 1e9
        elif tail == "calls" and "." not in head:
            values[name] = int(calls[module_of == head].sum())
        elif tail == "calls":
            values[name] = int(calls[index[head]]) if head in index else 0
        elif name == "harness.us_per_trial":
            per_pass = float(self_ns[module_of == "harness"].sum()) / n
            values[name] = per_pass / trials_per_pass / 1e3 if trials_per_pass else 0.0
        elif tail in ("us", "us_per_trial"):
            i = index.get(head)
            used = i is not None and all_calls[i]
            values[name] = float(incl[i]) / all_calls[i] / 1e3 if used else 0.0
        elif name == "trace.overhead_ratio":
            values[name] = overhead
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "chgeom" / "__init__.py").is_file():
        print(f"error: no chgeom package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import load_library

    wl = make_workload(args.workload)
    setup_times = []
    while len(setup_times) < SETUP_REPS or (sum(setup_times) < SETUP_SECONDS
                                            and len(setup_times) < 5 * SETUP_REPS):
        t0 = time.perf_counter()
        lib = load_library(SRC)
        wl.setup(lib, args.seed)
        setup_times.append(time.perf_counter() - t0)
    property_names = [p.name for p in lib.properties.REGISTRY]
    lines = []

    if args.trace:
        from tracing import Tracer

        tracer = Tracer(lib)
        untraced, tr_passes, traced = run_traced(wl, tracer, args.seconds)
        passes = untraced + tr_passes
        overhead = (statistics.median(p.wall_s for p in tr_passes)
                    / statistics.median(p.wall_s for p in untraced))
        ops = statistics.mean(p.ops for p in tr_passes)
        metrics = per_layer(tracer, traced, ops, overhead, property_names)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        lines.append(f"{len(untraced)} untraced and {len(tr_passes)} traced passes")
    else:
        latencies = []
        passes = run_passes(wl, args.seconds, latencies)
        metrics = end_to_end(passes, setup_times)
        walls = sorted(p.wall_s for p in passes)
        lines.append(f"{len(passes)} passes of {walls[0]:.4g} to {walls[-1]:.4g} s, quartiles "
                     f"{', '.join(f'{q:.4g}' for q in statistics.quantiles(walls, n=4))}; "
                     f"{len(setup_times)} set-ups")
        if latencies:
            lines += query_latency_lines(wl.queries, latencies)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for e in errors[:10]:
        print(f"  error: {e}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
