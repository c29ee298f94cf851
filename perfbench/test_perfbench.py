"""Tests of the benchmark itself: its checks can fail and its tracing counts.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (ApiQueryWorkload, PassResult, VerifyWorkload,  # noqa: E402
                       check_answer, load_library)


@pytest.fixture(scope="module")
def lib():
    return load_library(ROOT / "src")


@pytest.fixture()
def api(lib):
    wl = ApiQueryWorkload(3, rounds=2)
    wl.setup(lib, seed=7)
    return wl


def fail_ratio(result):
    return result.failed / result.attempted


def test_clean_queries_pass_every_check(api):
    for _ in range(2):   # the second pass is compared with the first
        result = api.run_pass()
        api.check(result)
        assert result.failed == 0, result.errors
    assert {q.op for q in api.queries} == set(api.ops)


def test_corrupted_answers_raise_fail_ratio(api, lib):
    clean = api.run_pass()
    corrupted = {
        "dist": lambda q, a: 1.01 * a,
        "dist_w": lambda q, a: 0.99 * a,
        "crt": lambda q, a: replace(a, b=a.b * 0.9),
        "crt_projective": lambda q, a: replace(a, c=a.c * 1.1),
        "rcircle_member": lambda q, a: a + 1.0,
        "moebius_call": lambda q, a: q.args[1],
        "ccircle_member": lambda q, a: float("nan"),
        "mu": lambda q, a: q.args[2],
        "eta": lambda q, a: q.args[1],
        "conjugate_pole": lambda q, a: q.args[1],
        "ortho_member": lambda q, a: (a[0], -1.0),
        "project_base": lambda q, a: a + 1e-3,
    }
    for op, corrupt in corrupted.items():
        i = next(i for i, q in enumerate(api.queries) if q.op == op)
        assert check_answer(lib, api.queries[i], clean.answers[i]) is None
        assert check_answer(lib, api.queries[i], corrupt(api.queries[i], clean.answers[i])), op
    result = api.run_pass()
    i = next(i for i, q in enumerate(api.queries) if q.op == "mu")
    result.answers[i] = api.queries[i].args[2]
    api.check(result)
    assert result.failed == 1 and fail_ratio(result) > 0


def test_raising_query_raises_fail_ratio(api, lib):
    def broken(*args):
        raise lib.core.GeometryError("injected")

    api.ops["eta"] = broken
    result = api.run_pass()
    api.check(result)
    assert result.failed == api.rounds and fail_ratio(result) > 0
    assert "injected" in result.errors[0]


def test_raising_suite_counts_every_property(lib, monkeypatch):
    wl = VerifyWorkload("holonomy", 2, 10)
    wl.setup(lib, seed=0)

    def raising(cfg):
        raise lib.core.GeometryError("aborted suite")

    monkeypatch.setattr(lib.harness, "run_suite", raising)
    result = wl.run_pass()
    assert result.failed == result.attempted == len(wl.expected) == 7


def test_failing_property_counts(lib):
    wl = VerifyWorkload("holonomy", 2, 10)
    wl.setup(lib, seed=0)
    assert wl.run_pass().failed == 0
    registry = lib.properties.REGISTRY
    i = next(i for i, p in enumerate(registry) if p.suite == "holonomy")
    saved = registry[i]
    registry[i] = replace(saved, fn=lambda cfg, rng: 1.0)
    try:
        result = wl.run_pass()
    finally:
        registry[i] = saved
    assert result.failed == 1 and result.errors[0].startswith(saved.name)


def test_tracer_counts_repeat_and_uninstall_restores(lib):
    wl = VerifyWorkload("holonomy", 2, 20)
    wl.setup(lib, seed=3)
    dist, call = lib.core.dist, lib.projective.MoebiusMap.__call__
    fns = [p.fn for p in lib.properties.REGISTRY]
    tracer = Tracer(lib)
    counts = []
    for _ in range(2):   # install and uninstall alternate in a traced run
        tracer.reset()
        tracer.install()
        try:
            assert lib.circles.dist is not dist and lib.core.dist is lib.circles.dist
            result = wl.run_pass()
        finally:
            tracer.uninstall()
        calls, incl, self_ns = tracer.aggregate()
        counts.append(calls)
        assert (self_ns <= incl + 1).all()
    assert lib.core.dist is dist and lib.circles.dist is dist
    assert lib.projective.MoebiusMap.__call__ is call
    assert [p.fn for p in lib.properties.REGISTRY] == fns
    assert (counts[0] == counts[1]).all()
    by_name = dict(zip(tracer.names, counts[0]))
    assert by_name["projective.moebius_call"] == 0 and by_name["tangent.riem"] > 0
    trials = sum(v for k, v in by_name.items() if k.startswith("properties."))
    assert trials == result.ops


def test_benchmark_json_lists_the_emitted_metrics(lib):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    e2e = run.end_to_end([PassResult(1.0, 10, 1, 0)], [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    names = [p.name for p in lib.properties.REGISTRY]
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metric_units(names))
