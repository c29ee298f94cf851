"""Suite registry, determinism, report formats, CLI exit codes."""

import importlib.util
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chgeom.core import GeometryError, SpaceConfig
from chgeom.harness import (
    REPORT_SCHEMA,
    RNG_CHUNK,
    SuiteConfig,
    UsageError,
    _effective_trials,
    _run_property,
    _trial_rngs,
    main,
    replay,
    run_suite,
)
from chgeom import harness, properties, tangent
from chgeom.properties import REGISTRY, SUITE_NAMES, suite_properties


def test_registry_binding_complete():
    # every property belongs to exactly one named suite
    names = [p.name for p in REGISTRY]
    assert len(names) == len(set(names))
    for p in REGISTRY:
        assert p.suite in SUITE_NAMES
    # every suite is nonempty and every library module is covered
    for suite in SUITE_NAMES:
        assert suite_properties(suite)
    modules = {p.module for p in REGISTRY}
    assert modules == {"core", "projective", "circles", "foliation",
                       "ortho", "tangent"}
    assert suite_properties("all") == list(REGISTRY)
    # each law is registered under the name of the function that defines it
    for p in REGISTRY:
        assert p.fn.__name__ == p.name
        assert getattr(properties, p.name) is p.fn


def test_registry_statements_and_tolerances():
    for p in REGISTRY:
        assert p.statement
        assert p.tol > 0
        assert p.base_trials >= 1


def test_run_suite_deterministic():
    cfg = SuiteConfig(suite="distance_formula", k=2, trials=60, seed=9)
    r1, r2 = run_suite(cfg), run_suite(cfg)
    d1, d2 = r1.as_dict(), r2.as_dict()
    d1.pop("wall_ms"), d2.pop("wall_ms")
    assert d1 == d2


def test_run_suite_seed_sensitivity():
    base = run_suite(SuiteConfig(suite="ptolemy", k=2, trials=40, seed=1))
    other = run_suite(SuiteConfig(suite="ptolemy", k=2, trials=40, seed=2))
    r1 = [p.max_residual for p in base.properties]
    r2 = [p.max_residual for p in other.properties]
    assert r1 != r2


def test_report_schema_fields():
    rep = run_suite(SuiteConfig(suite="holonomy", k=3, trials=30, seed=3))
    data = json.loads(rep.to_json())
    assert data["schema"] == REPORT_SCHEMA
    assert data["suite"] == "holonomy"
    assert data["pass"] is True
    assert set(data["config"]) == {"k", "trials", "seed", "tol"}
    for prop in data["properties"]:
        assert set(prop) == {"name", "statement", "module", "tol", "trials",
                             "max_residual", "worst_trial", "pass", "skipped",
                             "error"}
        assert prop["error"] is None


def test_min_k_skipping():
    rep = run_suite(SuiteConfig(suite="ortho", k=2, trials=20, seed=0))
    by_name = {p.name: p for p in rep.properties}
    assert by_name["nonfiber_chain_counterexample"].skipped
    assert rep.passed


def test_ptolemy_suite_k1_passes():
    rep = run_suite(SuiteConfig(suite="ptolemy", k=1, trials=30, seed=5))
    assert rep.passed


def test_suite_config_validation():
    with pytest.raises(UsageError):
        SuiteConfig(suite="nonsense")
    with pytest.raises(UsageError):
        SuiteConfig(suite="ptolemy", k=0)
    with pytest.raises(UsageError):
        SuiteConfig(suite="ptolemy", trials=0)
    for tol in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(UsageError):
            SuiteConfig(suite="ptolemy", tol=tol)
    with pytest.raises(UsageError):
        SuiteConfig(suite="ptolemy", seed=-1)


@pytest.mark.parametrize("field", ["k", "trials", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_suite_config_rejects_non_integers(field, value):
    # a float seed or k once ran and failed every law with a TypeError, a
    # float trial budget ran rounded counts and seed=True ran as seed 1
    with pytest.raises(UsageError, match=f"{field} must be an integer"):
        SuiteConfig(suite="holonomy", **{field: value})


def test_suite_config_rejects_non_real_tolerance():
    # tol=True once ran with tolerance 1 and tol="1e-9" raised a bare TypeError
    for tol in (True, "1e-9", 1e-9 + 0j):
        with pytest.raises(UsageError, match="tol must be a real number"):
            SuiteConfig(suite="holonomy", tol=tol)
    assert SuiteConfig(suite="holonomy", tol=np.float64(1e-9)).tol == 1e-9


def test_suite_config_takes_numpy_integers_as_ints():
    cfg = SuiteConfig(suite="holonomy", k=np.int64(2), trials=np.int32(20),
                      seed=np.uint64(3))
    assert (cfg.k, cfg.trials, cfg.seed) == (2, 20, 3)
    assert all(type(v) is int for v in (cfg.k, cfg.trials, cfg.seed))
    assert json.loads(run_suite(cfg).to_json())["config"]["seed"] == 3


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
@pytest.mark.parametrize("prop_index", [0, 57])
def test_trial_rngs_are_default_rng_streams(seed, prop_index):
    # a trial's generator is np.random.default_rng((seed, law, trial)) in
    # state and draws, across chunk edges and where an index needs a
    # second (2**32) or a third (2**64) 32-bit word
    spans = [range(5),
             range(2**32 - RNG_CHUNK - 2, 2**32 + 3),
             range(2**64 - 2, 2**64 + 2),
             range(10**30, 10**30 + 2)]
    for indices in spans:
        rngs = list(_trial_rngs(seed, prop_index, indices))
        assert len(rngs) == len(indices)
        for pos in {0, 1, RNG_CHUNK - 1, RNG_CHUNK, len(indices) - 4, len(indices) - 3,
                    len(indices) - 1}:
            if not 0 <= pos < len(indices):
                continue
            i, rng = indices[pos], rngs[pos]
            ref = np.random.default_rng((seed, prop_index, i))
            assert rng.bit_generator.state == ref.bit_generator.state, (indices, pos)
            assert rng.bit_generator.seed_seq.entropy == (seed, prop_index, i)
            assert rng.random(3).tolist() == ref.random(3).tolist()
            assert rng.integers(0, 2**62, 3).tolist() == ref.integers(0, 2**62, 3).tolist()
            assert rng.standard_normal(3).tolist() == ref.standard_normal(3).tolist()
    # any other request to the stand-in is a SeedSequence's answer
    words = next(_trial_rngs(seed, prop_index, range(7, 8))).bit_generator.seed_seq
    ss = np.random.SeedSequence((seed, prop_index, 7))
    assert words.generate_state(8).tolist() == ss.generate_state(8).tolist()
    assert words.generate_state(4, np.uint64).tolist() == ss.generate_state(4, np.uint64).tolist()


def test_trial_rngs_build_lazily():
    # one chunk is hashed at a time, so a huge range costs nothing up front
    start = time.perf_counter()
    rng = next(_trial_rngs(0, 0, range(10**12)))
    assert time.perf_counter() - start < 1.0
    assert rng.bit_generator.state == np.random.default_rng((0, 0, 0)).bit_generator.state


def test_run_makes_no_seed_sequence_per_trial(monkeypatch):
    # every trial's generator comes from the stacked hash, one per property
    # run; neither default_rng nor SeedSequence is called
    def forbidden(*args, **kwargs):
        raise AssertionError("a generator was seeded one trial at a time")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    hashes = []
    monkeypatch.setattr(harness, "_pcg64_seeds",
                        lambda e, hash=harness._pcg64_seeds: hashes.append(1) or hash(e))
    cfg = SuiteConfig(suite="all", k=2, seed=5)
    for name in ("ptolemy_inequality", "sectional_bounds"):  # per-trial, batched
        i = next(i for i, p in enumerate(REGISTRY) if p.name == name)
        seeds = []
        prop = replace(REGISTRY[i], fn=lambda cfg, rng, fn=REGISTRY[i].fn:
                       seeds.append(rng.bit_generator.seed_seq) or fn(cfg, rng))
        hashes.clear()
        rep = _run_property(prop, i, cfg, range(200))
        assert rep.passed and rep.trials == 200
        assert hashes == [1]
        assert [s.entropy for s in seeds] == [(5, i, t) for t in range(200)]
        assert not any(isinstance(s, np.random.bit_generator.SeedSequence) for s in seeds)
    # a raising block re-runs its trials on generators from one more builder
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    prop = replace(REGISTRY[i], fn=_trial_index, batched=_block_raises_at_trial_3)
    hashes.clear()
    rep = _run_property(prop, i, cfg, range(200))
    assert rep.worst_trial == 3 and rep.error == "GeometryError: injected at trial 3"
    assert hashes == [1, 1]


def _residual_on_default_rng(i, k, seed, trial):
    # the law's residual, drawn from numpy's own generator for the trial
    p, space = REGISTRY[i], SpaceConfig(k=k)
    r = p.fn(space, np.random.default_rng((seed, i, trial)))
    return float(r if p.batched is None else p.batched(space, [r])[0])


@pytest.mark.parametrize("name", ["metric_double_inversion", "curvature_symmetries",
                                  "wharm_product_identity"])
def test_replay_beyond_two_to_the_32(name, capsys):
    i = next(i for i, p in enumerate(REGISTRY) if p.name == name)
    trial = 2**32 + 17
    expected = _residual_on_default_rng(i, 2, 11, trial)
    assert expected > 0.0
    cfg = SuiteConfig(suite=REGISTRY[i].suite, k=2, seed=11)
    assert _run_property(REGISTRY[i], i, cfg, range(trial, trial + 1)).max_residual == expected
    assert replay(f"{REGISTRY[i].suite}:11:{trial}", k=2) == 0
    line = next(line for line in capsys.readouterr().out.splitlines() if name in line)
    assert f"residual={expected:9.3e}" in line


def test_main_exit_codes(capsys):
    assert main(["--suite", "holonomy", "--dim", "3", "--trials", "20"]) == 0
    capsys.readouterr()
    assert main(["--suite", "not_a_suite", "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert main([]) == 2
    # a negative seed and an infinite tolerance are usage errors, not runs
    for argv in (["--suite", "holonomy", "--seed", "-1"],
                 ["--replay", "holonomy:-1:0"],
                 ["--suite", "holonomy", "--trials", "20", "--tol", "inf"]):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err


def test_main_json_format(capsys):
    code = main(["--suite", "axioms_o", "--dim", "2", "--trials", "20",
                 "--format", "json", "--seed", "4"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "axioms_o"


def test_main_tol_override(capsys):
    # an absurdly tight tolerance forces residual failures, exit code 1
    code = main(["--suite", "distance_formula", "--dim", "2", "--trials", "40",
                 "--tol", "1e-30"])
    capsys.readouterr()
    assert code == 1


def test_replay_runs_single_trial(capsys):
    assert replay("circles:42:0", k=2) == 0
    out = capsys.readouterr().out
    assert "replaying trial 0" in out
    assert "conjugate_pole_cocircular" in out
    assert replay("ortho:0:0", k=2) == 0
    assert "[SKIP] nonfiber_chain_counterexample" in capsys.readouterr().out
    with pytest.raises(UsageError):
        replay("badspec", k=2)
    with pytest.raises(UsageError):
        replay("circles:42:-1", k=2)


def test_main_replay_flag(capsys):
    assert main(["--replay", "holonomy:7:0", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "curvature_golden_values" in out


def test_console_script_and_threads():
    proc = subprocess.run(
        [sys.executable, "-m", "chgeom.harness", "--suite", "join",
         "--dim", "2", "--trials", "40", "--seed", "6", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    # a separate process reproduces the in-process residuals exactly
    single = run_suite(SuiteConfig(suite="join", k=2, trials=40, seed=6))
    script = {p["name"]: p["max_residual"] for p in data["properties"]}
    for p in single.properties:
        assert script[p.name] == p.max_residual


def _raises_at_trial_3(cfg, rng):
    # trial streams are seeded by (seed, property index, trial index)
    if rng.bit_generator.seed_seq.entropy[-1] == 3:
        raise GeometryError("injected at trial 3")
    return 0.0


def test_raising_trial_fails_its_property(capsys):
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    saved = REGISTRY[i]
    REGISTRY[i] = replace(saved, fn=_raises_at_trial_3, batched=None)
    try:
        rep = run_suite(SuiteConfig(suite="holonomy", k=2, trials=100, seed=5))
        code = main(["--suite", "holonomy", "--dim", "2", "--trials", "100",
                     "--seed", "5"])
        out = capsys.readouterr().out
        assert replay("holonomy:5:3", k=2) == 1
        replayed = capsys.readouterr().out
    finally:
        REGISTRY[i] = saved
    by_name = {p.name: p for p in rep.properties}
    failing = by_name["sectional_bounds"]
    assert not failing.passed and failing.worst_trial == 3
    assert failing.error == "GeometryError: injected at trial 3"
    assert all(p.passed for p in rep.properties if p is not failing)
    assert code == 1
    assert "[FAIL] sectional_bounds" in out
    assert "trial 3 raised GeometryError: injected at trial 3" in out
    assert "--replay holonomy:5:3" in out
    assert "raised GeometryError: injected at trial 3" in replayed


def _trial_index(cfg, rng):
    # a draw that is the trial's index
    return rng.bit_generator.seed_seq.entropy[-1]


def _block_raises_at_trial_3(cfg, draws):
    if 3 in draws:
        raise GeometryError("injected at trial 3")
    return np.zeros(len(draws))


def _run_with_sectional_bounds(fn, batched, capsys):
    # the holonomy report without its wall time, and the replay of trial 3
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    saved = REGISTRY[i]
    REGISTRY[i] = replace(saved, fn=fn, batched=batched)
    try:
        rep = run_suite(SuiteConfig(suite="holonomy", k=2, trials=100, seed=5)).as_dict()
        code = replay("holonomy:5:3", k=2)
    finally:
        REGISTRY[i] = saved
    rep.pop("wall_ms")
    return rep, code, capsys.readouterr().out


@pytest.mark.parametrize("fn, batched", [
    (_trial_index, _block_raises_at_trial_3),        # the block evaluation raises
    (_raises_at_trial_3, lambda cfg, draws: draws),  # trial 3's draw raises
])
def test_batched_raising_trial_reports_like_per_trial(fn, batched, capsys):
    # the block raises, so its trials are re-run one at a time
    per_trial = _run_with_sectional_bounds(_raises_at_trial_3, None, capsys)
    block = _run_with_sectional_bounds(fn, batched, capsys)
    assert block == per_trial
    failing = {p["name"]: p for p in block[0]["properties"]}["sectional_bounds"]
    assert failing["worst_trial"] == 3
    assert failing["error"] == "GeometryError: injected at trial 3"
    assert block[1] == 1 and "raised GeometryError: injected at trial 3" in block[2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batched_non_finite_row_fails_at_its_trial(bad, capsys):
    def residual(trial):
        return {1: 1e-13, 3: bad}.get(trial, 0.0)

    per_trial = _run_with_sectional_bounds(
        lambda cfg, rng: residual(_trial_index(cfg, rng)), None, capsys)
    block = _run_with_sectional_bounds(
        _trial_index, lambda cfg, draws: np.array([residual(t) for t in draws]), capsys)
    assert block == per_trial
    failing = {p["name"]: p for p in block[0]["properties"]}["sectional_bounds"]
    assert failing["worst_trial"] == 3 and failing["max_residual"] == 1e-13
    assert failing["error"] == f"non-finite residual {bad}"
    assert block[1] == 1 and f"non-finite residual {bad}" in block[2]


def test_batched_law_must_return_one_residual_per_trial(capsys):
    rep, code, _ = _run_with_sectional_bounds(_trial_index, lambda cfg, draws: 0.0, capsys)
    failing = {p["name"]: p for p in rep["properties"]}["sectional_bounds"]
    assert failing["worst_trial"] == 0 and not failing["pass"]
    assert failing["error"] == "ValueError: 1 trials gave residuals of shape ()"
    assert code == 1


def test_batched_law_draws_once_per_trial_and_evaluates_per_block():
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    saved = REGISTRY[i]
    draws, blocks = [], []
    REGISTRY[i] = replace(
        saved, fn=lambda cfg, rng: draws.append(1) or saved.fn(cfg, rng),
        batched=lambda cfg, d: blocks.append(len(d)) or saved.batched(cfg, d))
    try:
        rep = _run_property(REGISTRY[i], i, SuiteConfig(suite="holonomy", k=2, seed=5),
                            range(200))
    finally:
        REGISTRY[i] = saved
    assert rep.passed and rep.trials == 200
    assert len(draws) == 200 and blocks == [64, 64, 64, 8]


BATCHED_LAWS = [
    "metric_triangle_inequality", "rcircle_ptolemy_equality",
    "ccircle_squared_ptolemy_equality", "metric_double_inversion", "distance_formula_r4",
    "oc_harmonicity", "or_harmonicity", "vertical_shift_isometry", "lift_additivity",
    "lift_homothety_scaling", "lift_triangle_area_ratio", "lift_diagonal_split",
    "lift_square_displacement", "curvature_symmetries", "polarization_identity",
    "curvature_operator_spectrum", "holonomy_identity", "sectional_bounds",
    "unitary_reflection_transitivity", "generator_chart_actions", "crt_moebius_invariance",
    "crt_cross_model_agreement", "lift_drop_roundtrip",
]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_block_equals_batches_of_one(k):
    # replay runs a batch of one, so it must reproduce the block's rows bit
    # for bit, in every dimension a law runs in
    batched = [(i, p) for i, p in enumerate(REGISTRY) if p.batched is not None]
    assert [p.name for _, p in batched] == BATCHED_LAWS
    space = SpaceConfig(k=k)
    for i, p in batched:
        if k < p.min_k:
            continue
        draws = [p.fn(space, np.random.default_rng((7, i, t))) for t in range(200)]
        block = np.asarray(p.batched(space, draws), dtype=float)
        ones = [np.asarray(p.batched(space, [p.fn(space, np.random.default_rng((7, i, t)))]),
                           dtype=float)[0] for t in range(200)]
        assert block.tolist() == ones, p.name


def _small_residual_at_k3_trial_1(cfg, rng):
    if cfg.k == 3 and rng.bit_generator.seed_seq.entropy[-1] == 1:
        return 1e-6
    return 0.0


def test_printed_replay_reproduces_the_failure(capsys):
    # the failure needs k=3 and the run's --tol, and trial 1 lies beyond
    # the property's reference count of 1 trial
    saved = list(REGISTRY)
    for i, p in enumerate(saved):
        if p.suite == "holonomy":
            fn = (_small_residual_at_k3_trial_1 if p.name == "curvature_golden_values"
                  else lambda cfg, rng: 0.0)
            REGISTRY[i] = replace(p, fn=fn, tol=1.0, batched=None)
    try:
        code = main(["--suite", "holonomy", "--dim", "3", "--trials", "20000",
                     "--seed", "5", "--tol", "1e-7"])
        out = capsys.readouterr().out
        hint = next(line for line in out.splitlines() if "replay with" in line)
        argv = hint.split("replay with ", 1)[1].split()
        replay_code = main(argv)
        replayed = capsys.readouterr().out
    finally:
        REGISTRY[:] = saved
    assert code == 1
    assert argv == ["--replay", "holonomy:5:1", "--dim", "3", "--tol", "1e-07"]
    assert replay_code == 1
    assert replayed.count("[FAIL]") == 1
    assert "[FAIL] curvature_golden_values" in replayed


def _reject_nonstandard_constant(name):
    raise AssertionError(f"report is not strict JSON: {name}")


def test_nan_residual_fails_its_property(capsys):
    # NaN compares false against every bound and -inf lies below every
    # bound, so neither may slip through a run or its replay
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    saved = REGISTRY[i]
    for bad in (float("nan"), -math.inf):
        REGISTRY[i] = replace(saved, fn=lambda cfg, rng, bad=bad: bad, batched=None)
        try:
            rep = run_suite(SuiteConfig(suite="holonomy", k=2, trials=100, seed=5))
            code = main(["--suite", "holonomy", "--dim", "2", "--trials", "100",
                         "--seed", "5", "--format", "json"])
            out = capsys.readouterr().out
            replay_code = replay("holonomy:5:0", k=2)
            replayed = capsys.readouterr().out
        finally:
            REGISTRY[i] = saved
        failing = {p.name: p for p in rep.properties}["sectional_bounds"]
        assert not failing.passed and failing.worst_trial == 0
        assert failing.error == f"non-finite residual {bad}"
        assert failing.max_residual == 0.0
        assert code == 1
        data = json.loads(out, parse_constant=_reject_nonstandard_constant)
        assert data["pass"] is False
        assert replay_code == 1
        assert replayed.count("[FAIL]") == 1
        assert "[FAIL] sectional_bounds" in replayed
        assert f"non-finite residual {bad}" in replayed


def test_text_report_says_raised_only_for_exceptions():
    # a NaN residual is named as such, as replay names it
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    saved = REGISTRY[i]
    REGISTRY[i] = replace(saved, fn=lambda cfg, rng: math.nan, batched=None)
    try:
        text = run_suite(SuiteConfig(suite="holonomy", k=2, trials=100, seed=5)).to_text()
    finally:
        REGISTRY[i] = saved
    assert "trial 0 non-finite residual nan" in text
    assert "raised" not in text


def test_replay_says_raised_only_for_exceptions(capsys):
    # a trial that returns NaN or infinity raised nothing; one that raises did
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    saved = REGISTRY[i]

    def boom(cfg, rng):
        raise GeometryError("injected")

    lines = {}
    for label, fn in (("nan", lambda cfg, rng: math.nan), ("inf", lambda cfg, rng: math.inf),
                      ("boom", boom)):
        REGISTRY[i] = replace(saved, fn=fn, batched=None)
        try:
            assert replay("holonomy:5:0", k=2) == 1
        finally:
            REGISTRY[i] = saved
        out = capsys.readouterr().out.splitlines()
        lines[label] = next(line for line in out if "sectional_bounds" in line)
    name = f"{'sectional_bounds':<36}"
    assert lines["nan"] == f"  [FAIL] {name} non-finite residual nan"
    assert lines["inf"] == f"  [FAIL] {name} non-finite residual inf"
    assert lines["boom"] == f"  [FAIL] {name} raised GeometryError: injected"


@pytest.mark.parametrize("seed, name", [
    (31, "standard_rcircle_harmonic"),
    (51, "ortho_membership_tests_agree"),
    (54, "ortho_reflection_stability"),
])
def test_squeezed_complements_are_resampled(seed, name):
    # these suite seeds once drew complements too close to their chain to
    # sample from, and the trial raised
    i = next(i for i, p in enumerate(REGISTRY) if p.name == name)
    cfg = SuiteConfig("all", k=3, trials=600, seed=seed)
    rep = _run_property(REGISTRY[i], i, cfg, range(_effective_trials(REGISTRY[i], 600)))
    assert rep.passed and rep.error is None


def _sectional_bounds_report(k, seed):
    # sectional_bounds at its reference count of trials
    i = next(i for i, p in enumerate(REGISTRY) if p.name == "sectional_bounds")
    cfg = SuiteConfig(suite="holonomy", k=k, seed=seed)
    return _run_property(REGISTRY[i], i, cfg, range(_effective_trials(REGISTRY[i], 10000)))


@pytest.mark.parametrize("seed", range(10))
def test_sectional_bounds_passes_on_nearly_parallel_k1_planes(seed):
    # at k = 1 every plane has K = -4; nearly parallel u, v once read
    # rounding excesses up to 1.25e-8 against tol 1e-10
    rep = _sectional_bounds_report(1, seed)
    assert rep.trials == 2000 and rep.passed, rep.max_residual


@pytest.mark.parametrize("k", [1, 2])
def test_sectional_bounds_catches_scaled_curvature(k, monkeypatch):
    sec_k = tangent.sec_k
    monkeypatch.setattr(tangent, "sec_k", lambda p, q: 1.01 * sec_k(p, q))
    assert not _sectional_bounds_report(k, 0).passed


def test_law_timings_script_lists_every_law_of_the_suite():
    path = Path(__file__).resolve().parents[1] / "scripts" / "law_timings.py"
    spec = importlib.util.spec_from_file_location("law_timings", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = script.law_timings(SuiteConfig(suite="ptolemy", k=2, trials=50, seed=1), 2)
    assert sorted(r["name"] for r in rows) == sorted(p.name for p in suite_properties("ptolemy"))
    assert [r["ms"] for r in rows] == sorted((r["ms"] for r in rows), reverse=True)
    assert all(r["pass"] and r["us_per_trial"] > 0 for r in rows)
    assert {r["name"]: r["batched"] for r in rows}["metric_double_inversion"]
