"""Suite runner and ``verify`` command line interface.

Suites bundle the registered properties; a run is deterministic given
(seed, dimension, trials): every trial draws from its own generator,
exactly ``np.random.default_rng((seed, property index, trial index))``,
so results do not depend on the order of the trials or on their number,
and any failing sample is replayable with ``--replay suite:seed:index
--dim k`` (plus the run's ``--tol``, if one was given).  ``--replay`` is
a run of that one trial, judged by the same code as the run.  The
generators are built in chunks of trials: numpy's SeedSequence hash runs
once per chunk on the trials' stacked states, and a test pins the result
to numpy's own generators, state and draws.  Trials run one after
another in one thread; a batched law draws them one by one and
evaluates them in blocks, and a replayed trial as a batch of one.  A
trial that raises, or returns a non-finite residual, fails its
property: the report names the exception (or the residual) and the
trial index, and no later trial is judged.

The dimension, trial budget and seed must be integers, the seed >= 0,
and ``--tol`` positive and finite; ``--format`` only selects how the
report is printed.

Exit codes: 0 all properties pass, 1 a property failed (a raising or
non-finite trial included), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields
from itertools import islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import SpaceConfig
from .properties import REGISTRY, SUITE_NAMES, Property, suite_properties

__all__ = [
    "SuiteConfig",
    "PropertyReport",
    "SuiteReport",
    "UsageError",
    "run_suite",
    "replay",
    "main",
]

REPORT_SCHEMA = "chgeom-report/1"

# --trials value at which every property runs its reference trial count
REFERENCE_TRIALS = 10000

# how a report's ``error`` names a trial that returned NaN or infinity
_NON_FINITE = "non-finite residual"

# trials a batched law evaluates per call: enough to spread numpy's
# per-call cost, few enough that a block's arrays stay small
BLOCK_TRIALS = 64

# trials whose generator seeds are hashed together: the hash costs numpy's
# per-call overhead once per chunk, and a chunk's arrays stay small
RNG_CHUNK = 4096

# numpy.random.SeedSequence's hash (O'Neill's seed_seq_fe mix) on 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class UsageError(Exception):
    """Bad suite name or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    k: int = 2
    trials: int = 1000
    seed: int = 0
    tol: float | None = None

    def __post_init__(self) -> None:
        if self.suite not in (*SUITE_NAMES, "all"):
            raise UsageError(f"unknown suite {self.suite!r}; "
                             f"choose from {', '.join((*SUITE_NAMES, 'all'))}")
        for name in ("k", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise UsageError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers too
        if self.k < 1:
            raise UsageError("dimension must be a positive integer")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.tol is not None and (isinstance(self.tol, bool)
                                     or not isinstance(self.tol, numbers.Real)):
            raise UsageError(f"tol must be a real number, not {self.tol!r}")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise UsageError("tolerance must be positive and finite")


@dataclass
class PropertyReport:
    name: str
    statement: str
    module: str
    tol: float
    trials: int
    max_residual: float
    worst_trial: int
    passed: bool
    skipped: bool = False
    error: str | None = None   # exception raised (or non-finite residual) at worst_trial

    def as_dict(self) -> dict:
        """The fields in declaration order; ``passed`` is reported as "pass"."""
        return {("pass" if f.name == "passed" else f.name): getattr(self, f.name)
                for f in fields(self)}


@dataclass
class SuiteReport:
    suite: str
    config: dict
    properties: list = field(default_factory=list)
    wall_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def as_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "config": self.config,
            "pass": self.passed,
            "properties": [p.as_dict() for p in self.properties],
            "wall_ms": self.wall_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  (k={self.config['k']}, "
                 f"trials={self.config['trials']}, seed={self.config['seed']})"]
        for p in self.properties:
            status = "SKIP" if p.skipped else ("PASS" if p.passed else "FAIL")
            lines.append(
                f"  [{status}] {p.name:<36} max_residual={p.max_residual:9.3e}  "
                f"tol={p.tol:7.1e}  trials={p.trials}"
            )
            if p.error is not None:
                lines.append(f"         trial {p.worst_trial} raised {p.error}")
            if not p.passed:
                spec = f"{self.suite}:{self.config['seed']}:{p.worst_trial}"
                flags = f"--dim {self.config['k']}"
                if self.config["tol"] is not None:
                    flags += f" --tol {self.config['tol']!r}"
                lines.append(f"         worst trial {p.worst_trial}; replay with "
                             f"--replay {spec} {flags}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {verdict}  ({self.wall_ms:.0f} ms)")
        return "\n".join(lines)


def _words(n: int) -> list:
    # the 32-bit words of n >= 0, low word first, as SeedSequence splits an int
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every column e.

    ``entropy`` is (words, n) uint32: n assembled entropies of one
    length.  This is numpy's SeedSequence hash step for step, on rows of
    n words at once; uint32 arrays wrap like its C words.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        value = value * np.uint32(h)
        return value ^ value >> 16

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ r >> 16

    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.empty((entropy.shape[1], 2 * _POOL_SIZE), dtype="<u4")
    for j in range(state.shape[1]):
        value = pool[j % _POOL_SIZE] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        state[:, j] = value ^ value >> 16
    # word pairs, low word first, as generate_state joins them
    return state.view("<u8").astype(np.uint64)


class _TrialSeed(ISeedSequence):
    """The ``SeedSequence(entropy)`` of one trial, its PCG64 seed computed in advance."""

    def __init__(self, entropy: tuple, pcg64_seed: np.ndarray):
        self.entropy = entropy
        self._pcg64_seed = pcg64_seed

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:  # what PCG64 asks for
            return self._pcg64_seed
        return np.random.SeedSequence(self.entropy).generate_state(n_words, dtype)


def _trial_rngs(seed: int, prop_index: int, indices: range):
    """Yield ``np.random.default_rng((seed, prop_index, i))`` for each i of ``indices``.

    The generators are built lazily, but their seeds are hashed for up
    to RNG_CHUNK trials at a time; ``indices`` must ascend.
    """
    head = _words(seed) + _words(prop_index)
    start = 0
    while start < len(indices):
        # the next trials whose indices have as many words as this one
        width = len(_words(indices[start]))
        first_wider = -((indices.start - (1 << 32 * width)) // indices.step)  # a position
        chunk = indices[start:min(start + RNG_CHUNK, first_wider)]
        rows = [np.full(len(chunk), w, dtype=np.uint32) for w in head]
        rows += [np.fromiter(((i >> 32 * j) & _MASK32 for i in chunk), np.uint32, len(chunk))
                 for j in range(width)]
        for i, pcg64_seed in zip(chunk, _pcg64_seeds(np.array(rows))):
            yield np.random.Generator(np.random.PCG64(_TrialSeed((seed, prop_index, i),
                                                                 pcg64_seed)))
        start += len(chunk)


def _effective_trials(prop: Property, trials: int) -> int:
    return max(1, round(prop.base_trials * trials / REFERENCE_TRIALS))


def _run_property(prop: Property, prop_index: int, cfg: SuiteConfig,
                  indices: range) -> PropertyReport:
    """Run the trials ``indices`` of one property and judge them.

    Each trial draws from its own generator, taken from one
    ``_trial_rngs`` builder over ``indices``.  A batched law draws each
    trial's inputs with ``prop.fn``, one call per trial, and evaluates
    them in blocks of up to BLOCK_TRIALS with ``prop.batched``, one call
    per block.  If a block raises, its trials are re-run one at a time,
    as batches of one on fresh generators from one more builder over the
    block, so that the report names the first trial that raises.
    """
    space = SpaceConfig(k=cfg.k)
    tol = cfg.tol if cfg.tol is not None else prop.tol
    if cfg.k < prop.min_k:
        return PropertyReport(
            name=prop.name, statement=prop.statement, module=prop.module,
            tol=tol, trials=0, max_residual=0.0, worst_trial=-1,
            passed=True, skipped=True,
        )

    def run(rngs):  # one residual per trial, from the trials' generators
        out = [prop.fn(space, rng) for rng in rngs]
        if prop.batched is None:  # fn gave the residuals
            return [float(r) for r in out]
        r = np.asarray(prop.batched(space, out), dtype=float)  # fn gave the draws
        if r.shape != (len(out),):
            raise ValueError(f"{len(out)} trials gave residuals of shape {r.shape}")
        return r.tolist()

    def attempt(trials, rngs):  # (trial, residual or the exception it raised)
        try:
            residuals = run(rngs)
        except Exception as exc:  # a raising trial fails its property, not the run
            if len(trials) == 1:
                yield trials[0], exc
            else:  # fresh generators for the block, from one builder
                fresh = _trial_rngs(cfg.seed, prop_index, trials)
                for i in trials:
                    yield from attempt(range(i, i + 1), [next(fresh)])
            return
        yield from zip(trials, residuals)

    def outcomes():  # attempt() of each block, its generators taken from one builder
        step = 1 if prop.batched is None else BLOCK_TRIALS
        rngs = _trial_rngs(cfg.seed, prop_index, indices)
        for start in range(0, len(indices), step):
            block = indices[start:start + step]
            yield from attempt(block, list(islice(rngs, len(block))))

    worst, worst_i, error = 0.0, -1, None
    for i, r in outcomes():
        if isinstance(r, Exception):
            worst_i, error = i, f"{type(r).__name__}: {r}"
            break
        if not math.isfinite(r):  # fails like a raising trial; r > worst misses NaN
            worst_i, error = i, f"{_NON_FINITE} {r}"
            break
        if r > worst:
            worst, worst_i = r, i
    return PropertyReport(
        name=prop.name, statement=prop.statement, module=prop.module,
        tol=tol, trials=len(indices), max_residual=worst, worst_trial=worst_i,
        passed=error is None and worst <= tol, error=error,
    )


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run every property of the suite; deterministic given (seed, cfg)."""
    report = SuiteReport(
        suite=cfg.suite,
        config={"k": cfg.k, "trials": cfg.trials, "seed": cfg.seed, "tol": cfg.tol},
    )
    start = time.perf_counter()
    for prop in suite_properties(cfg.suite):
        indices = range(_effective_trials(prop, cfg.trials))
        report.properties.append(_run_property(prop, REGISTRY.index(prop), cfg, indices))
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report


def replay(spec: str, k: int, tol: float | None = None) -> int:
    """Re-run a single trial of every property of a suite, verbosely.

    ``spec`` has the form suite:seed:index; each property runs that one
    trial through the same judge as ``run_suite``.
    """
    try:
        suite, seed_s, index_s = spec.split(":")
        seed, index = int(seed_s), int(index_s)
    except ValueError as exc:
        raise UsageError("replay spec must be suite:seed:index") from exc
    if index < 0:
        raise UsageError("replay index must be >= 0")
    cfg = SuiteConfig(suite=suite, k=k, seed=seed, tol=tol)
    failures = 0
    print(f"replaying trial {index} of suite {suite} (seed={seed}, k={k})")
    for prop in suite_properties(suite):
        p = _run_property(prop, REGISTRY.index(prop), cfg, range(index, index + 1))
        if p.skipped:
            print(f"  [SKIP] {p.name} (needs k >= {prop.min_k})")
            continue
        if p.error is not None:  # nothing raised for a non-finite residual
            detail = p.error if p.error.startswith(_NON_FINITE) else f"raised {p.error}"
        else:
            detail = f"residual={p.max_residual:9.3e}  tol={p.tol:7.1e}"
        failures += not p.passed
        print(f"  [{'PASS' if p.passed else 'FAIL'}] {p.name:<36} {detail}")
        print(f"          {p.statement}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Randomized verification suites for the boundary geometry engine.",
    )
    parser.add_argument("--suite", default=None,
                        help=f"one of: {', '.join((*SUITE_NAMES, 'all'))}")
    parser.add_argument("--dim", type=int, default=2,
                        help="complex dimension k of the ambient space (default 2)")
    parser.add_argument("--trials", type=int, default=1000,
                        help=f"sampling budget; {REFERENCE_TRIALS} reproduces the "
                             "reference per-property counts (default 1000)")
    parser.add_argument("--seed", type=int, default=0, help="base seed, >= 0 (default 0)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override every property tolerance with a positive, "
                             "finite value (default: per-property)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--replay", default=None, metavar="SUITE:SEED:INDEX",
                        help="re-execute one trial verbosely and exit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.replay is not None:
            return replay(args.replay, k=args.dim, tol=args.tol)
        if args.suite is None:
            raise UsageError("--suite is required (or use --replay)")
        cfg = SuiteConfig(suite=args.suite, k=args.dim, trials=args.trials,
                          seed=args.seed, tol=args.tol)
        report = run_suite(cfg)
        print(report.to_json() if args.format == "json" else report.to_text())
        return 0 if report.passed else 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
