"""The benchmark workloads and the checks of their outputs.

A workload is set up once from its seed and then runs identical passes;
each pass returns its wall time, the number of operations it completed,
and how many of its operations were attempted and failed.  The library
is reached only through the namespace returned by :func:`load_library`,
looked up at call time, so that wrappers installed by the tracer see
every call.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

MODULE_NAMES = ("core", "projective", "circles", "foliation", "ortho",
                "tangent", "sampling", "properties", "harness")


def load_library(src: Path) -> SimpleNamespace:
    """Import chgeom afresh from ``src``, dropping any earlier import.

    Every call re-executes the package's modules (numpy stays imported),
    so repeated calls measure the package's own import and registry build.
    """
    for name in [m for m in sys.modules if m == "chgeom" or m.startswith("chgeom.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("chgeom")
    origin = Path(package.__file__).resolve()
    if origin.parent.parent != src.resolve():
        raise ImportError(f"chgeom was imported from {origin}, not from {src}")
    mods = {name: importlib.import_module(f"chgeom.{name}") for name in MODULE_NAMES}
    return SimpleNamespace(package=package, **mods)


@dataclass
class PassResult:
    wall_s: float
    ops: int
    attempted: int
    failed: int
    errors: list = field(default_factory=list)
    answers: list | None = None


# ---------------------------------------------------------------------------
# verify workloads: the randomized harness over the registered laws
# ---------------------------------------------------------------------------

class VerifyWorkload:
    """One ``run_suite`` call per pass, with the workload's seed as suite seed.

    Every pass repeats the same trials.  An operation is one property
    run; it fails when the property FAILs or did not run exactly its
    scaled trial count, and every property fails when ``run_suite``
    raises (a raising trial aborts the whole suite).
    """

    def __init__(self, suite: str, k: int, trials: int):
        self.suite, self.k, self.trials = suite, k, trials

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.cfg = lib.harness.SuiteConfig(self.suite, k=self.k, trials=self.trials,
                                           seed=seed)
        ref = lib.harness.REFERENCE_TRIALS
        self.expected = {
            p.name: 0 if self.k < p.min_k else max(1, round(p.base_trials * self.trials / ref))
            for p in lib.properties.suite_properties(self.suite)
        }

    def run_pass(self, latencies: list | None = None) -> PassResult:
        """Run the suite once; single trials are not timed, ``latencies`` is unused."""
        n = len(self.expected)
        t0 = time.perf_counter()
        try:
            report = self.lib.harness.run_suite(self.cfg)
        except Exception as exc:  # a raising trial aborts run_suite: count, go on
            return PassResult(time.perf_counter() - t0, 0, n, n,
                              errors=[f"run_suite raised {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        return PassResult(wall, sum(p.trials for p in report.properties), n,
                          *self._failures(report))

    def _failures(self, report):
        got = {p.name: p for p in report.properties}
        errors = []
        for name, n in self.expected.items():
            p = got.get(name)
            if p is None:
                errors.append(f"{name}: missing from the report")
            elif not p.passed:
                errors.append(f"{name}: FAIL, max residual {p.max_residual:.3e} "
                              f"> tol {p.tol:.1e}")
            elif p.trials != n:
                errors.append(f"{name}: ran {p.trials} trials, expected {n}")
        if len(got) != len(report.properties) or set(got) - set(self.expected):
            errors.append("report lists unexpected or repeated properties")
        return min(len(errors), len(self.expected)), errors

    def check(self, result: PassResult) -> None:
        """Verify passes are checked as they run; nothing is left to check."""


# ---------------------------------------------------------------------------
# api_query: a scalar library user issuing single calls
# ---------------------------------------------------------------------------

POOL = 8                 # chains, R-circles and maps shared by the queries
OFF_MARGIN = 1e-3        # query points sit this far off a chain (squared residual)
REL_TOL = 1e-9           # distance laws, relative
CRT_TOL = 1e-9           # chart against projective cross-ratio triple
POINT_TOL = 1e-8         # squared chordal gap of points that must coincide
BASE_TOL = 1e-8          # base projections of one fiber, relative


@dataclass(frozen=True)
class Query:
    op: str
    args: tuple
    on: bool = False     # the point lies on the circle or complement by construction
    aux: object = None   # check data: the second point of a fiber, for project_base


def _operations(lib) -> dict:
    """Op name -> callable; attributes are read at call time (see module doc)."""
    core, circles, fo, ortho, proj = lib.core, lib.circles, lib.foliation, lib.ortho, lib.projective
    return {
        "dist": lambda p, q: core.dist(p, q),
        "dist_w": lambda w, p, q: core.dist_w(w, p, q),
        "crt": lambda x, y, z, u: core.crt(x, y, z, u),
        "crt_projective": lambda x, y, z, u: proj.crt_projective(x, y, z, u),
        "moebius_call": lambda g, p: g(p),
        "ccircle_member": lambda F, p: F.membership_residual(p),
        "rcircle_member": lambda S, p: S.membership_residual(p),
        "mu": lambda F, w, u: circles.mu(F, w, u),
        "eta": lambda F, u, w: circles.eta(F, u, w),
        "conjugate_pole": lambda F, u: circles.conjugate_pole(F, u),
        "ortho_member": lambda A, u: ortho.ortho_membership_residuals(A, u),
        "project_base": lambda w, x: fo.project_base(w, x),
    }


class ApiQueryWorkload:
    """A fixed, seeded round robin of single library calls on a pooled set-up.

    Set-up samples a small pool of chains, R-circles, orthogonal
    complements and Moebius maps plus fresh query points for every call,
    then runs the queries once so the per-object caches are warm.  Points
    that must lie off a chain are drawn until they clear ``OFF_MARGIN``,
    so no query can legitimately raise.  An operation is one query; it
    fails when it raises or its answer breaks the law checked for it.
    """

    def __init__(self, k: int, rounds: int):
        self.k, self.rounds = k, rounds

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.queries = make_queries(lib, self.k, self.rounds, seed)
        self.ops = _operations(lib)
        self.reference = None
        self.run_pass()   # warm the per-object caches, as a long-lived caller would

    def run_pass(self, latencies: list | None = None) -> PassResult:
        """Issue every query once.

        Appends the pass's per-query latencies (ns, in query order) as one
        array to ``latencies`` when given.
        """
        ops, queries = self.ops, self.queries
        answers, lat = [], []
        clock = time.perf_counter_ns
        t0 = time.perf_counter()
        for q in queries:
            t = clock()
            try:
                a = ops[q.op](*q.args)
            except Exception as exc:  # a raising query counts as failed
                a = exc
            lat.append(clock() - t)
            answers.append(a)
        wall = time.perf_counter() - t0
        if latencies is not None:
            latencies.append(np.array(lat, dtype=np.int64))
        errors = [f"{q.op}: raised {type(a).__name__}: {a}"
                  for q, a in zip(queries, answers) if isinstance(a, Exception)]
        return PassResult(wall, len(queries), len(queries), len(errors), errors, answers)

    def check(self, result: PassResult) -> None:
        """Check every answer against its law; later passes against the first.

        An answer equal to the first pass's is not re-derived; any other
        answer is checked on its own.
        """
        ref = self.reference
        for i, (q, a) in enumerate(zip(self.queries, result.answers)):
            if isinstance(a, Exception):
                continue
            if ref is not None and _same_answer(a, ref[i]):
                continue
            problem = check_answer(self.lib, q, a)
            if problem:
                result.failed += 1
                result.errors.append(f"{q.op}: {problem}")
        if ref is None and not result.failed:
            self.reference = result.answers
        result.answers = None


def _off_chain_point(lib, cfg, rng, F):
    while True:
        u = lib.sampling.sample_point(cfg, rng)
        if F.membership_residual(u) > OFF_MARGIN:
            return u


def make_queries(lib, k: int, rounds: int, seed: int) -> list:
    """``rounds`` rounds of one call of each kind, every call with its own points."""
    sp = lib.sampling
    rng = np.random.default_rng(seed)
    cfg = lib.core.SpaceConfig(k=k)
    chains = [sp.sample_chain(cfg, rng) for _ in range(POOL)]
    rcircles = [sp.sample_rcircle(cfg, rng) for _ in range(POOL)]
    comps = [sp.sample_ortho_complement(cfg, rng) for _ in range(POOL // 2)]
    maps = [sp.random_moebius(cfg, rng) for _ in range(POOL)]

    def pick(objs):
        return objs[int(rng.integers(len(objs)))]

    def tau():
        return float(rng.uniform(-3.0, 3.0))

    queries = []
    for r in range(rounds):
        on = r % 2 == 0
        quad = tuple(sp.sample_admissible_quadruple(cfg, rng))
        queries.append(Query("dist", tuple(sp.sample_distinct_points(cfg, rng, 2))))
        queries.append(Query("dist_w", tuple(sp.sample_distinct_points(cfg, rng, 3))))
        queries.append(Query("crt", quad))
        queries.append(Query("crt_projective", quad))
        queries.append(Query("moebius_call", (pick(maps), sp.sample_point(cfg, rng))))
        F = pick(chains)
        p = F.point_at(tau()) if on else _off_chain_point(lib, cfg, rng, F)
        queries.append(Query("ccircle_member", (F, p), on=on))
        S = pick(rcircles)
        p = S.point_at(tau()) if on else sp.sample_point(cfg, rng)
        queries.append(Query("rcircle_member", (S, p), on=on))
        queries.append(Query("mu", (F, F.point_at(tau()), _off_chain_point(lib, cfg, rng, F))))
        queries.append(Query("eta", (F, _off_chain_point(lib, cfg, rng, F), F.point_at(tau()))))
        queries.append(Query("conjugate_pole", (F, _off_chain_point(lib, cfg, rng, F))))
        A = pick(comps)
        p = A.sample_points(1, rng)[0] if on else _off_chain_point(lib, cfg, rng, A.F)
        queries.append(Query("ortho_member", (A, p), on=on))
        w, x = sp.sample_distinct_points(cfg, rng, 2)
        mate = lib.circles.ccircle_through(w, x).point_at(tau())
        queries.append(Query("project_base", (w, x), aux=mate))
    return queries


def _same_answer(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "infinite"):     # BoundaryPoint
        return (a.infinite == b.infinite and a.t == b.t and np.array_equal(a.z, b.z))
    if hasattr(a, "components"):   # CrossRatioTriple
        return (a.a, a.b, a.c) == (b.a, b.b, b.c)
    return a == b


def _residual_ok(r) -> bool:
    return isinstance(r, float) and math.isfinite(r) and r >= 0.0


def check_answer(lib, q: Query, a) -> str | None:
    """None if answer ``a`` to query ``q`` obeys its law, else what is wrong.

    The laws are computed by routes independent of the call under test:
    distances against the Hermitian pairings of null lifts, chart against
    projective cross-ratios, maps against their inverses, projections
    against the chain they land on, conjugate poles against themselves.
    """
    core, proj = lib.core, lib.projective
    args = q.args
    if q.op in ("dist", "dist_w"):
        if not _residual_ok(a):
            return f"distance {a!r} is not a finite non-negative float"
        *w, p, x = args
        X, Y = proj.lift(p), proj.lift(x)
        W = proj.lift(core.infinity(X.shape[0] - 1))
        if w:   # d_w^2 = |<X,Y>| |<O,W>|^2 / (2 |<X,O>| |<Y,O>|)
            O = proj.lift(w[0])
            want = (abs(proj.herm(X, Y)) * abs(proj.herm(O, W)) ** 2
                    / (2.0 * abs(proj.herm(X, O)) * abs(proj.herm(Y, O))))
        else:   # d^2 = 2 |<X,Y>| / (|<X,W>| |<Y,W>|)
            want = 2.0 * abs(proj.herm(X, Y)) / (abs(proj.herm(X, W)) * abs(proj.herm(Y, W)))
        if abs(a * a - want) > REL_TOL * want:
            return f"squared distance {a * a!r} against pairing value {want!r}"
        return None
    if q.op in ("crt", "crt_projective"):
        other = proj.crt_projective(*args) if q.op == "crt" else core.crt(*args)
        gap = a.max_difference(other)
        return None if gap <= CRT_TOL else f"cross-ratio models differ by {gap:.3e}"
    if q.op == "moebius_call":
        g, p = args
        gap = core.chordal_sq(g.inverse()(a), p)
        return None if gap <= POINT_TOL else f"g^-1(g(p)) misses p by {gap:.3e}"
    if q.op in ("ccircle_member", "rcircle_member"):
        if not _residual_ok(a):
            return f"residual {a!r} is not a finite non-negative float"
        if q.on and a > lib.circles.MEMBERSHIP_TOL:
            return f"point on the circle has residual {a:.3e}"
        if q.op == "ccircle_member" and not q.on and a <= OFF_MARGIN:
            return f"point off the chain has residual {a:.3e}"
        return None
    if q.op in ("mu", "eta"):
        r = args[0].membership_residual(a)
        return None if r <= lib.circles.MEMBERSHIP_TOL else f"image is off the chain ({r:.3e})"
    if q.op == "conjugate_pole":
        F, u = args
        gap = core.chordal_sq(lib.circles.conjugate_pole(F, a), u)
        return None if gap <= POINT_TOL else f"pole of the pole misses u by {gap:.3e}"
    if q.op == "ortho_member":
        if not (isinstance(a, tuple) and len(a) == 2 and all(map(_residual_ok, a))):
            return f"residuals {a!r} are not two finite non-negative floats"
        if q.on and max(a) > lib.circles.MEMBERSHIP_TOL:
            return f"point of the complement has residuals {a!r}"
        return None
    if q.op == "project_base":
        w, _ = args
        b = np.asarray(a)
        if not np.all(np.isfinite(b)):
            return "base coordinate is not finite"
        gap = float(np.linalg.norm(b - lib.foliation.project_base(w, q.aux)))
        scale = max(1.0, float(np.linalg.norm(b)))
        return None if gap <= BASE_TOL * scale else f"one fiber projects {gap:.3e} apart"
    return f"no check for op {q.op!r}"
