"""Acceptance criteria, each at its stated tolerance and sample count.

Every test prints one pass/fail line.  Batched chart arithmetic is used
for the large sweeps; the batch kernels are validated against the scalar
operations in the unit tests.
"""

import math
import subprocess
import sys
import time

import numpy as np

from chgeom.core import (
    Points,
    SpaceConfig,
    chordal_sq,
    crt,
    dist_stack,
    dist_w_stack,
    infinity,
    point,
)
from chgeom.circles import ccircle_through, mu
from chgeom.foliation import Polygon, tau
from chgeom.ortho import intercept_distances, positive_root
from chgeom.projective import crt_projective, map_points
from chgeom.properties import (
    REGISTRY,
    busemann_affine_fibers,
    base_parallelogram_law,
    conjugate_pole_cocircular,
    ec_uniqueness,
    er_existence_uniqueness,
    join_decompose_radius,
    moebius_involution_crt_identity,
    oc_harmonicity,
    or_harmonicity,
)
from chgeom.sampling import (
    random_moebius,
    sample_chain,
    sample_distinct_points,
    sample_rcircle,
)
from chgeom import tangent as tg


def _report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _run_property(fn, k, trials, seed=2024, label=0):
    # a batched law's fn returns the trial's draw; its block gives the residuals
    cfg = SpaceConfig(k=k)
    out = [fn(cfg, np.random.default_rng((seed, label, i))) for i in range(trials)]
    batched = next(p.batched for p in REGISTRY if p.fn is fn)
    return float(max(batched(cfg, out) if batched is not None else out))


# ---------------------------------------------------------------------------
# batched chart helpers for the large sweeps
# ---------------------------------------------------------------------------

def _moved(g, *stacks):
    """``map_points`` of the matrix ``g`` on finite point stacks; no image may be infinite."""
    images = map_points(g, *stacks)
    assert not any(P.inf.any() for P in images)
    return images


def _pair_dists(Z, T):
    """Gauge distances of the pairs i < j of the points along axis 1, in the
    upper triangle of a (b, n, n) array."""
    b, n, m = Z.shape
    i, j = np.triu_indices(n, 1)
    D = np.zeros((b, n, n))
    P, Q = (Points.finite(Z[:, a].reshape(b * len(a), m), T[:, a].ravel()) for a in (i, j))
    D[:, i, j] = dist_stack(P, Q).reshape(b, len(i))
    return D


def _ball_points(rng, b, m, radius=2.0):
    raw = rng.standard_normal((b, m)) + 1j * rng.standard_normal((b, m))
    radii = radius * rng.uniform(size=(b, 1)) ** (1.0 / (2 * m))
    Z = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radii
    return Z, rng.uniform(-4.0, 4.0, size=b)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_curvature_golden_values():
    start = time.perf_counter()
    x, y, z, u, v = tg.adapted_frame(3)
    checks = {
        "R(x,y)z.u": (tg.riem(x, y, z, u), 2.0),
        "R(x,y)z.v": (tg.riem(x, y, z, v), 0.0),
        "k(x,z)": (tg.sec_k(x, z), -1.0),
        "k(x+u,y+z)": (tg.sec_k(x + u, y + z), -4.0),
        "k(y+u,x+z)": (tg.sec_k(y + u, x + z), -16.0),
        "k(x+v,y+z)": (tg.sec_k(x + v, y + z), -7.0),
        "K(vt,ypt)": (tg.sectional((x + v) / math.sqrt(2), (y + z) / math.sqrt(2)),
                      -1.75),
        "polarized": (tg.riem_polarized(x, y, z, u), 12.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    elapsed = time.perf_counter() - start
    _report("curvature golden values (k=3)",
            worst <= 1e-12 and elapsed < 1.0,
            f"max |error| = {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_distance_formula():
    start = time.perf_counter()
    worst = 0.0
    total = 0
    for k in (2, 3, 4):
        cfg = SpaceConfig(k=k)
        m = k - 1
        batch = 100
        for i in range(100):
            rng = np.random.default_rng((31, k, i))
            g = random_moebius(cfg, rng)
            Zu, Tu = _ball_points(rng, batch, m)
            keep = np.linalg.norm(Zu, axis=1) > 1e-2
            Zu, Tu = Zu[keep], Tu[keep]
            b = Zu.shape[0]
            To = np.full(b, float(rng.uniform(-4.0, 4.0)))
            Zo = np.zeros((b, m), dtype=complex)
            # transported configuration: omega = g(inf), o on the chain,
            # u generic, z its fiber coordinate (projection equivariance)
            omega = map_points(g.g, Points.at_infinity(k, b))[0]
            o, u, z = _moved(g.g, Points.finite(Zo, To), Points.finite(Zu, Tu),
                             Points.finite(Zo, Tu))
            r = dist_w_stack(omega, o, u)
            a = dist_w_stack(omega, z, u)
            bb = dist_w_stack(omega, o, z)
            num = np.abs(r ** 4 - a ** 4 - bb ** 4)
            den = np.maximum(r ** 4, np.maximum(a ** 4, bb ** 4))
            worst = max(worst, float(np.max(num / den)))
            total += b
        # the transported fiber coordinate agrees with the projection
        rng = np.random.default_rng((77, k))
        for _ in range(20):
            g = random_moebius(cfg, rng)
            u0z, u0t = _ball_points(rng, 1, m)
            if np.linalg.norm(u0z) < 1e-2:
                continue
            F = ccircle_through(g(infinity(k)), g(point(np.zeros(m), 0.0)))
            u = g(point(u0z[0], float(u0t[0])))
            z_fast = g(point(np.zeros(m), float(u0t[0])))
            assert chordal_sq(z_fast, mu(F, g(infinity(k)), u)) < 1e-10
    elapsed = time.perf_counter() - start
    _report("distance formula r^4 = a^4 + b^4 (10^4 per k in {2,3,4})",
            worst <= 1e-9 and elapsed < 10.0,
            f"max rel residual = {worst:.3e} (tol 1e-9) over {total * 1} configs, "
            f"{elapsed:.1f}s (< 10s)")


def test_criterion_ptolemy():
    start = time.perf_counter()
    worst_ineq = 0.0
    for k in (2, 3):
        cfg = SpaceConfig(k=k)
        m = k - 1
        for i in range(100):
            rng = np.random.default_rng((13, k, i))
            Z, T = _ball_points(rng, 4 * 1000, m)
            Z = Z.reshape(1000, 4, m)
            T = T.reshape(1000, 4)
            D = _pair_dists(Z, T)
            iu0, iu1 = np.triu_indices(4, 1)
            D = D[D[:, iu0, iu1].min(axis=1) > 4e-3]
            t1 = D[:, 0, 2] * D[:, 1, 3]
            t2 = D[:, 0, 1] * D[:, 2, 3]
            t3 = D[:, 0, 3] * D[:, 1, 2]
            scale = np.maximum(np.maximum(t1, t2), t3)
            worst_ineq = max(worst_ineq, float(np.max((t1 - t2 - t3) / scale)))

    worst_eq = 0.0
    worst_sq = 0.0
    for k in (2, 3):
        cfg = SpaceConfig(k=k)
        for i in range(10):
            rng = np.random.default_rng((17, k, i))
            sigma = sample_rcircle(cfg, rng)
            ss = np.sort(np.tan(rng.uniform(-1.4, 1.4, size=(1000, 4))), axis=1)
            ss = ss[np.diff(ss, axis=1).min(axis=1) > 1e-2]
            # the canonical R-circle points (s e_1, 0), moved by its map
            line = np.zeros((ss.size, k - 1), dtype=complex)
            line[:, 0] = ss.reshape(-1)
            (P,) = _moved(sigma.map.g, Points.finite(line, np.zeros(ss.size)))
            D = _pair_dists(P.Z.reshape(-1, 4, k - 1), P.T.reshape(-1, 4))
            t1 = D[:, 0, 2] * D[:, 1, 3]
            t2 = D[:, 0, 1] * D[:, 2, 3]
            t3 = D[:, 0, 3] * D[:, 1, 2]
            worst_eq = max(worst_eq, float(np.max(np.abs(t1 - t2 - t3) / t1)))

            chain = sample_chain(cfg, rng)
            ts = np.sort(rng.uniform(-3.0, 3.0, size=(1000, 4)), axis=1)
            ts = ts[np.diff(ts, axis=1).min(axis=1) > 1e-2]
            # the canonical chain points (0, t), moved by its map
            (P,) = _moved(chain.map.g, Points.finite(np.zeros((ts.size, k - 1)), ts.reshape(-1)))
            Dc = _pair_dists(P.Z.reshape(-1, 4, k - 1), P.T.reshape(-1, 4)) ** 2
            s1 = Dc[:, 0, 2] * Dc[:, 1, 3]
            s2 = Dc[:, 0, 1] * Dc[:, 2, 3]
            s3 = Dc[:, 0, 3] * Dc[:, 1, 2]
            worst_sq = max(worst_sq, float(np.max(np.abs(s1 - s2 - s3) / s1)))
    elapsed = time.perf_counter() - start
    ok = worst_ineq <= 1e-9 and worst_eq < 1e-9 and worst_sq < 1e-9 and elapsed < 30
    _report("Ptolemy inequality / equalities (10^5 quadruples per k in {2,3})",
            ok,
            f"defect {worst_ineq:.3e} <= 1e-9, R-circle residual {worst_eq:.3e}, "
            f"chain squared residual {worst_sq:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_axiom_suites():
    results = {}
    for k in (2, 3):
        results[f"E_C k={k}"] = _run_property(ec_uniqueness, k, 1000, label=1)
        results[f"E_R k={k}"] = _run_property(er_existence_uniqueness, k, 1000,
                                              label=2)
        results[f"O_C k={k}"] = _run_property(oc_harmonicity, k, 1000, label=3)
        results[f"O_R k={k}"] = _run_property(or_harmonicity, k, 1000, label=4)
    worst = max(results.values())
    _report("incidence and orthogonality axiom suites (10^3 per k in {2,3})",
            worst <= 1e-8,
            "max residual " + ", ".join(f"{n}={v:.2e}" for n, v in results.items())
            + " (tol 1e-8)")


def test_criterion_conjugate_pole():
    worst = _run_property(conjugate_pole_cocircular, 2, 100, label=5)
    worst = max(worst, _run_property(conjugate_pole_cocircular, 3, 100, label=6))
    worst_crt = max(_run_property(moebius_involution_crt_identity, 2, 500, label=7),
                    _run_property(moebius_involution_crt_identity, 3, 500, label=8))
    _report("conjugate pole suite (200 pairs, 10 chain points each)",
            worst <= 1e-8 and worst_crt <= 1e-9,
            f"harmonic/co-circular residual {worst:.3e} (tol 1e-8), "
            f"involution crt identity {worst_crt:.3e} (tol 1e-9)")


def test_criterion_holonomy_lift():
    rng = np.random.default_rng(404)
    worst_add = worst_hom = worst_ratio = worst_split = 0.0
    for _ in range(500):
        v = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        Q = Polygon(vertices=v)
        first = Polygon(vertices=v[0:3])
        second = Polygon(vertices=np.vstack([v[2:], v[:1]]))
        total = tau(Q, 0.0)[0]
        split = tau(first, 0.0)[0] + tau(second, 0.0)[0]
        worst_add = max(worst_add, abs(total - split) / max(1.0, abs(total)))

        lam = math.exp(rng.uniform(-1, 1))
        P = Polygon(vertices=v[:4])
        worst_hom = max(worst_hom, abs(tau(P.scaled(lam), 0.0)[1]
                                       - lam * tau(P, 0.0)[1]) / max(1.0, lam))

        pts = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        vv, y, z = pts
        ratio = rng.uniform(0.05, 0.95)
        x = vv + ratio * (z - vv)
        T = Polygon(vertices=np.vstack([vv, y, z]))
        Pr = Polygon(vertices=np.vstack([x, y, z]))
        lhs = tau(Pr, 0.0)[1] ** 2 * np.linalg.norm(z - vv)
        rhs = np.linalg.norm(z - x) * tau(T, 0.0)[1] ** 2
        worst_ratio = max(worst_ratio, abs(lhs - rhs) / max(lhs, rhs, 1e-9))

        p, a, b2 = (rng.standard_normal(1) + 1j * rng.standard_normal(1)
                    for _ in range(3))
        T1 = Polygon(vertices=np.vstack([p, p + a, p + a + b2]))
        T2 = Polygon(vertices=np.vstack([p, p + a + b2, p + b2]))
        d1, d2 = tau(T1, 0.0)[0], tau(T2, 0.0)[0]
        worst_split = max(worst_split, abs(d1 - d2) / max(1.0, abs(d1)))

    square = Polygon(vertices=np.array([[0], [1], [1 + 1j], [1j]], dtype=complex))
    t_end, disp = tau(square, 0.0)
    square_ok = abs(t_end + 4.0) <= 1e-12 and abs(disp - 2.0) <= 1e-12
    ok = (worst_add <= 1e-12 and worst_hom <= 1e-12 and worst_ratio <= 1e-10
          and worst_split <= 1e-12 and square_ok)
    _report("holonomy lift laws (additivity, homothety, area ratio, split, square)",
            ok,
            f"additivity {worst_add:.2e} (1e-12), homothety {worst_hom:.2e} (1e-12), "
            f"area ratio {worst_ratio:.2e} (1e-10), split {worst_split:.2e} (1e-12), "
            f"unit square shift {t_end:+.1f} displacement {disp:.1f}")


def test_criterion_base_suite():
    worst_par = max(_run_property(base_parallelogram_law, 2, 500, label=9),
                    _run_property(base_parallelogram_law, 3, 500, label=10))
    worst_bus = max(_run_property(busemann_affine_fibers, 2, 150, label=11),
                    _run_property(busemann_affine_fibers, 3, 150, label=12))
    _report("base geometry (parallelogram law, Busemann affineness/constancy)",
            worst_par <= 1e-10 and worst_bus <= 1e-6,
            f"parallelogram residual {worst_par:.3e} (tol 1e-10), "
            f"Busemann residual {worst_bus:.3e} (tol 1e-6)")


def test_criterion_join_suite():
    worst_join = _run_property(join_decompose_radius, 2, 1000, label=13)
    rng = np.random.default_rng(515)
    worst_alg = 0.0
    worst_root = 0.0
    for _ in range(1000):
        a = math.exp(rng.uniform(-1.5, 1.5))
        b = math.exp(rng.uniform(-1.5, 1.5))
        rho = math.exp(rng.uniform(-1.0, 1.0))
        X, Y, c = intercept_distances(a, b, rho)
        worst_alg = max(worst_alg, abs(X * Y - rho * rho) / (rho * rho))
        worst_alg = max(worst_alg,
                        abs(X * X - Y * Y - c) / max(1.0, abs(c), X * X + Y * Y))
        bb = math.exp(rng.uniform(-1, 1))
        cc = math.exp(rng.uniform(-1, 1))
        dd = cc * bb ** 4 * (1.0 + math.exp(rng.uniform(-1, 2)))
        s0 = positive_root(bb, cc, dd)
        roots = np.roots([1 + cc, 4 * cc * bb, 6 * cc * bb ** 2,
                          4 * cc * bb ** 3, cc * bb ** 4 - dd])
        ref = [r.real for r in roots if abs(r.imag) < 1e-8 and r.real > 0][0]
        worst_root = max(worst_root, abs(s0 - ref) / ref)
    ok = worst_join <= 1e-9 and worst_alg <= 1e-12 and worst_root <= 1e-10
    _report("join suite (|wu| = r on 10^3 points, intercept algebra, quartic root)",
            ok,
            f"|wu|-r residual {worst_join:.3e} (tol 1e-9), algebra {worst_alg:.3e} "
            f"(tol 1e-12), root vs solver {worst_root:.3e} (tol 1e-10)")


def test_criterion_cross_model():
    worst_agree = 0.0
    cfg = SpaceConfig(k=2)
    cfg3 = SpaceConfig(k=3)
    for i in range(5000):
        rng = np.random.default_rng((88, 0, i))
        quad = sample_distinct_points(cfg if i % 2 else cfg3, rng, 4)
        worst_agree = max(worst_agree,
                          crt(*quad).max_difference(crt_projective(*quad)))
    worst_inv = 0.0
    for i in range(100):
        rng = np.random.default_rng((88, 1, i))
        quad = sample_distinct_points(cfg, rng, 4)
        g = random_moebius(cfg, rng)
        worst_inv = max(worst_inv,
                        crt(*quad).max_difference(crt(*(g(p) for p in quad))))
    _report("cross-model crt agreement (10^4 quadruples) and invariance (100 maps)",
            worst_agree <= 1e-9 and worst_inv <= 1e-9,
            f"model gap {worst_agree:.3e}, map gap {worst_inv:.3e} (tol 1e-9)")


def test_criterion_full_verify_run():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chgeom.harness", "--suite", "all", "--dim", "3",
         "--trials", "10000", "--seed", "0"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    _report("verify --suite all --dim 3 --trials 10000 (single-threaded)",
            proc.returncode == 0 and elapsed < 60.0,
            f"exit code {proc.returncode}, {elapsed:.1f}s (< 60s)")
