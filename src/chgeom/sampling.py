"""Deterministic sampling of points, maps and circle configurations.

All samplers draw from an explicit ``numpy.random.Generator``; the
verification harness derives one independent stream per (seed, trial)
pair, so every reported failure is replayable.  Points are drawn with
horizontal coordinates in the ball of radius 2 and heights in [-4, 4];
configurations whose pairwise separations fall under a thousandth of the
sample scale are rejected to keep the conditioning of inverted charts
bounded.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import BoundaryPoint, GeometryError, SpaceConfig, dist_batch, point
from .circles import OFF_CIRCLE_MARGIN, CCircle, RCircle, ccircle_through
from .ortho import OrthoComplement, canonical_involution
from .projective import (
    MoebiusMap,
    _norm,
    _unit_direction,
    make_dilation,
    make_inversion,
    make_rotation,
    make_translation,
)

__all__ = [
    "SAMPLE_SCALE",
    "MIN_SEPARATION",
    "sample_point",
    "sample_distinct_points",
    "sample_admissible_quadruple",
    "random_unitary",
    "random_moebius",
    "sample_chain",
    "sample_rcircle",
    "sample_orthopair",
    "sample_ortho_complement",
    "canonical_chain",
    "canonical_rcircle",
]

SAMPLE_SCALE = 4.0
MIN_SEPARATION = 1e-3 * SAMPLE_SCALE


def sample_point(cfg: SpaceConfig, rng: np.random.Generator) -> BoundaryPoint:
    """A finite point with z uniform in the radius-2 ball, t uniform in [-4, 4]."""
    m = cfg.k - 1
    if m:
        direction = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        norm = _norm(direction)
        radius = 2.0 * rng.uniform() ** (1.0 / (2 * m))
        z = radius / norm * direction
    else:
        z = np.zeros(0, dtype=complex)
    return point(z, rng.uniform(-4.0, 4.0))


def _point_batch(cfg: SpaceConfig, rng: np.random.Generator, shape: tuple):
    """Chart coordinates (Z, T) of an array of points with the law of ``sample_point``."""
    m = cfg.k - 1
    if m:
        raw = rng.standard_normal((*shape, m)) + 1j * rng.standard_normal((*shape, m))
        radii = 2.0 * rng.uniform(size=(*shape, 1)) ** (1.0 / (2 * m))
        # the row norms, with the arithmetic of np.linalg.norm(raw, axis=-1)
        Z = raw / np.sqrt((raw.conj() * raw).real.sum(axis=-1, keepdims=True)) * radii
    else:
        Z = np.zeros((*shape, 0), dtype=complex)
    return Z, rng.uniform(-4.0, 4.0, size=shape)


def _pairwise_dists(Z, T):
    """Gauge distances between all points along the second-to-last axis of Z."""
    return dist_batch(Z[..., :, None, :], T[..., :, None],
                      Z[..., None, :, :], T[..., None, :])


@lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """Index arrays of the pairs i < j among n points."""
    return np.triu_indices(n, 1)


def sample_distinct_points(cfg: SpaceConfig, rng: np.random.Generator, n: int) -> list:
    for _ in range(200):
        Z, T = _point_batch(cfg, rng, (n,))
        D = _pairwise_dists(Z, T)
        if n == 1 or float(D[_upper_pairs(n)].min()) >= MIN_SEPARATION:
            return [BoundaryPoint(z=Z[i], t=float(T[i])) for i in range(n)]
    raise GeometryError("rejection sampling failed to separate points")


def sample_admissible_quadruple(cfg: SpaceConfig, rng: np.random.Generator) -> tuple:
    return tuple(sample_distinct_points(cfg, rng, 4))


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    if m == 1:
        return np.array([[np.exp(2j * math.pi * rng.uniform())]])
    if m == 2:
        # SU(2) from a unit quaternion pair, times a random phase
        v = rng.standard_normal(4)
        v /= _norm(v)
        a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
        U = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
        return U * np.exp(2j * math.pi * rng.uniform())
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_moebius(cfg: SpaceConfig, rng: np.random.Generator,
                   allow_inversion: bool = True) -> MoebiusMap:
    """A generic boundary automorphism from the generator factorization.

    Parameter ranges are kept moderate: the condition number of the
    matrix squares the shrinkage of projective residuals, so wild
    translations or dilations would blur the separation between on- and
    off-circle points that the membership tolerances rely on.
    """
    m = cfg.k - 1
    if m:
        z0 = _unit_direction(rng, m) * 1.5 * rng.uniform() ** (1.0 / (2 * m))
    else:
        z0 = np.zeros(0, dtype=complex)
    g = make_translation(z0, rng.uniform(-2.0, 2.0))
    g = g @ make_rotation(random_unitary(m, rng))
    g = g @ make_dilation(math.exp(rng.uniform(-0.5, 0.5)), cfg.k)
    if allow_inversion and rng.uniform() < 0.5:
        g = g @ make_inversion(cfg.k)
    return g


@lru_cache(maxsize=None)
def canonical_chain(k: int) -> CCircle:
    """The vertical axis plus infinity; one shared instance per dimension."""
    return CCircle(map=MoebiusMap.identity(k))


def canonical_rcircle(k: int) -> RCircle:
    """The horizontal first-axis line plus infinity."""
    if k < 2:
        raise GeometryError("R-circles need complex dimension k >= 2")
    return RCircle(map=MoebiusMap.identity(k))


def sample_chain(cfg: SpaceConfig, rng: np.random.Generator) -> CCircle:
    return canonical_chain(cfg.k).transported(random_moebius(cfg, rng))


def sample_rcircle(cfg: SpaceConfig, rng: np.random.Generator) -> RCircle:
    return canonical_rcircle(cfg.k).transported(random_moebius(cfg, rng))


def sample_orthopair(cfg: SpaceConfig, rng: np.random.Generator) -> tuple:
    """A pair of mutually orthogonal chains in generic position.

    The canonical pair is the vertical axis and the chain through the
    opposite horizontal unit points, which the axis reflection swaps in
    place; a random automorphism moves the pair off the canonical
    position while preserving orthogonality.
    """
    k = cfg.k
    if k < 2:
        raise GeometryError("orthogonal pairs need complex dimension k >= 2")
    e1 = np.zeros(k - 1, dtype=complex)
    e1[0] = 1.0
    F0 = canonical_chain(k)
    F1 = ccircle_through(point(e1, 0.0), point(-e1, 0.0))
    g = random_moebius(cfg, rng)
    return F0.transported(g), F1.transported(g)


def sample_ortho_complement(cfg: SpaceConfig, rng: np.random.Generator) -> OrthoComplement:
    """A generic orthogonal complement (F, eta) with sampleable points.

    The involution anchors are kept separated on the chain and the
    resulting canonical chart is required to stay moderately
    conditioned, so that membership margins survive the transport.  A
    complement squeezed against its chain (a tiny canonical radius) is
    rejected too: a fixed probe point of it must clear the margin that
    ``OrthoComplement.sample_points`` demands of its samples.
    """
    if cfg.k < 2:
        raise GeometryError("the complement is empty for k = 1")
    for _ in range(50):
        F = sample_chain(cfg, rng)
        taus = np.sort(rng.uniform(-2.0, 2.0, size=2))
        if taus[1] - taus[0] < 0.5:
            continue
        omega = F.point_at(float(taus[0]))
        o = F.point_at(float(taus[1]))
        rho = math.exp(rng.uniform(-0.35, 0.35))
        A = OrthoComplement(F=F, eta=canonical_involution(F, omega, o, rho))
        try:
            chart, radius = A.chart_and_radius
        except GeometryError:
            continue
        if float(np.max(np.abs(chart.g))) > 50.0:
            continue
        probe = np.zeros(cfg.k - 1, dtype=complex)
        probe[0] = radius
        if F.membership_residual(chart.inverse()(point(probe, 0.0))) > 10 * OFF_CIRCLE_MARGIN:
            return A
    raise GeometryError("failed to sample a well-conditioned complement")
