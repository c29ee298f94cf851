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

from .core import BoundaryPoint, GeometryError, Points, SpaceConfig, _norm, dist_stack, point
from .circles import OFF_CIRCLE_MARGIN, CCircle, RCircle, ccircle_through
from .ortho import OrthoComplement, canonical_involution
from .projective import (
    MoebiusMap,
    _uniform,
    _unit_direction,
    dilation_stack,
    make_dilation,
    make_inversion,
    make_rotation,
    make_translation,
    rotation_stack,
    translation_stack,
)

__all__ = [
    "SAMPLE_SCALE",
    "MIN_SEPARATION",
    "sample_point",
    "sample_distinct_points",
    "sample_admissible_quadruple",
    "random_unitary",
    "random_moebius",
    "moebius_params",
    "moebius_stack",
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
        radius = 2.0 * _uniform(rng) ** (1.0 / (2 * m))
        z = radius / norm * direction
    else:
        z = np.zeros(0, dtype=complex)
    return point(z, _uniform(rng, -4.0, 4.0))


def _point_batch(cfg: SpaceConfig, rng: np.random.Generator, shape: tuple):
    """Chart coordinates (Z, T) of an array of points with the law of ``sample_point``."""
    m = cfg.k - 1
    if m:
        raw = rng.standard_normal((*shape, m)) + 1j * rng.standard_normal((*shape, m))
        radii = 2.0 * _uniform(rng, size=(*shape, 1)) ** (1.0 / (2 * m))
        # the row norms, as np.linalg.norm adds them along the last axis
        Z = raw / np.sqrt((raw.conj() * raw).real.sum(axis=-1, keepdims=True)) * radii
    else:
        Z = np.zeros((*shape, 0), dtype=complex)
    return Z, _uniform(rng, -4.0, 4.0, size=shape)


@lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """Index arrays of the pairs i < j among n points."""
    return np.triu_indices(n, 1)


def _distinct_point_batch(cfg: SpaceConfig, rng: np.random.Generator, n: int):
    """Chart coordinates (Z, T) of the n points ``sample_distinct_points`` draws."""
    for _ in range(200):
        Z, T = _point_batch(cfg, rng, (n,))
        i, j = _upper_pairs(n)
        if n == 1 or dist_stack(Points.finite(Z[i], T[i]),
                                Points.finite(Z[j], T[j])).min() >= MIN_SEPARATION:
            return Z, T
    raise GeometryError("rejection sampling failed to separate points")


def sample_distinct_points(cfg: SpaceConfig, rng: np.random.Generator, n: int) -> list:
    Z, T = _distinct_point_batch(cfg, rng, n)
    return [BoundaryPoint(z=Z[i], t=float(T[i])) for i in range(n)]


def sample_admissible_quadruple(cfg: SpaceConfig, rng: np.random.Generator) -> tuple:
    return tuple(sample_distinct_points(cfg, rng, 4))


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    if m == 1:
        return np.array([[np.exp(2j * math.pi * _uniform(rng))]])
    if m == 2:
        # SU(2) from a unit quaternion pair, times a random phase
        v = rng.standard_normal(4)
        v /= _norm(v)
        a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
        U = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
        return U * np.exp(2j * math.pi * _uniform(rng))
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def moebius_params(cfg: SpaceConfig, rng: np.random.Generator,
                   allow_inversion: bool = True) -> tuple:
    """The draws of :func:`random_moebius`, in its order.

    Returns the translation (z0, t0), the rotation's unitary, the
    dilation coefficient and whether the inversion is composed.
    Parameter ranges are kept moderate: the condition number of the
    matrix squares the shrinkage of projective residuals, so wild
    translations or dilations would blur the separation between on- and
    off-circle points that the membership tolerances rely on.
    """
    m = cfg.k - 1
    if m:
        z0 = _unit_direction(rng, m) * 1.5 * _uniform(rng) ** (1.0 / (2 * m))
    else:
        z0 = np.zeros(0, dtype=complex)
    t0 = _uniform(rng, -2.0, 2.0)
    U = random_unitary(m, rng)
    lam = math.exp(_uniform(rng, -0.5, 0.5))
    return z0, t0, U, lam, bool(allow_inversion and _uniform(rng) < 0.5)


def moebius_stack(k: int, params) -> np.ndarray:
    """The matrices T R D (I) of a sequence of ``moebius_params``, shape (n, k+1, k+1).

    Each is the product ``random_moebius`` forms, left to right, bit for bit.
    """
    n, m = len(params), k - 1
    z0, t0, U, lam, inverted = zip(*params)
    g = translation_stack(np.array(z0, dtype=complex).reshape(n, m), np.array(t0))
    g = g @ rotation_stack(np.array(U, dtype=complex).reshape(n, m, m))
    g = g @ dilation_stack(np.array(lam), k)
    inverted = np.array(inverted)
    if inverted.any():
        g[inverted] = g[inverted] @ make_inversion(k).g
    return g


def random_moebius(cfg: SpaceConfig, rng: np.random.Generator,
                   allow_inversion: bool = True) -> MoebiusMap:
    """A generic boundary automorphism from the generator factorization.

    Translation, rotation, dilation and, with probability 1/2 when
    allowed, the gauge inversion; see :func:`moebius_params`.
    :func:`moebius_stack` builds the same matrices for many draws.
    """
    z0, t0, U, lam, inverted = moebius_params(cfg, rng, allow_inversion)
    g = make_translation(z0, t0) @ make_rotation(U) @ make_dilation(lam, cfg.k)
    return g @ make_inversion(cfg.k) if inverted else g


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
        taus = np.sort(_uniform(rng, -2.0, 2.0, size=2))
        if taus[1] - taus[0] < 0.5:
            continue
        omega = F.point_at(float(taus[0]))
        o = F.point_at(float(taus[1]))
        rho = math.exp(_uniform(rng, -0.35, 0.35))
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
