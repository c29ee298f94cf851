"""Numerical Moebius geometry of the ideal boundary of complex hyperbolic space.

The package realizes the boundary sphere in two coordinate models, the
Heisenberg chart with the Koranyi gauge and the projective null-vector
model of a signature-(k, 1) Hermitian form, and implements the incidence
geometry living on it: cross-ratio triples, chains and R-circles,
reflections and conjugate poles, the canonical foliation with its
holonomy, orthogonal complements and Moebius joins, plus the curvature
identities of the interior in a linear tangent model.  A seeded
verification harness (the ``verify`` console script) checks the defining
properties of all of these as randomized numerical suites.
"""

from .core import (
    BoundaryPoint,
    CrossRatioTriple,
    GeometryError,
    SpaceConfig,
    crt,
    dist,
    dist_w,
    gauge,
    harmonicity_residual,
    infinity,
    is_harmonic,
    origin,
    point,
    ptolemy_defect,
    ptolemy_defect_squared,
)
from .projective import (
    MoebiusMap,
    chart,
    crt_projective,
    drop,
    lift,
    make_dilation,
    make_inversion,
    make_rotation,
    make_translation,
)
from .circles import (
    CCircle,
    RCircle,
    Sphere,
    ccircle_through,
    conjugate_pole,
    eta,
    mu,
    rcircle_through_hitting,
    reflection_in_ccircle,
    sphere_between,
)
from .foliation import (
    Polygon,
    base_dist,
    busemann,
    horizontal_lift,
    project_base,
    pure_homothety,
    signed_area,
    tau,
    vertical_shift,
)
from .ortho import (
    JoinDecomposition,
    OrthoComplement,
    are_orthogonal,
    canonical_fiber,
    canonical_involution,
    fixset_psi_contains,
    join_decompose,
    ortho_contains,
    positive_root,
    standard_rcircle,
)
from . import tangent

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
