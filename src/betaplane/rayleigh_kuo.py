"""The Rayleigh-Kuo eigenvalue problem for shear flows on [-1, 1].

Solves

    -phi'' + (u''(y) - beta) / (u(y) - c) phi = lambda phi,   phi(+-1) = 0

for a shear profile u.  ``lambda_n_general`` solves it for a monotone
profile at a speed outside the open flow range, or at a speed whose
critical layer falls where u'' - beta vanishes identically, so that the
potential is removable there (the modified flows).

``lambda_n_couette`` is the Couette entry point.  At the wall speeds
c = -1 (beta >= 0) and c = +1 (beta <= 0) it gives the principal
eigenvalue only: the potential -beta/(y-c) is finite at every interior
node and the eigenfunction is (y-c) times a power series, so the
uniform-grid eigenvalue converges at second order as at a regular speed,
and is solved the same way.

``wall_beta`` inverts the wall curve: the beta with lambda_1(beta, -1) =
-alpha^2 is itself the principal eigenvalue of a weighted problem.

Every eigenvalue is Richardson-extrapolated over grids of size
{resolution, 2*resolution, 4*resolution}; only the coarsest grid bisects
the whole spectrum.  The ladder returns one ``EigenPair``, which builds its
eigenvector on the finest grid only when ``vector`` or ``residual`` is read,
and hands it out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    SingularPotentialError,
    SingularSpeedError,
    ValidationError,
    WrongSignBetaError,
    require_finite,
)
from .eigen import (
    eigen_residual,
    eigenvalue_floor,
    eigenvector,
    extrapolate,
    nth_eigenvalue,
)
from .grid import Grid1D, TridiagOperator, assemble, build_grid

__all__ = [
    "EigenPair",
    "ShearProfile",
    "couette",
    "scaled_couette",
    "lambda_n_couette",
    "wall_beta",
    "lambda_n_general",
]

# bisection tolerance of every discrete eigenvalue
_EIG_TOL = 1e-12

# |u(node) - c| below this outside a removable zone is treated as a genuine
# critical layer; above it the quotient is formed (it is finite, if large).
_SINGULAR_NODE_TOL = 1e-13


@dataclass(frozen=True)
class ShearProfile:
    """A shear flow u(y) with analytic first and second derivatives.

    ``flat_zone`` marks an interval [lo, hi] on which u'' takes the constant
    value ``flat_d2u`` identically; the Rayleigh-Kuo potential is removable
    across a critical layer inside that zone whenever beta equals
    ``flat_d2u``.
    """

    u: callable
    du: callable
    d2u: callable
    range_lo: float
    range_hi: float
    label: str
    flat_zone: tuple[float, float] | None = None
    flat_d2u: float = 0.0


def couette() -> ShearProfile:
    """The Couette flow u(y) = y."""
    return ShearProfile(
        u=lambda y: np.asarray(y, dtype=float),
        du=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        d2u=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        range_lo=-1.0,
        range_hi=1.0,
        label="couette",
    )


def scaled_couette(a: float) -> ShearProfile:
    """The scaled flow u(y) = a y with 0 < a."""
    require_finite("scale a", a, positive=True)
    return ShearProfile(
        u=lambda y, a=a: a * np.asarray(y, dtype=float),
        du=lambda y, a=a: np.full_like(np.asarray(y, dtype=float), a),
        d2u=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        range_lo=-a,
        range_hi=a,
        label=f"scaled-couette(a={a:g})",
    )


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One extrapolated eigenvalue with its error estimate and, on demand, its eigenvector.

    ``op`` is the finest grid's operator and ``lam_h`` its eigenvalue there.
    The first read of ``vector`` (unit Euclidean norm, first extremum
    nonnegative) or ``residual`` (||(A - lam_h I) v|| / ||A||) builds the
    vector; the pair caches and shares it, so it is read-only.
    """

    value: float
    error_estimate: float
    op: TridiagOperator
    lam_h: float

    @property
    def grid(self) -> Grid1D:
        return self.op.grid

    @cached_property
    def vector(self) -> np.ndarray:
        vec = eigenvector(self.op, self.lam_h)  # LAPACK ``stein``
        vec.flags.writeable = False
        return vec

    @cached_property
    def residual(self) -> float:
        return eigen_residual(self.op, self.lam_h, self.vector)


def _solve_extrapolated(operator, n: int, resolution: int) -> EigenPair:
    """Eigenvalue n of operator(grid) over uniform grids {r, 2r, 4r}, extrapolated.

    Grid r bisects the whole spectrum; grid 2r only a certified bracket
    around lam_r, and grid 4r one around the Richardson prediction of grids
    r and 2r (``nth_eigenvalue``'s ``near``).  The error estimate is the
    last Richardson correction plus the kernel's rounding floor on each grid
    carried through the tableau.
    """
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64, got {resolution}")
    seq, floors = [], []
    for m in (resolution, 2 * resolution, 4 * resolution):
        grid = build_grid(m)
        op = operator(grid)
        floors.append(eigenvalue_floor(op, _EIG_TOL))
        if not seq:
            near = None
        elif len(seq) == 1:
            lam_r = seq[0][1]
            near = (lam_r, 1e-3 * max(1.0, abs(lam_r)))
        else:
            step = seq[0][1] - seq[1][1]
            near = (seq[1][1] - step / 4.0, abs(step) / 20.0 + 2.0 * floors[-1])
        lam_h = nth_eigenvalue(op, n, tol=_EIG_TOL, near=near)
        seq.append((grid.h, lam_h))
    return EigenPair(*extrapolate(seq, floors), op, lam_h)


def lambda_n_couette(beta: float, c: float, n: int = 1, resolution: int = 256) -> EigenPair:
    """n-th eigenvalue of the Couette flow u(y) = y at the speed c.

    The wall speeds give the principal eigenvalue only, c = -1 for
    beta >= 0 and c = +1 for beta <= 0; the two are mirror images, and give
    identical bits for (beta, -1) and (-beta, +1).  Any other speed must lie
    outside [-1, 1].
    """
    if c in (-1.0, 1.0):
        if n != 1:
            raise ValidationError("endpoint speeds support the principal eigenvalue only (n=1)")
        if c * beta > 0:
            side, sign = ("left", ">=") if c < 0 else ("right", "<=")
            raise WrongSignBetaError(f"wrong-sign-beta: {side} endpoint requires beta {sign} 0")
    return lambda_n_general(couette(), beta, c, n, resolution)


def wall_beta(alpha: float, resolution: int = 256) -> tuple[float, float]:
    """The beta >= 0 with lambda_1(beta, -1) = -alpha^2, and its error estimate.

    On the grid, lambda_1(beta, -1) is the smallest eigenvalue of K - beta D,
    with K the Dirichlet second difference and D = diag(1 / (1 + y_i)).  It
    equals -alpha^2 exactly when beta is the smallest eigenvalue of
    W^(1/2) (K + alpha^2 I) W^(1/2) with W = diag(1 + y_i): the discrete
    form of beta = min (int phi'^2 + alpha^2 phi^2) / (int phi^2 / (1 + y)).
    So one solve per grid replaces a root search on the wall curve.
    """

    def weighted(grid):
        op = assemble(grid, lambda y: alpha**2)
        w = grid.nodes + 1.0
        return TridiagOperator(op.diag * w, op.off * np.sqrt(w[:-1] * w[1:]), grid)

    pair = _solve_extrapolated(weighted, 1, resolution)
    return pair.value, pair.error_estimate


def lambda_n_general(
    profile: ShearProfile,
    beta: float,
    c: float,
    n: int,
    resolution: int = 256,
) -> EigenPair:
    """n-th eigenvalue for a general profile, handling removable layers.

    The speed must lie outside the open flow range, or the critical layer
    must fall inside the profile's flat zone with u'' identically equal to
    beta there, in which case the potential is set to its removable value 0
    on that zone; any other speed raises SingularSpeedError before a solve.
    At an endpoint speed the potential is finite at every interior node.
    A non-finite beta or c raises ValidationError before anything is assembled.
    """
    require_finite("beta", beta)
    require_finite("c", c)
    zone = profile.flat_zone
    removable = zone is not None and profile.flat_d2u == beta
    if profile.range_lo < c < profile.range_hi:
        # the speeds of the removable layer; an empty interval without one
        layer_lo, layer_hi = profile.u(np.array(zone)) if removable else (np.inf, -np.inf)
        if not layer_lo <= c <= layer_hi:
            raise SingularSpeedError(
                f"singular-speed: c={c} lies inside the flow range "
                f"({profile.range_lo}, {profile.range_hi}) away from a removable "
                "layer (essential spectrum)"
            )

    def Q(y):
        y = np.asarray(y, dtype=float)
        num = profile.d2u(y) - beta
        den = profile.u(y) - c
        if removable:
            zone_mask = (y >= zone[0]) & (y <= zone[1])
        else:
            zone_mask = np.zeros(y.shape, dtype=bool)
        bad = (np.abs(den) < _SINGULAR_NODE_TOL) & ~zone_mask
        if np.any(bad):
            worst = y[bad][np.argmin(np.abs(den[bad]))]
            raise SingularPotentialError(
                f"singular-potential: u(y)-c vanishes at node y={worst} "
                "with non-vanishing numerator"
            )
        out = np.empty_like(den)
        np.divide(num, den, out=out, where=~zone_mask)
        out[zone_mask] = 0.0
        return out

    return _solve_extrapolated(lambda g: assemble(g, Q), n, resolution)
