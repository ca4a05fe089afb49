"""The Rayleigh-Kuo eigenvalue problem for shear flows on [-1, 1].

Solves

    -phi'' + (u''(y) - beta) / (u(y) - c) phi = lambda phi,   phi(+-1) = 0

for a shear profile u.  Three routes are provided:

* ``lambda_n_regular`` -- Couette flow with the speed c outside the closed
  flow range, where the potential -beta/(y-c) is smooth.
* ``lambda_1_singular`` -- the endpoint speeds c = -1 (beta >= 0) and
  c = +1 (beta <= 0) for Couette flow.  The singular problem is approached
  through the regular one at c = -1-eps (resp. 1+eps) along a decreasing
  eps schedule, the monotonicity of the resulting values is certified, and
  the sequence is extrapolated to eps = 0.
* ``lambda_n_general`` -- arbitrary monotone profiles, including those whose
  potential has a removable singularity on an interval where u'' - beta
  vanishes identically (the modified flows).

Every eigenvalue is Richardson-extrapolated over grids of size
{resolution, 2*resolution, 4*resolution}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonMonotoneSequenceError,
    SingularPotentialError,
    SingularSpeedError,
    ValidationError,
    WrongSignBetaError,
)
from .eigen import EigenPair, eigen_residual, eigenvector, extrapolate, nth_eigenvalue
from .grid import assemble, build_grid

__all__ = [
    "ShearProfile",
    "RayleighKuoSpec",
    "couette",
    "scaled_couette",
    "DEFAULT_EPS_SCHEDULE",
    "lambda_n_regular",
    "lambda_1_singular",
    "lambda_n_general",
]

#: eps values for the endpoint regularization: 0.1 halved seven times.
DEFAULT_EPS_SCHEDULE = tuple(0.1 * 0.5**i for i in range(8))

# |u(node) - c| below this with a non-vanishing numerator is treated as a
# genuine critical layer; between the two thresholds the quotient is formed
# anyway (it is finite, if large).
_SINGULAR_NODE_TOL = 1e-13
_NEAR_SINGULAR_TOL = 1e-8


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

    def speed_in_range(self, c: float) -> bool:
        return self.range_lo <= c <= self.range_hi


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
    if a <= 0:
        raise ValidationError(f"scale a must be positive, got {a}")
    return ShearProfile(
        u=lambda y, a=a: a * np.asarray(y, dtype=float),
        du=lambda y, a=a: np.full_like(np.asarray(y, dtype=float), a),
        d2u=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        range_lo=-a,
        range_hi=a,
        label=f"scaled-couette(a={a:g})",
    )


@dataclass(frozen=True)
class RayleighKuoSpec:
    """Profile, Coriolis parameter, and wave speed for one eigenproblem."""

    profile: ShearProfile
    beta: float
    c: float
    singular: bool

    def __post_init__(self):
        at_endpoint = self.c in (self.profile.range_lo, self.profile.range_hi)
        if self.singular and not at_endpoint:
            raise ValidationError(
                f"singular spec requires c at an endpoint of the flow range, got c={self.c}"
            )
        if not self.singular and self.profile.speed_in_range(self.c):
            raise SingularSpeedError(
                f"singular-speed: c={self.c} lies in the flow range "
                f"[{self.profile.range_lo}, {self.profile.range_hi}] (essential spectrum)"
            )

    @classmethod
    def for_couette(cls, beta: float, c: float) -> "RayleighKuoSpec":
        prof = couette()
        return cls(profile=prof, beta=beta, c=c, singular=c in (-1.0, 1.0))


def _solve_extrapolated(Q, n: int, resolution: int):
    """Eigenvalue n of -d2/dy2 + Q over grids {r, 2r, 4r}, extrapolated."""
    seq = []
    grid = op = lam_h = None
    for m in (resolution, 2 * resolution, 4 * resolution):
        grid = build_grid(m, "uniform")
        op = assemble(grid, Q)
        lam_h = nth_eigenvalue(op, n, tol=1e-12)
        seq.append((grid.h, lam_h))
    value, h_err = extrapolate(seq)
    return value, h_err, grid, op, lam_h


def _pair_from_solution(n, value, err, grid, op, lam_h):
    """EigenPair whose vector is built by inverse iteration on first read."""

    def source():
        vec = eigenvector(op, lam_h, orthogonalize_against=_lower_vectors(op, n))
        return vec, eigen_residual(op, lam_h, vec)

    return EigenPair(
        index=n,
        value=value,
        extrapolated=True,
        error_estimate=max(err, 1e-16),
        grid=grid,
        source=source,
    )


def _lower_vectors(op, n):
    """Eigenvectors of indices < n on the same operator, for re-orthogonalization."""
    vecs = []
    for k in range(1, n):
        lam_k = nth_eigenvalue(op, k, tol=1e-12)
        vecs.append(eigenvector(op, lam_k, orthogonalize_against=tuple(vecs)))
    return tuple(vecs)


def lambda_n_regular(spec: RayleighKuoSpec, n: int, resolution: int = 256) -> EigenPair:
    """n-th eigenvalue for a speed strictly outside the closed flow range."""
    if spec.singular:
        raise SingularSpeedError(
            "singular-speed: use lambda_1_singular for endpoint speeds"
        )
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64, got {resolution}")
    prof, beta, c = spec.profile, spec.beta, spec.c

    def Q(y):
        return (prof.d2u(y) - beta) / (prof.u(y) - c)

    value, err, grid, op, lam_h = _solve_extrapolated(Q, n, resolution)
    return _pair_from_solution(n, value, err, grid, op, lam_h)


def _neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Returns (value, error): the full-depth tableau entry, and a conservative
    error bound.  The observed endpoint convergence is first order in eps
    with a slowly decaying (logarithmic) second-order residue, so the last
    tableau correction alone underestimates the bias; the spread between the
    full-depth entry and the three-point entry tracks the true error with a
    factor-of-a-few margin and is used instead.
    """
    xs = np.asarray(xs, dtype=float)
    m = xs.size
    # After round `level`, p[i] holds the interpolant through nodes
    # i..i+level evaluated at 0; ascending i reads p[i+1] before overwrite.
    p = np.asarray(ys, dtype=float).copy()
    tail = [p[-1]]
    for level in range(1, m):
        for i in range(m - level):
            p[i] = (xs[i + level] * p[i] - xs[i] * p[i + 1]) / (xs[i + level] - xs[i])
        tail.append(p[m - level - 1])
    err = abs(tail[-1] - tail[-2])
    if m >= 4:
        err = max(err, abs(tail[-1] - tail[2]))
    return tail[-1], float(err)


def lambda_1_singular(
    beta: float,
    side: str,
    eps_schedule=DEFAULT_EPS_SCHEDULE,
    resolution: int = 256,
) -> EigenPair:
    """Principal eigenvalue at the singular endpoint speeds c = -1 or c = +1.

    ``side="left"`` solves the c = -1 problem (requires beta >= 0),
    ``side="right"`` the c = +1 problem (requires beta <= 0).  Values along
    the eps schedule must decrease monotonically (within the grid error
    budget); violation raises NonMonotoneSequenceError, meaning the
    resolution is too coarse for the smallest eps.
    """
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    if side == "left" and beta < 0:
        raise WrongSignBetaError("wrong-sign-beta: left endpoint requires beta >= 0")
    if side == "right" and beta > 0:
        raise WrongSignBetaError("wrong-sign-beta: right endpoint requires beta <= 0")
    eps = [float(e) for e in eps_schedule]
    if len(eps) < 4:
        raise ValidationError(f"eps_schedule needs >= 4 entries, got {len(eps)}")
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("eps_schedule must be strictly decreasing and positive")

    sign = -1.0 if side == "left" else 1.0
    lams, herrs = [], []
    finest = None
    for e in eps:
        spec = RayleighKuoSpec.for_couette(beta, sign * (1.0 + e))
        pair = lambda_n_regular(spec, 1, resolution)
        lams.append(pair.value)
        herrs.append(pair.error_estimate)
        finest = pair
    slack = max(1e-10, 10.0 * max(herrs))
    for a, b in zip(lams, lams[1:]):
        if b > a + slack:
            raise NonMonotoneSequenceError(
                "non-monotone-sequence: endpoint regularization is not decreasing; "
                f"refine the resolution (values {a} -> {b} at resolution {resolution})"
            )
    value, eps_err = _neville_to_zero(eps, lams)
    return EigenPair(
        index=1,
        value=value,
        extrapolated=True,
        error_estimate=max(eps_err, max(herrs), 1e-16),
        grid=finest.grid,
        source=lambda: (finest.vector, finest.residual),
    )


def lambda_n_general(
    profile: ShearProfile,
    beta: float,
    c: float,
    n: int,
    resolution: int = 256,
) -> EigenPair:
    """n-th eigenvalue for a general profile, handling removable layers.

    The speed must lie outside the closed flow range, or the critical layer
    must fall inside the profile's flat zone with u'' identically equal to
    beta there, in which case the potential is set to its removable value 0
    on that zone.
    """
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64, got {resolution}")
    zone = profile.flat_zone
    removable = zone is not None and profile.flat_d2u == beta

    def Q(y):
        y = np.asarray(y, dtype=float)
        num = profile.d2u(y) - beta
        den = profile.u(y) - c
        if removable:
            zone_mask = (y >= zone[0]) & (y <= zone[1])
        else:
            zone_mask = np.zeros(y.shape, dtype=bool)
        bad = (np.abs(den) < _NEAR_SINGULAR_TOL) & ~zone_mask
        if np.any(bad) and np.min(np.abs(den[bad])) < _SINGULAR_NODE_TOL:
            worst = y[bad][np.argmin(np.abs(den[bad]))]
            raise SingularPotentialError(
                f"singular-potential: u(y)-c vanishes at node y={worst} "
                "with non-vanishing numerator"
            )
        out = np.empty_like(den)
        np.divide(num, den, out=out, where=~zone_mask)
        out[zone_mask] = 0.0
        return out

    value, err, grid, op, lam_h = _solve_extrapolated(Q, n, resolution)
    return _pair_from_solution(n, value, err, grid, op, lam_h)
