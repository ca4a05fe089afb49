"""The Rayleigh-Kuo eigenvalue problem for shear flows on [-1, 1].

Solves

    -phi'' + (u''(y) - beta) / (u(y) - c) phi = lambda phi,   phi(+-1) = 0

for a shear profile u, given by its jet (u, u', u'').  ``lambda_n_general``
solves it for a monotone profile at a speed outside the open flow range, or
at a speed whose critical layer falls where u'' - beta vanishes
identically, so that the potential is removable there (the modified flows).
It evaluates the jet once per grid, and once at the flat zone's ends.

``lambda_n_couette`` is the Couette entry point.  At the wall speeds
c = -1 (beta >= 0) and c = +1 (beta <= 0) it gives the principal
eigenvalue only: the potential -beta/(y-c) is finite at every interior
node and the eigenfunction is (y-c) times a power series, so the
uniform-grid eigenvalue converges at second order as at a regular speed,
and is solved the same way.

``wall_beta`` inverts the wall curve: the beta with lambda_1(beta, -1) =
-alpha^2 is itself the principal eigenvalue of a weighted problem.
``couette_speed`` inverts the curve in c: the c0 < -1 with
lambda_1(beta, c0) = lambda0, found on each grid and then extrapolated.

One ladder serves all of them: a per-grid value (an eigenvalue, or a root
in c) on grids of size {resolution, 2*resolution, 4*resolution},
Richardson-extrapolated.  Grid r bisects the whole spectrum; grids 2r and
4r start a certified inverse iteration at their coarser grids' prediction.
It returns one ``EigenPair``, which builds its eigenvector on the finest grid
only when ``vector`` is read, and hands it out read-only.  Every discrete
eigenvalue is solved to ``eigen``'s one tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BracketFailureError,
    SingularPotentialError,
    SingularSpeedError,
    ValidationError,
    WrongSignBetaError,
    require_finite,
)
from .eigen import eigenvalue_floor, eigenvector, extrapolate, monotone_root, nth_eigenvalue
from .grid import Grid1D, TridiagOperator, assemble, build_grid

__all__ = [
    "EigenPair",
    "ShearProfile",
    "couette",
    "scaled_couette",
    "lambda_n_couette",
    "wall_beta",
    "couette_speed",
    "lambda_n_general",
]

# a speed root on a grid stops once |lambda_1,h(c) - lambda0| is within this
# many of the grid's rounding floors
_ROOT_FLOORS = 4.0

# ends of a speed bracket, each widened 8x about its centre, before a search gives up
_MAX_WIDENINGS = 60

# |u(node) - c| below this outside a removable zone is treated as a genuine
# critical layer; above it the quotient is formed (it is finite, if large).
_SINGULAR_NODE_TOL = 1e-13


@dataclass(frozen=True)
class ShearProfile:
    """A shear flow given by its jet: ``jet(y)`` returns (u, u', u'') at y.

    Every reader takes what it needs from one evaluation.  ``flat_zone``
    marks an interval [lo, hi] on which u'' takes the constant value
    ``flat_d2u`` identically; the Rayleigh-Kuo potential is removable across
    a critical layer inside that zone whenever beta equals ``flat_d2u``.
    """

    jet: callable
    range_lo: float
    range_hi: float
    label: str
    flat_zone: tuple[float, float] | None = None
    flat_d2u: float = 0.0


def couette() -> ShearProfile:
    """The Couette flow u(y) = y."""

    def jet(y):
        y = np.asarray(y, dtype=float)
        return y, np.ones_like(y), np.zeros_like(y)

    return ShearProfile(jet, -1.0, 1.0, "couette")


def scaled_couette(a: float) -> ShearProfile:
    """The scaled flow u(y) = a y with 0 < a."""
    require_finite("scale a", a, positive=True)

    def jet(y):
        y = np.asarray(y, dtype=float)
        return a * y, np.full_like(y, a), np.zeros_like(y)

    return ShearProfile(jet, -a, a, f"scaled-couette(a={a:g})")


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One extrapolated ladder value with its error estimate and, on demand, an eigenvector.

    The value is an eigenvalue, or for ``couette_speed`` a speed.  ``op`` is
    the finest grid's operator (at the grid's root speed) and ``lam_h`` its
    eigenvalue there.  The first read of ``vector`` (unit Euclidean norm,
    first extremum nonnegative) builds it; the pair caches and shares it, so
    it is read-only.
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
        vec = eigenvector(self.op, self.lam_h)
        vec.flags.writeable = False
        return vec


def _solve_extrapolated(solve, resolution: int) -> EigenPair:
    """A per-grid value x_h over uniform grids {r, 2r, 4r}, Richardson-extrapolated.

    ``solve(grid, guess)`` returns (x_h, floor_h, op, lam_h): the grid's value,
    a bound on its rounding error, and the operator and eigenvalue it was read
    from.  ``guess`` is the coarser grids' prediction of x_h: None on grid r,
    x_r on grid 2r, and on grid 4r the Richardson prediction
    x_2r - (x_r - x_2r) / 4.  The error estimate is the last Richardson
    correction plus the floors carried through the tableau; the record keeps
    the finest grid's operator and eigenvalue.
    """
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64, got {resolution}")
    seq, floors, guess = [], [], None
    for m in (resolution, 2 * resolution, 4 * resolution):
        grid = build_grid(m)
        x_h, floor, op, lam_h = solve(grid, guess)
        seq.append((grid.h, x_h))
        floors.append(floor)
        guess = x_h if len(seq) == 1 else x_h - (seq[0][1] - x_h) / 4.0
    return EigenPair(*extrapolate(seq, floors), op, lam_h)


def _eigenvalue(operator, n: int):
    """The ladder step for eigenvalue n of operator(grid).

    Grid r bisects the whole spectrum; grids 2r and 4r pass the ladder's
    guess on to ``nth_eigenvalue``'s certified inverse iteration.
    """

    def solve(grid, guess):
        op = operator(grid)
        lam_h = nth_eigenvalue(op, n, near=guess)
        return lam_h, eigenvalue_floor(op), op, lam_h

    return solve


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

    pair = _solve_extrapolated(_eigenvalue(weighted, 1), resolution)
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
    Q = _potential(profile, beta, c)
    return _solve_extrapolated(_eigenvalue(lambda g: assemble(g, Q), n), resolution)


def _potential(profile: ShearProfile, beta: float, c: float):
    """Q(y) = (u'' - beta) / (u - c), checked as ``lambda_n_general`` says."""
    require_finite("beta", beta)
    require_finite("c", c)
    zone = profile.flat_zone
    removable = zone is not None and profile.flat_d2u == beta
    if profile.range_lo < c < profile.range_hi:
        # the speeds of the removable layer; an empty interval without one
        layer_lo, layer_hi = profile.jet(np.array(zone))[0] if removable else (np.inf, -np.inf)
        if not layer_lo <= c <= layer_hi:
            raise SingularSpeedError(
                f"singular-speed: c={c} lies inside the flow range "
                f"({profile.range_lo}, {profile.range_hi}) away from a removable "
                "layer (essential spectrum)"
            )

    def Q(y):
        y = np.asarray(y, dtype=float)
        u, _, d2u = profile.jet(y)
        num = d2u - beta
        den = u - c
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
        with np.errstate(over="ignore"):  # an overflowed quotient is assemble's to reject
            np.divide(num, den, out=out, where=~zone_mask)
        out[zone_mask] = 0.0
        return out

    return Q


def couette_speed(beta: float, lambda0: float, resolution: int = 256) -> EigenPair:
    """The speed c0 < -1 with lambda_1(beta, c0) = lambda0, and its error bar.

    Requires beta >= 0 and lambda0 between the wall value lambda_1(beta, -1)
    and pi^2/4 (``atlas.speed_and_error`` checks both).  The ladder's value
    is the root c_h of the discrete lambda_1,h(beta, c) = lambda0 on each
    grid, found by ``monotone_root`` to within _ROOT_FLOORS rounding floors
    of lambda0; its floor is (rounding floor + residual) / |slope|, with the
    slope of the secant over the last bracket.  Grid r brackets from its own
    wall value at c = -1 out to -8; grids 2r and 4r about the ladder's guess,
    within lambda's 1e-3 relative spread over the slope (2r) and within
    |c_r - c_2r| / 20 + 8 floor_2r (4r).  Each end widens 8x about the centre
    until the signs differ, and each eigenvalue is guessed on the line the
    coarser grid's slope draws through (centre, lambda0).  A grid whose own
    wall value is not below lambda0 has no root: BracketFailureError names it.
    """
    profile = couette()
    spread = 1e-3 * max(1.0, abs(lambda0))  # grid 2r's radius in lambda
    coarser = []  # (c_h, slope, floor) of each grid solved so far

    def solve(grid, guess):
        seen = {}  # c -> (lambda_1,h(c), operator)
        if not coarser:  # grid r: from its own wall value out to -8
            centre, radius = -1.0, 7.0
        else:
            _, slope, floor = coarser[-1]
            centre = guess
            if len(coarser) == 1:  # grid 2r: c_r, within lambda's spread over the slope
                radius = spread / abs(slope)
            else:  # grid 4r: floors grow as 1/h^2
                radius = abs(coarser[0][0] - coarser[1][0]) / 20.0 + 8.0 * floor

        def f(c):
            op = assemble(grid, _potential(profile, beta, c))
            line = lambda0 + slope * (c - centre) if coarser else None
            seen[c] = nth_eigenvalue(op, 1, near=line), op
            return seen[c][0] - lambda0

        lo, hi = centre - radius, min(centre + radius, -1.0)
        while (f_hi := f(hi)) >= 0:  # lambda_1,h(hi) >= lambda0: the root lies above hi
            if hi == -1.0:
                raise BracketFailureError(
                    f"bracket-failure: on the {grid.n_interior}-row grid lam1(beta,-1) lies "
                    f"{f_hi:.3g} above lambda0, so no speed below -1 attains it"
                )
            hi = min(centre + 8.0 * (hi - centre), -1.0)
        for _ in range(_MAX_WIDENINGS):
            if (f_lo := f(lo)) > 0:
                break
            hi, f_hi = lo, f_lo
            lo = centre - 8.0 * (centre - lo)
        else:
            raise BracketFailureError("bracket-failure: lam1(beta,c) never exceeded lambda0")
        lam_floor = eigenvalue_floor(seen[hi][1])
        c_h = monotone_root(f, lo, hi, f_lo, f_hi, _ROOT_FLOORS * lam_floor)
        lam_h, op = seen[c_h]
        # the secant over the last bracket: the nearest speeds on either side of c_h
        a = max(c for c, (lam, _) in seen.items() if lam >= lambda0)
        b = min(c for c, (lam, _) in seen.items() if lam < lambda0)
        secant = (seen[b][0] - seen[a][0]) / (b - a)
        floor = (eigenvalue_floor(op) + abs(lam_h - lambda0)) / abs(secant)
        coarser.append((c_h, secant, floor))
        return c_h, floor, op, lam_h

    return _solve_extrapolated(solve, resolution)
