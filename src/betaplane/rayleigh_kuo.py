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
lambda_1(beta, c0) = lambda0, found on each grid by safeguarded Newton
steps with the exact discrete slope, read from each solve's eigenvector
(Hellmann-Feynman), and then extrapolated.

One ladder serves all of them: a per-grid value (an eigenvalue, or a root
in c) on grids of size {resolution, 2*resolution, 4*resolution},
Richardson-extrapolated.  For an eigenvalue, grid r bisects the whole
spectrum; grids 2r and 4r start a certified inverse iteration at their
coarser grids' prediction.  Given a tolerance, the eigenvalue ladders
climb instead: from the smallest base ``resolution`` to {2r, 4r, 8r} and
on, one new grid at a time, until the ratio of successive differences
shows second-order convergence and the answer's error bar meets the
tolerance.
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
    NoConvergenceError,
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

# a climbing ladder accepts {b, 2b, 4b} when (x_b - x_2b) / (x_2b - x_4b) lies here
_RATIO_RANGE = (3.5, 4.5)

# rows of the finest grid a climbing ladder may reach, unless its smallest base is above a quarter of it
_MAX_ROWS = 16384

# a speed root on a grid stops once |lambda_1,h(c) - lambda0| is within this
# many of the grid's rounding floors
_ROOT_FLOORS = 4.0

# moves of a speed bracket's start to its far end, 8x further out, before a search gives up
_MAX_WIDENINGS = 60

# lambda_1(beta, c) -> pi^2/4 as c -> -inf, and every lambda_1,h(beta, c) lies below it:
# the potential is <= 0, and the grid's Laplacian lies below its limit
PI2_OVER_4 = np.pi**2 / 4

# |u(node) - c| below this outside a removable zone is treated as a genuine
# critical layer; above it the quotient is formed (it is finite, if large).
_SINGULAR_NODE_TOL = 1e-13


@dataclass(frozen=True)
class ShearProfile:
    """A shear flow given by its jet: ``jet(y)`` returns (u, u', u'') at y.

    Every reader takes what it needs from one evaluation; a constant
    derivative may come as a scalar.  ``flat_zone`` marks an interval
    [lo, hi] on which u'' takes the constant value ``flat_d2u``
    identically; the Rayleigh-Kuo potential is removable across a critical
    layer inside that zone whenever beta equals ``flat_d2u``.
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
        return np.asarray(y, dtype=float), 1.0, 0.0

    return ShearProfile(jet, -1.0, 1.0, "couette")


def scaled_couette(a: float) -> ShearProfile:
    """The scaled flow u(y) = a y with 0 < a."""
    require_finite("scale a", a, positive=True)

    def jet(y):
        return a * np.asarray(y, dtype=float), a, 0.0

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

    @property
    def base(self) -> int:
        """The ladder's base b: its grids have b, 2b and 4b rows."""
        return self.grid.n_interior // 4

    @cached_property
    def vector(self) -> np.ndarray:
        vec = eigenvector(self.op, self.lam_h)
        vec.flags.writeable = False
        return vec


def _solve_extrapolated(solve, resolution: int, tol=None, bar=None) -> EigenPair:
    """A per-grid value x_h over uniform grids {r, 2r, 4r}, Richardson-extrapolated.

    ``solve(grid, guess)`` returns (x_h, floor_h, op, lam_h): the grid's value,
    a bound on its rounding error, and the operator and eigenvalue it was read
    from.  ``guess`` is the coarser grids' prediction of x_h: None on grid r,
    x_r on grid 2r, and on grid 4r the Richardson prediction
    x_2r - (x_r - x_2r) / 4.  The error estimate is the last Richardson
    correction plus the floors carried through the tableau; the record keeps
    the finest grid's operator and eigenvalue.

    Given ``tol``, r is the smallest base and the ladder climbs.  It accepts
    {b, 2b, 4b} once the ratio (x_b - x_2b) / (x_2b - x_4b) lies in
    ``_RATIO_RANGE`` (4 in the asymptotic regime), or the last difference
    lies within grids 2b's and 4b's floors, and the answer's bar,
    ``bar(value, error)`` (the error itself by default), is at most tol.
    Otherwise it moves to {2b, 4b, 8b}: one new grid, guessed at the
    Richardson prediction.  A ladder past max(``_MAX_ROWS``, 4r) rows raises
    NoConvergenceError.
    """
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64, got {resolution}")
    cap = max(_MAX_ROWS, 4 * resolution)
    seq, floors, guess, m = [], [], None, resolution
    while True:
        grid = build_grid(m)
        x_h, floor, op, lam_h = solve(grid, guess)
        seq.append((grid.h, x_h))
        floors.append(floor)
        if len(seq) == 3:
            value, err = extrapolate(seq, floors)
            if tol is None:
                return EigenPair(value, err, op, lam_h)
            (_, x_b), (_, x_2b), _ = seq
            last = x_2b - x_h  # every floor is positive, so a zero difference is settled
            settled = abs(last) <= floors[1] + floors[2] or (
                _RATIO_RANGE[0] <= (x_b - x_2b) / last <= _RATIO_RANGE[1])
            answer_bar = err if bar is None else bar(value, err)
            if settled and answer_bar <= tol:
                return EigenPair(value, err, op, lam_h)
            if 2 * m > cap:
                faults = []
                if not settled:
                    faults.append(f"ratio {(x_b - x_2b) / last:.3g} outside {list(_RATIO_RANGE)}")
                if answer_bar > tol:
                    faults.append(f"error estimate {answer_bar:.3g} exceeds tol {tol:.3g}")
                raise NoConvergenceError(
                    f"no-convergence: {' and '.join(faults)} on grids {m // 4}, {m // 2} and {m}, "
                    f"and a finer ladder passes the {cap}-row cap"
                )
            del seq[0], floors[0]
        guess = x_h if len(seq) == 1 else x_h - (seq[-2][1] - x_h) / 4.0
        m *= 2


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


def lambda_n_couette(
    beta: float, c: float, n: int = 1, resolution: int = 256, tol=None, bar=None
) -> EigenPair:
    """n-th eigenvalue of the Couette flow u(y) = y at the speed c.

    The wall speeds give the principal eigenvalue only, c = -1 for
    beta >= 0 and c = +1 for beta <= 0; the two are mirror images, and give
    identical bits for (beta, -1) and (-beta, +1).  Any other speed must lie
    outside [-1, 1].  ``tol`` and ``bar`` are ``lambda_n_general``'s.
    """
    if c in (-1.0, 1.0):
        if n != 1:
            raise ValidationError("endpoint speeds support the principal eigenvalue only (n=1)")
        if c * beta > 0:
            side, sign = ("left", ">=") if c < 0 else ("right", "<=")
            raise WrongSignBetaError(f"wrong-sign-beta: {side} endpoint requires beta {sign} 0")
    return lambda_n_general(couette(), beta, c, n, resolution, tol, bar)


def wall_beta(alpha: float, resolution: int = 64, tol=None) -> EigenPair:
    """The beta >= 0 with lambda_1(beta, -1) = -alpha^2, with its error estimate.

    On the grid, lambda_1(beta, -1) is the smallest eigenvalue of K - beta D,
    with K the Dirichlet second difference and D = diag(1 / (1 + y_i)).  It
    equals -alpha^2 exactly when beta is the smallest eigenvalue of
    W^(1/2) (K + alpha^2 I) W^(1/2) with W = diag(1 + y_i): the discrete
    form of beta = min (int phi'^2 + alpha^2 phi^2) / (int phi^2 / (1 + y)).
    So one solve per grid replaces a root search on the wall curve.  Given
    ``tol``, the ladder climbs from base ``resolution`` until its error
    estimate is at most tol (``_solve_extrapolated``).
    """

    def weighted(grid):
        op = assemble(grid, lambda y: alpha**2)
        w = grid.nodes + 1.0
        return TridiagOperator(op.diag * w, op.off * np.sqrt(w[:-1] * w[1:]), grid)

    return _solve_extrapolated(_eigenvalue(weighted, 1), resolution, tol)


def lambda_n_general(
    profile: ShearProfile,
    beta: float,
    c: float,
    n: int,
    resolution: int = 256,
    tol=None,
    bar=None,
) -> EigenPair:
    """n-th eigenvalue for a general profile, handling removable layers.

    The speed must lie outside the open flow range, or the critical layer
    must fall inside the profile's flat zone with u'' identically equal to
    beta there, in which case the potential is set to its removable value 0
    on that zone; any other speed raises SingularSpeedError before a solve.
    At an endpoint speed the potential is finite at every interior node.
    A non-finite beta or c raises ValidationError before anything is assembled.
    Without ``tol`` the ladder is {resolution, 2 resolution, 4 resolution};
    with it, resolution is the smallest base, and the ladder climbs until
    ``bar(value, error)`` (the error by default) is at most tol
    (``_solve_extrapolated``).
    """
    Q = _potential(profile, beta, c)
    return _solve_extrapolated(_eigenvalue(lambda g: assemble(g, Q), n), resolution, tol, bar)


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
        bad = np.abs(den) < _SINGULAR_NODE_TOL
        if removable:
            zone_mask = (y >= zone[0]) & (y <= zone[1])
            bad &= ~zone_mask
        if np.any(bad):
            worst = y[bad][np.argmin(np.abs(den[bad]))]
            raise SingularPotentialError(
                f"singular-potential: u(y)-c vanishes at node y={worst} "
                "with non-vanishing numerator"
            )
        with np.errstate(over="ignore"):  # an overflowed quotient is assemble's to reject
            if not removable:
                return num / den
            out = np.empty_like(den)
            np.divide(num, den, out=out, where=~zone_mask)
        out[zone_mask] = 0.0
        return out

    return Q


def couette_speed(beta: float, lambda0: float, resolution: int = 256) -> EigenPair:
    """The speed c0 < -1 with lambda_1(beta, c0) = lambda0, and its error bar.

    Requires beta >= 0 and lambda0 between the wall value lambda_1(beta, -1)
    and pi^2/4 (``atlas.speed_and_error`` checks both).  The ladder's value
    is the root c_h of the discrete lambda_1,h(beta, c) = lambda0 on each
    grid, found by ``monotone_root``'s safeguarded Newton steps to within
    _ROOT_FLOORS rounding floors of lambda0.  Each solve hands out its unit
    eigenvector v, so the slope is exact for the discrete problem
    (Hellmann-Feynman): -beta sum v_i^2 / (y_i - c)^2.  The steps run on
    1/(pi^2/4 - lambda) - 1/(pi^2/4 - lambda0), which has the same root and
    sign and is close to linear in c where lambda nears pi^2/4 like 1/|c|,
    so a far speed takes few steps.  The grid's floor is (rounding floor +
    residual) / |slope| at c_h.

    Every grid brackets its root by one rule.  It starts at the ladder's
    guess, or at the wall c = -1 on grid r, which has none.  Where
    lambda_1,h(start) < lambda0 the root lies below the start, and the
    search runs out to 8 times the start; otherwise it runs between the
    start and the wall.  The far end is solved only when a step falls back
    to the bracket's midpoint; when it has the start's sign, the start moves
    there and the search repeats.  Every solve but grid r's first guesses
    its eigenvalue at lambda0, where the step aims.  A grid whose own wall
    value is not below lambda0 has no root: BracketFailureError names it.
    """
    profile = couette()

    def solve(grid, guess):
        seen = {}  # c -> (lambda_1,h(c), its slope in c, operator)

        # 1/(pi^2/4 - lambda) - 1/(pi^2/4 - lambda0): linear in c where lambda ~ pi^2/4 - A/(B - c)
        def f(c):
            if c not in seen:
                op = assemble(grid, _potential(profile, beta, c))
                first = guess is None and not seen  # grid r's first solve: no eigenvalue guess
                lam, v = nth_eigenvalue(op, 1, near=None if first else lambda0, vector=True)
                seen[c] = lam, -beta * float(np.sum((v / (grid.nodes - c)) ** 2)), op
            lam = seen[c][0]
            return (lam - lambda0) / ((PI2_OVER_4 - lam) * (PI2_OVER_4 - lambda0))

        def slope(c):
            lam, dlam, _ = seen[c]
            return dlam / (PI2_OVER_4 - lam) ** 2

        def wall_failure():
            return BracketFailureError(
                f"bracket-failure: on the {grid.n_interior}-row grid lam1(beta,-1) lies "
                f"{seen[-1.0][0] - lambda0:.3g} above lambda0, so no speed below -1 attains it"
            )

        near = -1.0 if guess is None else min(guess, -1.0)
        f_near = f(near)
        if near == -1.0 and f_near >= 0:
            raise wall_failure()
        # |lambda - lambda0| <= tol wherever |f| <= tol / ((pi^2/4 - lambda0) (pi^2/4 - lambda0 + tol))
        tol = _ROOT_FLOORS * eigenvalue_floor(seen[near][2])
        tol /= (PI2_OVER_4 - lambda0) * (PI2_OVER_4 - lambda0 + tol)
        for _ in range(_MAX_WIDENINGS):
            # lambda_1,h(c) decreases in c: the root lies below near where lambda_1,h(near) < lambda0
            far = 8.0 * near if f_near < 0 else -1.0
            try:
                c_h = monotone_root(f, *((far, near, None, f_near) if f_near < 0 else
                                         (near, far, f_near, None)), tol, slope)
                break
            except BracketFailureError:  # far has near's sign: the root lies beyond it
                near, f_near = far, f(far)
                if near == -1.0:
                    raise wall_failure() from None
        else:
            raise BracketFailureError("bracket-failure: lam1(beta,c) never exceeded lambda0")
        lam_h, slope_h, op = seen[c_h]
        floor = (eigenvalue_floor(op) + abs(lam_h - lambda0)) / abs(slope_h)
        return c_h, floor, op, lam_h

    return _solve_extrapolated(solve, resolution)
