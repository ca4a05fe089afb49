"""The traveling-wave phase diagram over the (alpha, beta) half-plane.

For Couette flow the existence picture is controlled by the principal
eigenvalue at the wall speed, lam1(|beta|, -1): the transition value
beta_star is its unique positive root in beta, the borderline wavenumber is
alpha_beta = sqrt(-lam1(|beta|, -1)) with critical period T_beta =
2 pi / alpha_beta, and the plane splits into

    O       no traveling waves      (|beta| <= beta_star, or alpha > alpha_beta)
    I+, I-  traveling waves         (|beta| > beta_star, alpha < alpha_beta)
    Gamma+, Gamma-                  the borderline curves alpha = alpha_beta

beta_star and beta_T are principal eigenvalues of the weighted problem
-phi'' + alpha^2 phi = beta phi / (1 + y) (``rayleigh_kuo.wall_beta``), so
they take one direct solve per grid.  The speed inversion lam1(beta, c0) =
lambda0 finds the root on each grid and extrapolates it
(``rayleigh_kuo.couette_speed``), so c0 carries its own error estimate.
The tolerances of beta_star and beta_T bound their error estimates, that of
the speed bounds c0's relative to |c0|, and classify's is the half-width of
the Gamma strip.  beta_star and beta_T are memoized in process; when a
cache is supplied, wall and regular eigenvalues and each speed inversion
are kept on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    NoConvergenceError,
    OutOfRangeLambdaError,
    ValidationError,
    WrongSignBetaError,
    require_finite,
)
from .rayleigh_kuo import couette_speed, lambda_n_couette, wall_beta
from .tables import CurveTable

__all__ = [
    "REGION_O",
    "REGION_GAMMA_PLUS",
    "REGION_GAMMA_MINUS",
    "REGION_I_PLUS",
    "REGION_I_MINUS",
    "RegionVerdict",
    "lambda1_wall",
    "lambda1_regular",
    "find_beta_star",
    "beta_star_and_error",
    "alpha_beta",
    "alpha_beta_curve",
    "beta_T",
    "beta_T_and_error",
    "classify",
    "speed_for_eigenvalue",
    "speed_and_error",
]

REGION_O = "O"
REGION_GAMMA_PLUS = "Gamma+"
REGION_GAMMA_MINUS = "Gamma-"
REGION_I_PLUS = "I+"
REGION_I_MINUS = "I-"

PI2_OVER_4 = np.pi**2 / 4.0


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one (alpha, beta) point, with the curve data used."""

    label: str
    beta_star: float
    alpha_beta: float | None
    tolerance: float
    error_estimate: float = 0.0


# every classify re-derives beta_star, so this memo pays; a session rarely asks
# for the same wall or regular value twice, so those go to the disk cache only
_wall_beta_mem = lru_cache(maxsize=256)(wall_beta)


def _lambda1(name, args, c, resolution, cache):
    """lam1(args["beta"], c) as (value, error); a cache keeps it on disk as curve ``name``."""

    def solve():
        pair = lambda_n_couette(args["beta"], c, 1, int(resolution))
        return pair.value, pair.error_estimate

    return solve() if cache is None else cache.lookup(name, args, resolution, solve)


def lambda1_wall(beta, resolution=256, cache=None):
    """lam1(beta, -1) for beta >= 0 (resp. lam1(beta, +1) for beta < 0).

    Returns (value, error_estimate), kept on disk when a cache is given.
    """
    beta = float(beta)
    wall = -1.0 if beta >= 0 else 1.0
    return _lambda1("lambda1-wall-direct", {"beta": beta}, wall, resolution, cache)


def lambda1_regular(beta, c, resolution=256, cache=None):
    """lam1(beta, c) for a speed c outside (-1, 1) (``lambda_n_couette``); (value, error)."""
    beta, c = float(beta), float(c)
    return _lambda1("lambda1-regular", {"beta": beta, "c": c}, c, resolution, cache)


def _certified(alpha, tol, resolution, what):
    """``wall_beta(alpha)`` as (value, error_estimate), the estimate at most tol."""
    require_finite("tol", tol, positive=True)
    value, err = _wall_beta_mem(float(alpha), int(resolution))
    if err > tol:
        raise NoConvergenceError(
            f"no-convergence: {what} error estimate {err:.3g} exceeds tol {tol:.3g}"
        )
    return value, err


def find_beta_star(tol=1e-5, resolution=256):
    """The unique beta > 0 with lam1(beta, -1) = 0: ``beta_star_and_error``'s value."""
    return beta_star_and_error(tol, resolution)[0]


def beta_star_and_error(tol=1e-5, resolution=256):
    """(beta_star, error_estimate): the principal eigenvalue of -phi'' = beta phi / (1 + y)
    (``wall_beta`` at alpha = 0), its estimate at most tol."""
    return _certified(0.0, tol, resolution, "beta-star")


def alpha_beta(beta, resolution=256, cache=None):
    """Borderline wavenumber alpha_beta = sqrt(-lam1(|beta|, -1)).

    Returns (alpha, error_estimate), the estimate an exact bound on alpha's
    error when lam1's estimate bounds lam1's; requires lam1(|beta|, -1) <= 0,
    i.e. |beta| >= beta_star up to the eigenvalue error.
    """
    lam, err = lambda1_wall(abs(float(beta)), resolution, cache)
    if lam > err:
        raise ValidationError(
            f"below-threshold: lam1({abs(beta)}, -1) = {lam} > 0, |beta| < beta_star"
        )
    a2 = max(-lam, 0.0)
    alpha = float(np.sqrt(a2))
    # |lam_true - lam| <= err puts alpha_true in [sqrt(max(a2 - err, 0)), sqrt(a2 + err)];
    # the larger distance to alpha, written without cancellation
    if a2 > err:
        alpha_err = err / (alpha + np.sqrt(a2 - err))
    else:
        alpha_err = max(alpha, np.sqrt(a2 + err) - alpha)
    return alpha, float(alpha_err)


def alpha_beta_curve(betas, resolution=256, cache=None) -> CurveTable:
    """Rows (beta, alpha_beta, error) of the borderline curve, sorted by beta."""
    table = CurveTable(
        name="alpha-beta-curve",
        columns=["beta", "alpha_beta", "error_estimate"],
        metadata={"resolution": resolution},
    )
    for beta in sorted(float(b) for b in betas):
        alpha, err = alpha_beta(beta, resolution, cache)
        table.add_row(beta, alpha, max(err, 1e-16))
    return table


def beta_T(T, tol=1e-5, resolution=256):
    """The unique beta_T > 0 with lam1(beta_T, -1) = -4 pi^2 / T^2: ``beta_T_and_error``'s value."""
    return beta_T_and_error(T, tol, resolution)[0]


def beta_T_and_error(T, tol=1e-5, resolution=256):
    """(beta_T, error_estimate): the principal eigenvalue of -phi'' + alpha^2 phi =
    beta phi / (1 + y) with alpha = 2 pi / T (``wall_beta``), its estimate at most tol."""
    if not T > 0:
        raise ValidationError(f"period T must be positive, got {T}")
    alpha = 2.0 * np.pi / T
    if not np.isfinite(alpha * alpha):  # float ** raises OverflowError where * gives inf
        raise ValidationError(f"period T={T} is too small: (2 pi / T)^2 overflows")
    return _certified(alpha, tol, resolution, "beta_T")


def classify(alpha, beta, tol=1e-4, resolution=256, cache=None) -> RegionVerdict:
    """Place (alpha, beta) into one of O, Gamma+/-, I+/-.

    The borderline verdicts Gamma+/- are assigned on the strip
    |alpha - alpha_beta| <= tol, since exact curve membership is numerically
    meaningless; the verdict records beta_star, alpha_beta with its error
    estimate, and the tolerance used.  A label holds for every curve within
    the error bars: |beta| against beta_star's, and |alpha - alpha_beta|
    against tol -+ alpha_beta's.  Where a bar alone decides the label,
    NoConvergenceError is raised.
    """
    alpha = float(alpha)
    beta = float(beta)
    require_finite("wavenumber alpha", alpha, positive=True)
    require_finite("beta", beta)
    require_finite("tol", tol, positive=True)
    bstar = find_beta_star(resolution=resolution)
    bstar_err = _wall_beta_mem(0.0, int(resolution))[1]
    if abs(beta) <= bstar - bstar_err:
        return RegionVerdict(REGION_O, bstar, None, tol)
    if abs(beta) <= bstar + bstar_err:
        raise NoConvergenceError(
            f"no-convergence: |beta|={abs(beta)} lies within beta_star's error estimate "
            f"{bstar_err:.3g} of beta_star={bstar}"
        )
    ab, ab_err = alpha_beta(beta, resolution, cache)
    gap = abs(alpha - ab)
    if gap <= tol - ab_err:
        label = REGION_GAMMA_PLUS if beta > 0 else REGION_GAMMA_MINUS
    elif gap > tol + ab_err:
        label = (REGION_I_PLUS if beta > 0 else REGION_I_MINUS) if alpha < ab else REGION_O
    else:
        raise NoConvergenceError(
            f"no-convergence: alpha={alpha} lies within alpha_beta's error estimate "
            f"{ab_err:.3g} of the Gamma strip's edge (alpha_beta={ab}, tol={tol:.3g})"
        )
    return RegionVerdict(label, bstar, ab, tol, ab_err)


def speed_for_eigenvalue(beta, lambda0, tol=1e-5, resolution=256, cache=None):
    """The unique c0 < -1 with lam1(beta, c0) = lambda0, for beta > beta_star.

    lam1(beta, .) decreases from pi^2/4 (c -> -inf) to lam1(beta, -1)
    (c -> -1), so any lambda0 strictly between those values is attained
    exactly once; lambda0 = 0 returns the crossing speed c_beta.  c0 is
    ``speed_and_error``'s, without its error estimate.
    """
    return speed_and_error(beta, lambda0, tol, resolution, cache)[0]


def speed_and_error(beta, lambda0, tol=1e-5, resolution=256, cache=None):
    """(c0, error_estimate) of ``speed_for_eigenvalue``, kept on disk when a cache is given.

    The root is solved on each grid and then extrapolated
    (``rayleigh_kuo.couette_speed``); the estimate bounds c0's error.
    Raises NoConvergenceError when it exceeds tol |c0| (c0's conditioning
    grows as c0^2, so a speed far out is held to a relative bar), and
    BracketFailureError when lambda0 lies below a grid's own wall value.
    """
    beta = float(beta)
    lambda0 = float(lambda0)
    require_finite("tol", tol, positive=True)
    if beta < 0:
        raise WrongSignBetaError(f"wrong-sign-beta: speed inversion requires beta >= 0, got {beta}")
    lam_wall, _ = lambda1_wall(beta, resolution, cache)
    if not lam_wall < lambda0 < PI2_OVER_4:
        raise OutOfRangeLambdaError(
            f"out-of-range-lambda: lambda0={lambda0} outside "
            f"(lam1(beta,-1)={lam_wall}, pi^2/4={PI2_OVER_4})"
        )

    def solve():
        pair = couette_speed(beta, lambda0, int(resolution))
        return pair.value, pair.error_estimate

    args = {"beta": beta, "lambda0": lambda0}
    name = "speed-for-eigenvalue"
    c0, err = solve() if cache is None else cache.lookup(name, args, resolution, solve, "c0")
    if err > tol * abs(c0):
        raise NoConvergenceError(
            f"no-convergence: speed c0={c0} error estimate {err:.3g} exceeds tol {tol:.3g} times |c0|"
        )
    return c0, err
