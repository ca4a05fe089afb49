"""The traveling-wave phase diagram over the (alpha, beta) half-plane.

For Couette flow the existence picture is controlled by the principal
eigenvalue at the wall speed, lam1(|beta|, -1): the transition value
beta_star is its unique positive root in beta, the borderline wavenumber is
alpha_beta = sqrt(-lam1(|beta|, -1)) with critical period T_beta =
2 pi / alpha_beta, and the plane splits into

    O       no traveling waves      (|beta| <= beta_star, or alpha > alpha_beta)
    I+, I-  traveling waves         (|beta| > beta_star, alpha < alpha_beta)
    Gamma+, Gamma-                  the borderline curves alpha = alpha_beta

Everything here reduces to monotone root finding on eigenvalue curves, so
results carry the eigenvalue error estimates they were derived from.
Computations are memoized in process and, when a cache is supplied, on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cache import CurveCache, cache_key
from .errors import (
    BracketFailureError,
    NoConvergenceError,
    OutOfRangeLambdaError,
    ValidationError,
)
from .rayleigh_kuo import (
    DEFAULT_EPS_SCHEDULE,
    RayleighKuoSpec,
    lambda_1_singular,
    lambda_n_regular,
)
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
    "alpha_beta",
    "alpha_beta_curve",
    "beta_T",
    "classify",
    "speed_for_eigenvalue",
]

REGION_O = "O"
REGION_GAMMA_PLUS = "Gamma+"
REGION_GAMMA_MINUS = "Gamma-"
REGION_I_PLUS = "I+"
REGION_I_MINUS = "I-"

PI2_OVER_4 = np.pi**2 / 4.0

_MAX_BRACKET_DOUBLINGS = 60
_MAX_BISECT = 200


def _require_tol(tol):
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be finite and positive, got {tol}")


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one (alpha, beta) point, with the curve data used."""

    label: str
    beta_star: float
    alpha_beta: float | None
    tolerance: float


@lru_cache(maxsize=4096)
def _lambda1_wall_mem(beta: float, resolution: int, schedule: tuple) -> tuple:
    side = "left" if beta >= 0 else "right"
    pair = lambda_1_singular(beta, side, schedule, resolution)
    return pair.value, pair.error_estimate


@lru_cache(maxsize=65536)
def _lambda1_regular_mem(beta: float, c: float, resolution: int) -> tuple:
    pair = lambda_n_regular(RayleighKuoSpec.for_couette(beta, c), 1, resolution)
    return pair.value, pair.error_estimate


def lambda1_wall(beta, resolution=256, eps_schedule=None, cache=None):
    """lam1(beta, -1) for beta >= 0 (resp. lam1(beta, +1) for beta < 0).

    Returns (value, error_estimate); cached in memory and optionally on disk.
    """
    schedule = tuple(eps_schedule) if eps_schedule is not None else DEFAULT_EPS_SCHEDULE
    beta = float(beta)
    if cache is not None:
        key = cache_key("lambda1-wall", beta=beta, resolution=resolution, schedule=schedule)
        hit = cache.get(key)
        if hit is not None:
            _, value, err = hit.rows[0]
            return value, err
    value, err = _lambda1_wall_mem(beta, int(resolution), schedule)
    if cache is not None:
        table = CurveTable(
            name="lambda1-wall",
            columns=["beta", "lambda1", "error_estimate"],
            metadata={"resolution": resolution, "eps_schedule": list(schedule)},
        )
        table.add_row(beta, value, err)
        cache.put(key, table)
    return value, err


def lambda1_regular(beta, c, resolution=256, cache=None):
    """lam1(beta, c) for a speed c strictly outside [-1, 1]; (value, error)."""
    beta, c = float(beta), float(c)
    if cache is not None:
        key = cache_key("lambda1-regular", beta=beta, c=c, resolution=resolution)
        hit = cache.get(key)
        if hit is not None:
            _, _, value, err = hit.rows[0]
            return value, err
    value, err = _lambda1_regular_mem(beta, c, int(resolution))
    if cache is not None:
        table = CurveTable(
            name="lambda1-regular",
            columns=["beta", "c", "lambda1", "error_estimate"],
            metadata={"resolution": resolution},
        )
        table.add_row(beta, c, value, err)
        cache.put(key, table)
    return value, err


def find_beta_star(tol=1e-5, resolution=256, eps_schedule=None, cache=None):
    """The unique beta > 0 with lam1(beta, -1) = 0, to |lam1| <= tol.

    lam1(., -1) is strictly decreasing, so the root is bracketed by doubling
    or halving from beta = 1 and then bisected.
    """
    _require_tol(tol)
    if tol < 1e-6:
        raise ValidationError(f"tol must be >= 1e-6, got {tol}")

    def f(b):
        return lambda1_wall(b, resolution, eps_schedule, cache)[0]

    lo = hi = 1.0
    flo = f(1.0)
    if flo > 0:
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            hi *= 2.0
            if f(hi) < 0:
                break
        else:
            raise BracketFailureError("bracket-failure: lam1(beta,-1) never became negative")
    else:
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            lo *= 0.5
            if f(lo) > 0:
                break
        else:
            raise BracketFailureError("bracket-failure: lam1(beta,-1) never became positive")
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
    raise NoConvergenceError("beta-star bisection did not reach the residual tolerance")


def alpha_beta(beta, resolution=256, eps_schedule=None, cache=None):
    """Borderline wavenumber alpha_beta = sqrt(-lam1(|beta|, -1)).

    Returns (alpha, error_estimate); requires lam1(|beta|, -1) <= 0, i.e.
    |beta| >= beta_star up to the eigenvalue error.
    """
    lam, err = lambda1_wall(abs(float(beta)), resolution, eps_schedule, cache)
    if lam > err:
        raise ValidationError(
            f"below-threshold: lam1({abs(beta)}, -1) = {lam} > 0, |beta| < beta_star"
        )
    alpha = float(np.sqrt(max(-lam, 0.0)))
    alpha_err = err / (2.0 * alpha) if alpha > 0 else float(np.sqrt(err))
    return alpha, alpha_err


def alpha_beta_curve(betas, resolution=256, eps_schedule=None, cache=None) -> CurveTable:
    """Rows (beta, alpha_beta, error) of the borderline curve, sorted by beta."""
    schedule = tuple(eps_schedule) if eps_schedule is not None else DEFAULT_EPS_SCHEDULE
    table = CurveTable(
        name="alpha-beta-curve",
        columns=["beta", "alpha_beta", "error_estimate"],
        metadata={"resolution": resolution, "eps_schedule": list(schedule)},
    )
    for beta in sorted(float(b) for b in betas):
        alpha, err = alpha_beta(beta, resolution, schedule, cache)
        table.add_row(beta, alpha, max(err, 1e-16))
    return table


def beta_T(T, tol=1e-5, resolution=256, eps_schedule=None, cache=None):
    """The unique beta_T > 0 with lam1(beta_T, -1) = -4 pi^2 / T^2."""
    if T <= 0:
        raise ValidationError(f"period T must be positive, got {T}")
    _require_tol(tol)
    target = -4.0 * np.pi**2 / T**2

    def g(b):
        return lambda1_wall(b, resolution, eps_schedule, cache)[0] - target

    lo = hi = 1.0
    if g(1.0) > 0:
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            hi *= 2.0
            if g(hi) < 0:
                break
        else:
            raise BracketFailureError("bracket-failure: lam1(beta,-1) never crossed the target")
    else:
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            lo *= 0.5
            if g(lo) > 0:
                break
        else:
            raise BracketFailureError("bracket-failure: lam1(beta,-1) never crossed the target")
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol:
            return mid
        if gm > 0:
            lo = mid
        else:
            hi = mid
    raise NoConvergenceError("beta_T bisection did not reach the residual tolerance")


def classify(alpha, beta, tol=1e-4, resolution=256, eps_schedule=None, cache=None) -> RegionVerdict:
    """Place (alpha, beta) into one of O, Gamma+/-, I+/-.

    The borderline verdicts Gamma+/- are assigned on the strip
    |alpha - alpha_beta| <= tol, since exact curve membership is numerically
    meaningless; the verdict records beta_star, alpha_beta, and the
    tolerance used.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= 0:
        raise ValidationError(f"wavenumber alpha must be positive, got {alpha}")
    _require_tol(tol)
    bstar = find_beta_star(resolution=resolution, eps_schedule=eps_schedule, cache=cache)
    if abs(beta) <= bstar:
        return RegionVerdict(REGION_O, bstar, None, tol)
    ab, _ = alpha_beta(beta, resolution, eps_schedule, cache)
    if abs(alpha - ab) <= tol:
        label = REGION_GAMMA_PLUS if beta > 0 else REGION_GAMMA_MINUS
    elif alpha < ab - tol:
        label = REGION_I_PLUS if beta > 0 else REGION_I_MINUS
    else:
        label = REGION_O
    return RegionVerdict(label, bstar, ab, tol)


def speed_for_eigenvalue(beta, lambda0, tol=1e-5, resolution=256, eps_schedule=None, cache=None):
    """The unique c0 < -1 with lam1(beta, c0) = lambda0, for beta > beta_star.

    lam1(beta, .) decreases from pi^2/4 (c -> -inf) to lam1(beta, -1)
    (c -> -1), so any lambda0 strictly between those values is attained
    exactly once; lambda0 = 0 returns the crossing speed c_beta.
    """
    beta = float(beta)
    lambda0 = float(lambda0)
    _require_tol(tol)
    lam_wall, wall_err = lambda1_wall(beta, resolution, eps_schedule, cache)
    if not lam_wall < lambda0 < PI2_OVER_4:
        raise OutOfRangeLambdaError(
            f"out-of-range-lambda: lambda0={lambda0} outside "
            f"(lam1(beta,-1)={lam_wall}, pi^2/4={PI2_OVER_4})"
        )

    def f(c):
        return lambda1_regular(beta, c, resolution, cache)[0] - lambda0

    # f < 0 near the wall, f > 0 far out; shrink delta / double R as needed.
    delta = 1e-3
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if f(-1.0 - delta) < 0:
            break
        delta *= 0.5
        if delta < 1e-9:
            raise BracketFailureError("bracket-failure: no sign change approaching the wall")
    hi = -1.0 - delta
    R = 8.0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if f(-R) > 0:
            break
        R *= 2.0
    else:
        raise BracketFailureError("bracket-failure: lam1(beta,c) never exceeded lambda0")
    lo = -R
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
    raise NoConvergenceError("speed bisection did not reach the residual tolerance")
