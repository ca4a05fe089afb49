"""Modified shear flows with a tunable principal eigenvalue.

The profile is Couette plus two compactly supported corrections,

    U(y) = y + (beta/2) y^2 I_g(y) + a g^2 erf((y - 5g)/g) I_g(y - 5g),

with g = gamma and I_g(y) = I(y/g) a smooth bump-integral cutoff (1 on
[-1, 1], 0 outside [-2, 2]).  The quadratic term makes U'' - beta vanish
identically on [-gamma, gamma], so the Rayleigh-Kuo potential
(U'' - beta)/U is removable across the critical layer at y = 0; the
translated error-function term (supported on [3 gamma, 7 gamma]) drags the
principal eigenvalue down as its amplitude a grows, at the asymptotic rate
3 + (3/2) b0 a with b0 < 0 a universal constant.

The cutoff integral G(u) = int_u^2 eta is tabulated once on 8193 nodes of
[1, 2] by 16-point Gauss-Legendre and interpolated by cubic Hermite pieces
with its exact slopes -eta, limited per interval (Fritsch-Carlson) so that
the cutoff stays monotone and nonnegative; its derivatives are analytic,
and ``cutoff_jet`` returns I, I' and I'' from one evaluation of eta.
The profile's jet evaluates the cutoffs and erf on the corrections'
support [-2 gamma, 7 gamma] only: at gamma = 0.0025 that is 164 of the
16,384 nodes of the finest grid.
``b0`` uses the same Gauss-Legendre rule.  ``erf`` is the C library's error
function (``math.erf``) applied elementwise where |x| < 6 and sign(x)
beyond, where erf rounds to +-1; scipy.special is never imported.

The monotonicity guard's constants M and M0 are universal literals
(``cutoff_constants``); the tests recompute both bitwise by a sweep of [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoBracketError, ValidationError, require_finite
from .eigen import monotone_root
from .rayleigh_kuo import EigenPair, ShearProfile, lambda_n_general

__all__ = [
    "erf",
    "cutoff_I",
    "cutoff_jet",
    "CutoffConstants",
    "cutoff_constants",
    "ModifiedFlowParams",
    "profile",
    "b0",
    "lambda_n_modified",
    "level_set_a",
    "default_a_max",
    "suggested_resolution",
]

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
_MIN_RESOLUTION = 256  # the coarsest grid suggested_resolution returns


def erf(x):
    """The error function, elementwise; a 0-d input gives a scalar."""
    x = np.asarray(x, dtype=float)
    out = np.sign(x, out=np.empty_like(x))
    near = np.abs(x) < 6.0
    values = x[near].tolist()  # math.erf maps over Python floats 1.3x faster than np.frompyfunc
    out[near] = np.fromiter(map(math.erf, values), float, len(values))
    return out[()]


def _erf_jet(x):
    """(erf, erf', erf'') at the array x, with one exp."""
    gauss = np.exp(-(x**2))
    return erf(x), _TWO_OVER_SQRT_PI * gauss, -2.0 * x * _TWO_OVER_SQRT_PI * gauss


def _bump(x):
    """eta(x) = exp(-1/(x-1)) exp(-1/(2-x)) on (1, 2), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 1.0) & (x < 2.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi - 1.0) - 1.0 / (2.0 - xi))
    return out


_TABLE_POINTS = 8193


@lru_cache(maxsize=1)
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], built (with numpy.polynomial) on first use."""
    return np.polynomial.legendre.leggauss(16)


def _panel_integrals(f, lo, hi, panels):
    """16-point Gauss-Legendre integrals of f over `panels` equal panels of [lo, hi]."""
    nodes, weights = _gauss_legendre()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return half * f(mids[:, None] + half * nodes[None, :]) @ weights


@lru_cache(maxsize=1)
def _cutoff_table():
    """Hermite coefficients of G(u) = integral of eta over [u, 2], and G(1).

    Row i is G on [u_i, u_i + h] in t = (u - u_i)/h, c0 + t (c1 + t (c2 + t c3)).
    """
    us = np.linspace(1.0, 2.0, _TABLE_POINTS)
    pieces = _panel_integrals(_bump, 1.0, 2.0, _TABLE_POINTS - 1)
    g = np.concatenate((np.cumsum(pieces[::-1])[::-1], [0.0]))
    # Exact end slopes G' = -eta, pulled into the disc of radius 3 (Fritsch-Carlson)
    # so that every piece is monotone, also on the flat intervals next to u = 2.
    delta = np.diff(g)
    slope = -(us[1] - us[0]) * _bump(us)
    m0, m1 = slope[:-1], slope[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.hypot(m0 / delta, m1 / delta)
    scale = np.where(delta == 0.0, 0.0, np.where(r > 3.0, 3.0 / r, 1.0))
    m0, m1 = scale * m0, scale * m1
    coeffs = np.stack((g[:-1], m0, 3.0 * delta - 2.0 * m0 - m1, m0 + m1 - 2.0 * delta), axis=1)
    return coeffs, float(g[0])


def cutoff_I(x):
    """Smooth cutoff: exactly 1 for |x| <= 1, exactly 0 for |x| >= 2."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    a = np.abs(np.atleast_1d(arr))
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < 2.0)
    if np.any(mid):
        coeffs, norm = _cutoff_table()
        s = (a[mid] - 1.0) * (_TABLE_POINTS - 1)
        i = np.minimum(s.astype(np.intp), _TABLE_POINTS - 2)
        t = s - i
        c0, c1, c2, c3 = coeffs[i].T
        out[mid] = (c0 + t * (c1 + t * (c2 + t * c3))) / norm
    return float(out[0]) if scalar else out.reshape(arr.shape)


def cutoff_jet(x):
    """(I, I', I'') at x from one evaluation of eta: I' = -sign(x) eta(|x|)/G(1), I'' = -eta'(|x|)/G(1).

    One |x|, one mask of 1 < |x| < 2, and on it one table lookup and one
    ``_bump``; the bits are ``cutoff_I``'s and the full formulas', signed
    zeros included.
    """
    arr = np.asarray(x, dtype=float)
    a = np.abs(arr)
    coeffs, norm = _cutoff_table()
    inside = (a > 1.0) & (a < 2.0)
    ai = a[inside]
    eta, deta, cut = np.zeros_like(a), np.zeros_like(a), np.where(a <= 1.0, 1.0, 0.0)
    eta[inside] = eta_i = _bump(ai)
    from_1 = ai - 1.0
    deta[inside] = eta_i * (1.0 / from_1**2 - 1.0 / (2.0 - ai) ** 2)
    s = from_1 * (_TABLE_POINTS - 1)
    i = np.minimum(s.astype(np.intp), _TABLE_POINTS - 2)
    t = s - i
    c0, c1, c2, c3 = coeffs[i].T
    cut[inside] = (c0 + t * (c1 + t * (c2 + t * c3))) / norm
    return (float(cut) if cut.ndim == 0 else cut), -np.sign(arr) * eta / norm, -deta / norm


@dataclass(frozen=True)
class CutoffConstants:
    """M = sup |2x I + x^2 I'| and M0 = sup |erf' I + erf I'| over [0, 2]."""

    M: float
    M0: float


_CUTOFF_CONSTANTS = CutoffConstants(M=4.917330890744651, M0=2.461431389378077)


def cutoff_constants() -> CutoffConstants:
    return _CUTOFF_CONSTANTS


@dataclass(frozen=True)
class ModifiedFlowParams:
    """Coriolis parameter, cutoff scale, and error-function amplitude.

    gamma must satisfy both the smallness condition
    gamma < min(1/2, 1/(10 |beta|)) and the monotonicity guard
    gamma < 1/((|beta|/2) M + a M0), which keeps U' > 0 on [-1, 1].
    """

    beta: float
    gamma: float
    a: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.beta, self.gamma, self.a))):
            raise ValidationError(f"invariant-violation: beta, gamma and a must be finite, got {self}")
        if self.beta == 0.0:
            raise ValidationError("invariant-violation: beta != 0 is required")
        if self.a < 0.0:
            raise ValidationError(f"invariant-violation: a >= 0 is required, got a={self.a}")
        lim = min(0.5, 1.0 / (10.0 * abs(self.beta)))
        if not 0.0 < self.gamma < lim:
            raise ValidationError(
                "invariant-violation: gamma < min(1/2, 1/(10|beta|)) = "
                f"{lim} is required, got gamma={self.gamma}"
            )
        consts = _CUTOFF_CONSTANTS
        guard = 1.0 / (0.5 * abs(self.beta) * consts.M + self.a * consts.M0)
        if self.gamma >= guard:
            raise ValidationError(
                "invariant-violation: gamma < 1/((|beta|/2) M + a M0) = "
                f"{guard} is required, got gamma={self.gamma}"
            )


def profile(params: ModifiedFlowParams) -> ShearProfile:
    """The modified shear profile, whose jet gives (U, U', U'') analytically.

    The quadratic correction is supported on [-2 gamma, 2 gamma], the
    translated error-function term on [3 gamma, 7 gamma].  One jet
    evaluation computes x1 = y/gamma and x2 = (y - 5 gamma)/gamma, and the
    cutoff jets at both and the erf jet at x2 once each, at the nodes of
    that support (|x1| < 2 or |x2| < 2) only.  Elsewhere U = y, U' = 1 and
    U'' is the signed zero that the full formula gives there: -0.0 where
    beta < 0 and x2 > 0, +0.0 otherwise.  A 0-d y gives scalars.
    U'' == beta holds identically on [-gamma, gamma], which is recorded as
    the profile's flat zone for the removable critical layer at y = 0.
    """
    beta, g, a = params.beta, params.gamma, params.a

    def jet(y):
        y = np.asarray(y, dtype=float)
        x1 = y / g
        x2 = (y - 5.0 * g) / g
        # off the support U = y, U' = 1, and U'' is the signed zero the formula gives there
        u, du, d2u = y.copy(), np.ones_like(y), np.where((x2 > 0.0) & (beta < 0.0), -0.0, 0.0)
        on = (np.abs(x1) < 2.0) | (np.abs(x2) < 2.0)
        y, x1, x2 = y[on], x1[on], x2[on]
        c1, dc1, d2c1 = cutoff_jet(x1)
        c2, dc2, d2c2 = cutoff_jet(x2)
        e, de, d2e = _erf_jet(x2)
        u[on] = y + 0.5 * beta * g**2 * x1**2 * c1 + a * g**2 * e * c2
        du[on] = 1.0 + 0.5 * beta * g * (2.0 * x1 * c1 + x1**2 * dc1) + a * g * (de * c2 + e * dc2)
        d2u[on] = 0.5 * beta * (2.0 * c1 + 4.0 * x1 * dc1 + x1**2 * d2c1) + a * (
            d2e * c2 + 2.0 * de * dc2 + e * d2c2
        )
        return u[()], du[()], d2u[()]

    # U alone at the ends, as jet computes it: the flow range
    ends = np.array([-1.0, 1.0])
    x1, x2 = ends / g, (ends - 5.0 * g) / g
    lo, hi = ends + 0.5 * beta * g**2 * x1**2 * cutoff_I(x1) + a * g**2 * erf(x2) * cutoff_I(x2)
    label = f"modified-flow(beta={beta:g}, gamma={g:g}, a={a:g})"
    return ShearProfile(jet, float(lo), float(hi), label, flat_zone=(-g, g), flat_d2u=beta)


@lru_cache(maxsize=1)
def b0() -> float:
    """The negative constant 2 * int_0^2 ((x+5)^-3 - (5-x)^-3) erf(x) I(x) dx.

    Controls the small-gamma asymptote 3 + (3/2) b0 a of the principal
    eigenvalue; evaluated by 16-point Gauss-Legendre on 256 equal panels.
    """

    def integrand(x):
        return ((x + 5.0) ** -3 - (5.0 - x) ** -3) * erf(x) * cutoff_I(x)

    return 2.0 * float(np.sum(_panel_integrals(integrand, 0.0, 2.0, 256)))


def suggested_resolution(gamma: float) -> int:
    """Base grid size that resolves the gamma-scale potential features."""
    need = 8.0 / gamma
    res = _MIN_RESOLUTION
    while res < need:
        res *= 2
    return res


def lambda_n_modified(params: ModifiedFlowParams, n: int, resolution: int | None = None) -> EigenPair:
    """n-th Rayleigh-Kuo eigenvalue of the modified flow at speed c = 0."""
    if resolution is None:
        resolution = suggested_resolution(params.gamma)
    return lambda_n_general(profile(params), params.beta, 0.0, n, resolution)


def default_a_max(d: float) -> float:
    """Amplitude bound (4 d - 6) / (3 b0) + 1 guaranteeing lambda_1 < d below it."""
    return (4.0 * d - 6.0) / (3.0 * b0()) + 1.0


def level_set_a(
    beta: float,
    gamma: float,
    d: float,
    a_max: float | None = None,
    tol: float = 1e-4,
    resolution: int | None = None,
):
    """The amplitude a with lambda_1(gamma, a) = d, to |lambda_1 - d| <= tol.

    Requires lambda_1(gamma, 0) > d and lambda_1(gamma, a_max) < d.
    lambda_1 decreases in a, so the root on [0, a_max] is unique, and
    ``monotone_root`` finds it on that bracket.  Without ``a_max`` the bound
    ``default_a_max(d)`` is used where it is positive; elsewhere a doubles
    from 1 until lambda_1 < d, and an amplitude the monotonicity guard
    rejects first raises ``NoBracketError``.
    """
    require_finite("d", d)
    if a_max is not None:
        require_finite("a_max", a_max, positive=True)
    require_finite("tol", tol, positive=True)
    if resolution is None:
        resolution = suggested_resolution(gamma)

    def f(a):
        return lambda_n_modified(ModifiedFlowParams(beta, gamma, a), 1, resolution).value - d

    f_lo = f(0.0)
    if a_max is None:
        a_max = default_a_max(d)
    if a_max > 0:
        f_max = f(a_max)
    else:
        a_max, f_max = 0.0, f_lo
        while f_max >= 0:
            a_max = 2.0 * a_max or 1.0
            try:
                f_max = f(a_max)
            except ValidationError as exc:
                raise NoBracketError(
                    f"no-bracket: lambda_1(gamma,a) >= d={d} at a = 0 and at each doubled "
                    f"amplitude below a={a_max}, which the monotonicity guard rejects"
                ) from exc
    if not (f_lo > 0 and f_max < 0):
        raise NoBracketError(
            f"no-bracket: need lambda_1(gamma,0) > d > lambda_1(gamma,a_max={a_max}), got "
            f"{f_lo + d} and {f_max + d} around d={d} (gamma may not be small enough)"
        )
    return monotone_root(f, 0.0, a_max, f_lo, f_max, tol)
