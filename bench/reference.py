"""Reference answers computed apart from betaplane.

Nothing here imports the program.  Eigenvalues come from LAPACK bisection
(``scipy.linalg.eigh_tridiagonal``) on uniform grids whose spacing halves
exactly from level to level, followed by this module's own Richardson
tableau.  The modified-flow profile is built from ``scipy.special.erf`` and
adaptive quadrature of the bump function, not from the program's ``erf`` or
its interpolated cutoff table.  The damping norms use the exact conservation
of every mode's modulus, so they need no time stepping at all.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import erf

# interior node counts 2^k - 1, so h = 2 / 2^k halves exactly between levels
COUETTE_LEVELS = (2047, 4095, 8191)
MODIFIED_LEVELS = (8191, 16383, 32767, 65535)


def richardson(values) -> tuple[float, float]:
    """Extrapolate values on exactly halving spacings, error ~ h^2, h^4, ...

    Returns (value, |value - the same tableau without its first level|),
    the second entry being this reference's own error estimate.
    """
    def tableau(vals):
        vals = list(vals)
        for j in range(1, len(vals)):
            vals = [(4**j * fine - coarse) / (4**j - 1) for coarse, fine in zip(vals, vals[1:])]
        return vals[0]

    full = tableau(values)
    return full, abs(full - tableau(values[1:]))


def _eigenvalue(q: np.ndarray, h: float, n: int) -> float:
    diag = 2.0 / h**2 + q
    off = np.full(q.size - 1, -1.0 / h**2)
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                         select_range=(n - 1, n - 1), lapack_driver="stebz")
    return float(w[0])


def _nodes(m: int) -> tuple[np.ndarray, float]:
    h = 2.0 / (m + 1)
    return -1.0 + h * np.arange(1, m + 1), h


def couette_lambda(beta: float, c: float, n: int = 1) -> float:
    """lambda_n of -phi'' - beta/(y - c) phi for c outside (-1, 1), c = -1 and c = +1 included.

    At c = -1 (or +1) the potential -beta/(y - c) is finite at every
    interior node and the eigenfunction vanishes linearly at the wall, so
    the uniform-grid eigenvalue converges at second order without any
    regularization.
    """
    values = []
    for m in COUETTE_LEVELS:
        y, h = _nodes(m)
        values.append(_eigenvalue(-beta / (y - c), h, n))
    return richardson(values)[0]


def beta_star() -> float:
    """The root of lambda_1(beta, -1) = 0."""
    return brentq(lambda b: couette_lambda(b, -1.0), 1.0, 3.0, xtol=1e-12)


def alpha_beta(beta: float) -> float:
    """sqrt(-lambda_1(|beta|, -1)) for |beta| beyond beta_star."""
    return math.sqrt(-couette_lambda(abs(beta), -1.0))


# ---- modified flows --------------------------------------------------------

def _bump(s: float) -> float:
    return math.exp(-1.0 / (s - 1.0) - 1.0 / (2.0 - s)) if 1.0 < s < 2.0 else 0.0


def _bump_d(s: float) -> float:
    return _bump(s) * (1.0 / (s - 1.0) ** 2 - 1.0 / (2.0 - s) ** 2) if 1.0 < s < 2.0 else 0.0


_BUMP_MASS = quad(_bump, 1.0, 2.0, epsabs=1e-15, epsrel=1e-14)[0]


def _cutoff(x: np.ndarray):
    """I, I', I'' of the cutoff that is 1 on [-1, 1] and 0 outside (-2, 2)."""
    x = np.asarray(x, dtype=float)
    i0 = (np.abs(x) <= 1.0).astype(float)
    i1 = np.zeros_like(x)
    i2 = np.zeros_like(x)
    for j in np.nonzero((np.abs(x) > 1.0) & (np.abs(x) < 2.0))[0]:
        s = abs(x[j])
        i0[j] = quad(_bump, s, 2.0, epsabs=1e-15, epsrel=1e-14)[0] / _BUMP_MASS
        i1[j] = -math.copysign(1.0, x[j]) * _bump(s) / _BUMP_MASS
        i2[j] = -_bump_d(s) / _BUMP_MASS
    return i0, i1, i2


def modified_profile(beta: float, gamma: float, a: float, y):
    """U, U', U'' of U(y) = y + (beta/2) y^2 I(y/g) + a g^2 erf((y-5g)/g) I((y-5g)/g)."""
    y = np.asarray(y, dtype=float)
    g = gamma
    x1, x2 = y / g, (y - 5.0 * g) / g
    c0, c1, c2 = _cutoff(x1)
    e0, e1, e2 = _cutoff(x2)
    f0 = erf(x2)
    f1 = 2.0 / math.sqrt(math.pi) * np.exp(-x2 * x2)
    f2 = -2.0 * x2 * f1
    u = y + 0.5 * beta * g**2 * x1**2 * c0 + a * g**2 * f0 * e0
    du = 1.0 + 0.5 * beta * g * (2 * x1 * c0 + x1**2 * c1) + a * g * (f1 * e0 + f0 * e1)
    d2u = 0.5 * beta * (2 * c0 + 4 * x1 * c1 + x1**2 * c2) + a * (f2 * e0 + 2 * f1 * e1 + f0 * e2)
    return u, du, d2u


def modified_lambda(beta: float, gamma: float, a: float, n: int = 1) -> tuple[float, float]:
    """(lambda_n, own error estimate) of the modified flow at c = 0.

    The potential (U'' - beta)/U is removable on [-gamma, gamma], where
    U'' equals beta identically; it is set to 0 there.  It is evaluated once
    on the finest grid, whose even-numbered nodes form the coarser grids.
    """
    y, _ = _nodes(MODIFIED_LEVELS[-1])
    u, _, d2u = modified_profile(beta, gamma, a, y)
    flat = np.abs(y) <= gamma
    q = np.zeros_like(y)
    q[~flat] = (d2u[~flat] - beta) / u[~flat]
    values = []
    for level, m in enumerate(MODIFIED_LEVELS):
        stride = 2 ** (len(MODIFIED_LEVELS) - 1 - level)
        values.append(_eigenvalue(q[stride - 1::stride], 2.0 / (m + 1), n))
    return richardson(values)


# ---- linearized damping ----------------------------------------------------

K_SET = (-3, -2, -1, 1, 2, 3)
ETA_MAX = 20.0
D_ETA = 0.05


def damping_moduli(profile: str):
    """(k, eta, |f|) of the default mode lattice for the named initial profile."""
    n = int(round(ETA_MAX / D_ETA))
    eta_line = D_ETA * np.arange(-n, n + 1)
    ks = np.repeat(np.asarray(K_SET, dtype=float), eta_line.size)
    etas = np.tile(eta_line, len(K_SET))
    if profile == "gaussian":
        env = np.exp(-(etas**2) / 2.0)
    else:
        env = np.where(np.abs(etas) < 8.0, (1.0 - (etas / 8.0) ** 2) ** 3, 0.0)
    return ks, etas, env * np.exp(-np.abs(ks))


def damping_norms(profile: str, t: float) -> tuple[float, float]:
    """(||Ux||, ||Uy||) at time t: the moduli never change, only the shear s = eta - k t does."""
    ks, etas, mod = damping_moduli(profile)
    s = etas - ks * t
    den = (ks**2 + s**2) ** 2
    ux = math.sqrt(float(np.sum(mod**2 * s**2 / den)) * D_ETA)
    uy = math.sqrt(float(np.sum(mod**2 * ks**2 / den)) * D_ETA)
    return ux, uy


def damping_phase(k: int, eta: float, beta: float, t: float) -> float:
    """Accumulated phase (beta/k)(atan(eta/k) - atan((eta - k t)/k)) of one mode."""
    return beta / k * (math.atan(eta / k) - math.atan((eta - k * t) / k))
