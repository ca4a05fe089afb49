"""First-order traveling/steady wave approximations from a negative eigenvalue.

When the Rayleigh-Kuo operator of a monotone shear flow has principal
eigenvalue -alpha0^2 < 0 with ground eigenfunction phi0, a branch of
non-parallel waves bifurcates from the flow with x-period near
2 pi / alpha0.  Only the first-order term of that branch is constructed:

    u(x, y) = u(y) + kappa phi0'(y) cos(alpha0 x)
    v(x, y) =        alpha0 kappa phi0(y) sin(alpha0 x)

The steady-vorticity residual of these fields vanishes at order kappa
precisely because phi0 satisfies the eigenvalue relation, so the measured
residual must scale like kappa^2; fitting that slope (and checking that a
non-eigenfunction produces slope 1) is the verification signal, in place of
solving the full nonlinear branch.

The fields hold the single x-harmonic alpha0, so the residual is
A(y) sin + B(y) sin cos and its x-mean square is exactly A^2/2 + B^2/8:
the norm is computed from 1-D arrays in y, with no x-grid.

The principal pair does not depend on kappa, so a ladder shares one solve:
``construct`` and ``period_estimate`` read it from a one-entry memo keyed on
(profile, beta, c, resolution).  It pays where the same profile object is
asked again at the same beta, c and resolution, as in a ladder that calls
``construct`` once per kappa and per control.  The profile is a frozen
dataclass of closures, so it compares by the identity of its functions and
a profile built twice never shares an entry.  The memoized eigenvector is
read-only, as every ``rayleigh_kuo.EigenPair`` hands out its vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PositiveEigenvalueError, ValidationError
from .grid import Grid1D
from .rayleigh_kuo import ShearProfile, lambda_n_general

__all__ = ["WaveApproximation", "construct", "residual_norm", "period_estimate"]


@dataclass
class WaveApproximation:
    """Base flow plus the first-order bifurcation term."""

    profile: ShearProfile
    beta: float
    c: float
    alpha0: float
    kappa: float
    phi0: np.ndarray
    grid: Grid1D
    lambda1: float

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.alpha0


def check_kappa(kappa: float) -> None:
    """Reject an amplitude outside the first-order regime |kappa| <= 0.1, NaN included."""
    if not abs(kappa) <= 0.1:
        raise ValidationError(f"|kappa| <= 0.1 required, got {kappa}")


def check_ladder(kappas) -> None:
    """Reject amplitudes that cannot fit a slope: fewer than two nonzero, or a single |kappa|.

    A zero amplitude has residual exactly 0, which the log-log fit cannot use.
    """
    kappas = [k for k in kappas if k != 0]
    if len(kappas) < 2:
        raise ValidationError("need at least two positive residuals to fit a slope")
    if len({abs(k) for k in kappas}) < 2:
        raise ValidationError("need residuals at two distinct |kappa| to fit a slope")


@lru_cache(maxsize=1)
def _principal_pair(profile: ShearProfile, beta: float, c: float, resolution: int):
    # the module global is looked up per call, so a patched lambda_n_general is seen
    return lambda_n_general(profile, beta, c, 1, resolution)


def construct(
    profile: ShearProfile,
    beta: float,
    c: float,
    kappa: float,
    resolution: int = 128,
    phi_override: np.ndarray | None = None,
) -> WaveApproximation:
    """Build the first-order wave at amplitude kappa.

    ``phi_override`` replaces the computed eigenfunction (same grid layout)
    and exists for negative-control experiments; with it the order-kappa
    cancellation is destroyed on purpose.
    """
    check_kappa(kappa)
    pair = _principal_pair(profile, beta, c, resolution)
    if pair.value >= 0:
        raise PositiveEigenvalueError(
            f"positive-eigenvalue: lambda_1 = {pair.value} >= 0, no bifurcation point"
        )
    phi0 = pair.vector if phi_override is None else np.asarray(phi_override, dtype=float)
    if phi0.shape != (pair.grid.n_interior,):
        raise ValidationError("phi_override must match the eigenvector grid")
    return WaveApproximation(
        profile=profile,
        beta=beta,
        c=c,
        alpha0=float(np.sqrt(-pair.value)),
        kappa=float(kappa),
        phi0=phi0,
        grid=pair.grid,
        lambda1=pair.value,
    )


def _deriv4(v: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid (one-sided at edges)."""
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    return d


def residual_norm(wave: WaveApproximation, beta: float) -> float:
    """Discrete L2 norm of the steady-vorticity residual over one period.

    R = (u - c) dx(omega) + v (dy(omega) + beta) with omega = dx(v) - dy(u).
    With D the fourth-order y-derivative on the eigenvector grid (so the
    kappa^2 signal stays above the discretization floor) and
    W = alpha0^2 phi0 - D D phi0, the wave's fields give

        omega = -D u + kappa W cos(alpha0 x),   R = A sin + B sin cos,
        A = alpha0 kappa (phi0 (beta - D D u) - W (u - c)),
        B = alpha0 kappa^2 (phi0 D W - W D phi0).

    A is the order-kappa term the eigenvalue relation cancels and B the
    kappa^2 signal.  R^2 holds x-harmonics up to 4, whose mean over a period
    is exactly A^2/2 + B^2/8, so ||R||^2 = period * trapz_y(A^2/2 + B^2/8)
    with no x-grid.
    """
    h = wave.grid.h
    y = np.concatenate(([-1.0], wave.grid.nodes, [1.0]))
    phi = np.concatenate(([0.0], wave.phi0, [0.0]))
    u = wave.profile.u(y)
    dphi = _deriv4(phi, h)
    w = wave.alpha0**2 * phi - _deriv4(dphi, h)
    ak = wave.alpha0 * wave.kappa
    a = ak * (phi * (beta - _deriv4(_deriv4(u, h), h)) - w * (u - wave.c))
    b = ak * wave.kappa * (phi * _deriv4(w, h) - w * dphi)
    sq = a**2 / 2 + b**2 / 8
    return float(np.sqrt(wave.period * h * (np.sum(sq) - 0.5 * (sq[0] + sq[-1]))))


def period_estimate(profile: ShearProfile, beta: float, c: float, resolution: int = 256) -> float:
    """Limiting x-period 2 pi / sqrt(-lambda_1) of the bifurcating branch."""
    lam = _principal_pair(profile, beta, c, resolution).value
    if lam >= 0:
        raise PositiveEigenvalueError(f"positive-eigenvalue: lambda_1 = {lam} >= 0")
    return float(2.0 * np.pi / np.sqrt(-lam))


def residual_slope(residuals_by_kappa) -> float:
    """Least-squares slope of log(residual) against log|kappa| (the residual is even in kappa)."""
    pts = [(k, r) for k, r in residuals_by_kappa if r > 0]
    check_ladder([k for k, _ in pts])
    lk = np.log([abs(k) for k, _ in pts])
    lr = np.log([r for _, r in pts])
    slope, _ = np.polyfit(lk, lr, 1)
    return float(slope)
