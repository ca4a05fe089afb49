"""Independent oracles used to freeze expected values.

The shooting oracle solves the same boundary value problems as the library
by a completely different route: adaptive Runge-Kutta integration of the
second-order ODE from y = -1 with phi(-1) = 0, phi'(-1) = 1, followed by a
root search in lambda on the boundary mismatch phi(1).  It shares no code
with the tridiagonal solver.

An older route to the wall value is kept here as a cross-check: a direct
solve on a mesh graded toward y = -1.

``sturm_count`` (the negative-inertia count from LDL^T pivots) certifies
the library's eigenvalues, and ``rayleigh_quotient`` bounds them from above.

``frobenius_eigenvalue`` and ``frobenius_speed`` are exact for Couette flow
at a speed c <= -1: with x = y - c the problem is x phi'' + (lambda x + beta)
phi = 0, whose Frobenius solutions at the regular singular point x = 0 are
power series (one times a log).  At the wall speed c = -1 the eigenfunction
is the series phi1 itself, and lambda is an eigenvalue when phi1(2) = 0.
They work in decimal arithmetic, at enough digits for the cancellation the
series suffer, and bisect to 1e-30.  ``frobenius_certifies`` checks that
an eigenvalue or a speed lies inside a reported error bar.

``grid_residual_norm`` samples the first-order bifurcation wave on an x-y
grid (Fourier derivatives in x) as the reference for the library's closed
form over its x-harmonics; ``divergence_max`` and ``boundary_velocity_max``
check the same sampled fields.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from betaplane.bifurcation import _deriv4
from betaplane.errors import ValidationError
from betaplane.grid import Grid1D, assemble


def shoot_boundary_value(Q, lam: float) -> float:
    """phi(1) for the IVP -phi'' + Q phi = lam phi, phi(-1) = 0, phi'(-1) = 1."""

    def rhs(y, state):
        phi, dphi = state
        return [dphi, (Q(y) - lam) * phi]

    sol = solve_ivp(
        rhs,
        (-1.0, 1.0),
        [0.0, 1.0],
        method="RK45",
        rtol=1e-11,
        atol=1e-13,
        dense_output=False,
    )
    return float(sol.y[0, -1])


def shooting_eigenvalue(Q, n: int, lam_lo: float, lam_hi: float, n_scan: int = 400) -> float:
    """n-th eigenvalue of -phi'' + Q phi with Dirichlet conditions by shooting.

    Scans [lam_lo, lam_hi] for sign changes of phi(1); the n-th sign change
    from below brackets the n-th eigenvalue (Sturm oscillation).
    """

    def mismatch(lam):
        return shoot_boundary_value(Q, lam)

    lams = np.linspace(lam_lo, lam_hi, n_scan)
    vals = [mismatch(lam) for lam in lams]
    crossings = []
    for a, b, fa, fb in zip(lams, lams[1:], vals, vals[1:]):
        if fa == 0.0:
            crossings.append(a)
        elif fa * fb < 0:
            crossings.append(brentq(mismatch, a, b, xtol=1e-12))
    if len(crossings) < n:
        raise RuntimeError(f"only {len(crossings)} eigenvalues in [{lam_lo}, {lam_hi}]")
    return crossings[n - 1]


def graded_nodes(n_interior: int, grade_ratio) -> np.ndarray:
    """Interior nodes on (-1, 1) refined geometrically toward y = -1 (a mesh for wall layers).

    The j-th gap from the left is C * grade_ratio**(n_interior - j), so at
    least a quarter of the nodes land in the left tenth of the interval for
    the ratios of practical interest.
    """
    if grade_ratio is None or not (0.0 < grade_ratio < 1.0):
        raise ValidationError(f"invalid-ratio: grade_ratio must lie in (0, 1), got {grade_ratio}")
    m = n_interior + 1
    gaps = grade_ratio ** np.arange(m, 0, -1, dtype=float)
    gaps *= 2.0 / gaps.sum()
    return -1.0 + np.cumsum(gaps)[:-1]


def graded_wall_eigenvalue(beta: float, n_interior: int = 2048, grade_ratio: float = 0.998) -> float:
    """lambda_1(beta, -1) solved directly on a graded mesh.

    Uses the mass-symmetrized finite-element form M^{-1/2} (K + M Q) M^{-1/2}
    with lumped masses, which stays symmetric tridiagonal.
    """
    nodes = graded_nodes(n_interior, grade_ratio)
    g = np.diff(np.concatenate(([-1.0], nodes, [1.0])))
    mass = 0.5 * (g[:-1] + g[1:])
    diag = (1.0 / g[:-1] + 1.0 / g[1:]) / mass - beta / (nodes + 1.0)
    off = -1.0 / (g[1:-1] * np.sqrt(mass[:-1] * mass[1:]))
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                  select_range=(0, 0))[0])


def quad_integral(f, a: float, b: float, **kw) -> float:
    kw.setdefault("epsabs", 1e-13)
    kw.setdefault("epsrel", 1e-13)
    kw.setdefault("limit", 200)
    val, _ = quad(f, a, b, **kw)
    return val


def simpson_integral(f, a: float, b: float, n: int = 4096) -> float:
    """Composite Simpson rule with n (even) subintervals."""
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def rk4_multiplier_textbook(ks, etas, beta, t, dt):
    """Classical RK4 step multiplier for d/dt f = i a(t) f, straight from the tableau.

    Complex arithmetic and three rate evaluations per step: the reference the
    library's real-arithmetic step is compared against.
    """

    def a(tau):
        return beta * ks / (ks**2 + (etas - ks * tau) ** 2)

    z1 = 1j * dt * a(t)
    z2 = 1j * dt * a(t + 0.5 * dt)
    z4 = 1j * dt * a(t + dt)
    k1 = z1
    k2 = z2 * (1.0 + 0.5 * k1)
    k3 = z2 * (1.0 + 0.5 * k2)
    k4 = z4 * (1.0 + k3)
    return 1.0 + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def rk4_evolve_textbook(ks, etas, amps, beta, t0, t1, dt):
    """amps advanced from t0 to t1 in max(1, round((t1 - t0)/dt)) textbook RK4 steps.

    Step j starts at t0 + j * step, computed afresh, so long runs carry no
    accumulated rounding in the step times.
    """
    ks = np.asarray(ks, dtype=float)
    etas = np.asarray(etas, dtype=float)
    amps = np.array(amps, dtype=complex)
    n = max(1, int(round((t1 - t0) / dt)))
    step = (t1 - t0) / n
    for j in range(n):
        amps *= rk4_multiplier_textbook(ks, etas, beta, t0 + j * step, step)
    return amps


def sturm_count(diag: np.ndarray, off: np.ndarray, x) -> np.ndarray:
    """Number of eigenvalues of tridiag(diag, off) strictly below each shift.

    Vectorized over an array of shifts; the recurrence over matrix rows is
    sequential, so the cost is one pass over the matrix regardless of how
    many shifts are evaluated.  It certifies ``betaplane.eigen.nth_eigenvalue``.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    off2 = np.asarray(off, dtype=float) ** 2
    pivmin = np.finfo(float).tiny / np.finfo(float).eps
    if off2.size:
        pivmin = max(pivmin, off2.max() * np.finfo(float).eps ** 2)
    # A pivot below pivmin is replaced by +pivmin before it is both counted
    # and propagated: that is the count of a shift a hair below x, so an
    # eigenvalue equal to x is never counted as strictly below it.
    q = diag[0] - xs
    q = np.where(np.abs(q) < pivmin, pivmin, q)
    count = (q < 0).astype(np.int64)
    for i in range(1, diag.size):
        q = diag[i] - xs - off2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, pivmin, q)
        count += q < 0
    return count if np.ndim(x) else count[0]


def rayleigh_quotient(grid: Grid1D, Q, v: np.ndarray) -> float:
    """Discrete variational quotient of -phi'' + Q phi for node samples v.

    Equals (v^T A v) / (v^T v) in the standard symmetric form, i.e. the
    quadrature form (h v^T A v) / (v^T M v) with the lumped mass M = h I.
    Always >= the smallest discrete eigenvalue.
    """
    v = np.asarray(v, dtype=float)
    nrm2 = float(v @ v)
    if nrm2 == 0.0:
        raise ValidationError("zero-vector: Rayleigh quotient of the zero vector")
    op = assemble(grid, Q)
    return float(v @ op.matvec(v)) / nrm2


# --- Frobenius series for Couette flow, in decimal arithmetic --------------------

def _frobenius_solutions(beta, lam, xs, eps):
    """(phi1(x), phi2(x)) at each x > 0, summed until both terms fall below eps.

    phi1 = sum a_n x^n with a_0 = 0, a_1 = 1 and
    (m+1) m a_(m+1) = -beta a_m - lam a_(m-1); phi2 = -beta phi1 ln x + sum b_n x^n
    with b_0 = 1, b_1 = 0 and (m+1) m b_(m+1) = -beta b_m - lam b_(m-1) + beta (2m+1) a_(m+1).
    """
    a_prev, a, b_prev, b = Decimal(0), Decimal(1), Decimal(1), Decimal(0)
    powers = list(xs)
    series = [[x, Decimal(1)] for x in xs]  # a_1 x and b_0, the first nonzero terms
    m = 1
    while True:
        a_next = (-beta * a - lam * a_prev) / ((m + 1) * m)
        b_next = (-beta * b - lam * b_prev + beta * (2 * m + 1) * a_next) / ((m + 1) * m)
        small = m > 8
        for i, terms in enumerate(series):
            powers[i] *= xs[i]
            terms[0] += a_next * powers[i]
            terms[1] += b_next * powers[i]
            small = small and abs(a_next * powers[i]) < eps and abs(b_next * powers[i]) < eps
        if small:
            return [(p1, -beta * p1 * x.ln() + rest) for x, (p1, rest) in zip(xs, series)]
        a_prev, a, b_prev, b = a, a_next, b, b_next
        m += 1


def _frobenius_zero(beta, c, lam, lo, hi, unknown, bisect=True):
    """The zero over [lo, hi] of D = phi1(x1) phi2(x2) - phi1(x2) phi2(x1), x1 = -1 - c and
    x2 = 1 - c, as a function of lam (``unknown`` = 0) or of c (``unknown`` = 1, when the
    given c is the bracket's far end); a float.  With ``bisect`` False, whether D
    changes sign over [lo, hi] instead.

    D vanishes exactly where lam is an eigenvalue at the speed c < -1; at the
    wall c = -1, x1 = 0 and D is phi1(2).  The series cancel to about
    exp(x2 sqrt|lam|) below their terms, so the precision is
    40 + x2 (sqrt|lam| + sqrt|beta| + 1) / 1.5 digits.
    """
    x2 = 1.0 - float(c)
    size = max(abs(float(v)) for v in ((lo, hi) if unknown == 0 else (lam,)))
    digits = int(40 + x2 * (math.sqrt(size) + math.sqrt(abs(beta)) + 1.0) / 1.5)
    with localcontext() as ctx:
        ctx.prec = digits
        eps = Decimal(10) ** -(digits + 5)
        beta, c, lam, lo, hi = (Decimal(repr(float(v))) for v in (beta, c, lam, lo, hi))

        def D(v):
            cv, lv = (c, v) if unknown == 0 else (v, lam)
            if cv == -1:  # phi1 is the solution that vanishes at the wall x = 0
                return _frobenius_solutions(beta, lv, [Decimal(2)], eps)[0][0]
            (p1a, p2a), (p1b, p2b) = _frobenius_solutions(beta, lv, [-1 - cv, 1 - cv], eps)
            return p1a * p2b - p1b * p2a

        d_lo = D(lo)
        if not bisect:
            return d_lo * D(hi) < 0
        if d_lo * D(hi) >= 0:
            raise ValueError(f"D does not change sign over [{lo}, {hi}]")
        while hi - lo > Decimal(10) ** -30:
            mid = (lo + hi) / 2
            if (D(mid) < 0) == (d_lo < 0):
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def frobenius_eigenvalue(beta: float, c: float, lo: float, hi: float) -> float:
    """The Couette eigenvalue in [lo, hi] at the speed c <= -1, exact to float precision.

    The bracket must hold one eigenvalue: D changes sign at each of them.
    At the wall speed c = -1 it is the principal one when beta >= 0.
    """
    return _frobenius_zero(beta, c, 0.0, lo, hi, 0)


def frobenius_speed(beta: float, lambda0: float, lo: float, hi: float) -> float:
    """The speed c in [lo, hi], lo < hi < -1, with lambda(beta, c) = lambda0, exact to float precision.

    Bisects D at lambda0 in c; the bracket must hold one crossing of lambda0
    by an eigenvalue curve, so a narrow bracket around a computed lambda_1
    root holds lambda_1's.
    """
    return _frobenius_zero(beta, lo, lambda0, lo, hi, 1)  # c = lo sets the precision


def frobenius_certifies(beta: float, value: float, bar: float, c=None, lambda0=None) -> bool:
    """D(value - bar) D(value + bar) < 0: an exact eigenvalue at the speed c, or an exact
    speed with lambda(beta, c) = lambda0, lies within ``bar`` of ``value``.

    Give c for an eigenvalue, lambda0 for a speed.  When the bar is far below
    the gap to the neighbouring roots, the root inside it is the one computed.
    """
    if lambda0 is None:
        return _frobenius_zero(beta, c, 0.0, value - bar, value + bar, 0, bisect=False)
    return _frobenius_zero(beta, value - bar, lambda0, value - bar, value + bar, 1, bisect=False)


# --- x-y grid reference for the first-order bifurcation wave -------------------


def _spectral_dx(f, period):
    """d/dx along axis 0 of a periodic field by Fourier differentiation."""
    nx = f.shape[0]
    wav = 2.0 * np.pi / period * np.fft.rfftfreq(nx, d=1.0 / nx)
    return np.fft.irfft(1j * wav[:, None] * np.fft.rfft(f, axis=0), n=nx, axis=0)


def wave_fields(wave, nx: int = 128):
    """(y, h, u, v) of the first-order wave sampled on nx x-points times the padded y-grid."""
    h = wave.grid.h
    y = np.concatenate(([-1.0], wave.grid.nodes, [1.0]))
    phi = np.concatenate(([0.0], wave.phi0, [0.0]))
    dphi = _deriv4(phi, h)
    x = wave.period * np.arange(nx) / nx
    cos = np.cos(wave.alpha0 * x)[:, None]
    sin = np.sin(wave.alpha0 * x)[:, None]
    u2d = wave.profile.jet(y)[0][None, :] + wave.kappa * dphi[None, :] * cos
    v2d = wave.alpha0 * wave.kappa * phi[None, :] * sin
    return y, h, u2d, v2d


def grid_residual_norm(wave, beta: float, nx: int = 128) -> float:
    """Steady-vorticity residual norm on the x-y grid: spectral in x, ``_deriv4`` in y.

    R = (u - c) dx(omega) + v (dy(omega) + beta) with omega = dx(v) - dy(u),
    squared and summed over nx x-points and by the trapezoid rule in y.
    """
    _, h, u2d, v2d = wave_fields(wave, nx)
    omega = _spectral_dx(v2d, wave.period) - np.apply_along_axis(_deriv4, 1, u2d, h)
    resid = (u2d - wave.c) * _spectral_dx(omega, wave.period) + v2d * (
        np.apply_along_axis(_deriv4, 1, omega, h) + beta
    )
    sq = resid**2
    trapz_y = h * (np.sum(sq, axis=1) - 0.5 * (sq[:, 0] + sq[:, -1]))
    return float(np.sqrt(np.sum(trapz_y) * wave.period / nx))


def divergence_max(wave, nx: int = 128) -> float:
    """max |dx(u) + dy(v)| of the wave's fields with matched-order derivatives."""
    _, h, u2d, v2d = wave_fields(wave, nx)
    div = _spectral_dx(u2d, wave.period) + np.apply_along_axis(_deriv4, 1, v2d, h)
    return float(np.max(np.abs(div)))


def boundary_velocity_max(wave, nx: int = 128) -> float:
    """max over x of |v| on the channel walls (exactly zero by construction)."""
    _, _, _, v2d = wave_fields(wave, nx)
    return float(max(np.max(np.abs(v2d[:, 0])), np.max(np.abs(v2d[:, -1]))))
