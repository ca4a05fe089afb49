"""Independent oracles used to freeze expected values.

The shooting oracle solves the same boundary value problems as the library
by a completely different route: adaptive Runge-Kutta integration of the
second-order ODE from y = -1 with phi(-1) = 0, phi'(-1) = 1, followed by a
root search in lambda on the boundary mismatch phi(1).  It shares no code
with the tridiagonal solver.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq


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
    lams = np.linspace(lam_lo, lam_hi, n_scan)
    vals = [shoot_boundary_value(Q, lam) for lam in lams]
    crossings = []
    for a, b, fa, fb in zip(lams, lams[1:], vals, vals[1:]):
        if fa == 0.0:
            crossings.append(a)
        elif fa * fb < 0:
            crossings.append(brentq(lambda lam: shoot_boundary_value(Q, lam), a, b, xtol=1e-12))
    if len(crossings) < n:
        raise RuntimeError(f"only {len(crossings)} eigenvalues in [{lam_lo}, {lam_hi}]")
    return crossings[n - 1]


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
    """amps advanced from t0 to t1 in max(1, round((t1 - t0)/dt)) textbook RK4 steps."""
    ks = np.asarray(ks, dtype=float)
    etas = np.asarray(etas, dtype=float)
    amps = np.array(amps, dtype=complex)
    n = max(1, int(round((t1 - t0) / dt)))
    step = (t1 - t0) / n
    t = t0
    for _ in range(n):
        amps *= rk4_multiplier_textbook(ks, etas, beta, t, step)
        t += step
    return amps
