"""Linearized vorticity dynamics near Couette flow in sheared coordinates.

With the transport nonlinearity dropped, each Fourier mode (k, eta) of the
vorticity evolves independently:

    d/dt fhat = i beta k / (k^2 + (eta - k t)^2) fhat,

so |fhat| is conserved exactly and the phase has the closed form
(beta/k) (arctan(eta/k) - arctan((eta - k t)/k)).  The sheared Biot-Savart
law gives the velocity amplitudes

    Ux = i (eta - k t) fhat / (k^2 + (eta - k t)^2)
    Uy = -i k         fhat / (k^2 + (eta - k t)^2),

whose L2 norms decay algebraically like 1/t and 1/t^2 (the Orr mechanism);
the norms depend on the moduli |fhat| only, so Coriolis rotation leaves the
decay untouched.  A classical RK4 integrator is provided to exhibit the
conservation law and the closed form numerically.

The RK4 step runs in real arithmetic.  With x = dt a(tau) real, each stage
increment z = i x is purely imaginary, so every product in the tableau has
one purely imaginary factor and the step multiplier is, exactly,

    Re M = 1 - (x1 x2 + x2^2 + x2 x4 (1 - x1 x2 / 4)) / 6
         = 1 - x2 (x1 + x2 + x4 - x1 x2 x4 / 4) / 6
    Im M = ((x1 + x4)(1 - x2^2 / 2) + 4 x2) / 6,

with x1, x2, x4 taken at t, t + dt/2 and t + dt.  The step's endpoint t + dt
is the same float as the next step's t, so x4 is kept as the next x1 and
each endpoint is evaluated once: two rate evaluations per step, not three,
made in one pass over a two-row buffer.  All of it runs in preallocated
float64 buffers; only the amplitude update is complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .tables import CurveTable

__all__ = [
    "ModeState",
    "ModeEnsemble",
    "phase_closed_form",
    "evolve_rk4",
    "velocity_norms",
    "run_damping_experiment",
]

DEFAULT_K_SET = (-3, -2, -1, 1, 2, 3)
DEFAULT_ETA_MAX = 20.0
DEFAULT_D_ETA = 0.05
FIT_WINDOW_START = 10.0


@dataclass(frozen=True)
class ModeState:
    """One Fourier mode of the vorticity perturbation."""

    k: int
    eta: float
    amp: complex

    def __post_init__(self):
        if self.k == 0:
            raise ValidationError("zero-wavenumber: k = 0 modes are excluded (zero mean)")


@dataclass
class ModeEnsemble:
    """A lattice of modes with the quadrature weight d_eta and current time."""

    ks: np.ndarray
    etas: np.ndarray
    amps: np.ndarray
    d_eta: float
    t: float = 0.0

    @classmethod
    def from_profile(
        cls,
        profile: str = "gaussian",
        k_set=DEFAULT_K_SET,
        eta_max: float = DEFAULT_ETA_MAX,
        d_eta: float = DEFAULT_D_ETA,
    ) -> "ModeEnsemble":
        """Initial data on a (k, eta) lattice symmetric under (k, eta) -> (-k, -eta).

        ``gaussian`` uses exp(-eta^2/2) exp(-|k|); ``bump`` a compactly
        supported (1 - (eta/8)^2)^3 exp(-|k|) profile.  Both are real and
        even, so the physical field is real.
        """
        if any(k == 0 for k in k_set):
            raise ValidationError("zero-wavenumber: k = 0 modes are excluded")
        if not (np.isfinite(d_eta) and d_eta > 0):
            raise ValidationError(f"d_eta must be finite and positive, got {d_eta}")
        if not (np.isfinite(eta_max) and eta_max > 0):
            raise ValidationError(f"eta_max must be finite and positive, got {eta_max}")
        n = int(round(eta_max / d_eta))
        eta_line = d_eta * np.arange(-n, n + 1)
        ks = np.repeat(np.asarray(k_set, dtype=int), eta_line.size)
        etas = np.tile(eta_line, len(k_set))
        if profile == "gaussian":
            envelope = np.exp(-(etas**2) / 2.0)
        elif profile == "bump":
            envelope = np.where(np.abs(etas) < 8.0, (1.0 - (etas / 8.0) ** 2) ** 3, 0.0)
        else:
            raise ValidationError(f"unknown profile {profile!r}")
        amps = envelope * np.exp(-np.abs(ks)) + 0.0j
        return cls(ks=ks, etas=etas, amps=amps, d_eta=float(d_eta))

    def copy(self) -> "ModeEnsemble":
        return ModeEnsemble(self.ks.copy(), self.etas.copy(), self.amps.copy(), self.d_eta, self.t)


def phase_closed_form(k: int, eta: float, beta: float, t: float) -> float:
    """Exact accumulated phase (beta/k)(arctan(eta/k) - arctan((eta - kt)/k)).

    Vanishes at t = 0 and stays bounded by pi |beta / k| for all time.
    """
    if k == 0:
        raise ValidationError("zero-wavenumber: the per-mode phase needs k != 0")
    return float(beta / k * (np.arctan(eta / k) - np.arctan((eta - k * t) / k)))


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


class _Kernel:
    """The rate a(tau) of one mode vector, and float64 buffers for its RK4 steps."""

    def __init__(self, ks, etas, beta: float):
        self.k = np.asarray(ks, dtype=float)
        self.eta = np.asarray(etas, dtype=float)
        self.k2 = self.k * self.k
        self.bk = beta * self.k
        self.x1, self.p, self.q, self.r = (np.empty_like(self.k) for _ in range(4))
        self.x24 = np.empty((2,) + self.k.shape)
        self.tau24 = np.empty((2, 1))
        self.m = np.empty(self.k.shape, dtype=complex)

    def scaled_rate(self, tau, dt: float, out: np.ndarray) -> np.ndarray:
        """out = dt a(tau) = dt beta k / (k^2 + (eta - k tau)^2).

        ``tau`` is a float, or a column of times that gives ``out`` one row each.
        """
        np.multiply(self.k, tau, out)
        np.subtract(self.eta, out, out)
        np.square(out, out)
        np.add(self.k2, out, out)
        np.divide(self.bk, out, out)
        return np.multiply(out, dt, out)


def _rk4_multiplier(x1, kern: _Kernel, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step multiplier M for d/dt f = i a(t) f, in real arithmetic.

    Takes x1 = dt a(t), evaluates x2 = dt a(t + dt/2) and x4 = dt a(t + dt)
    in one pass as the rows of ``kern.x24``, and returns M in ``kern.m``.
    Every ufunc writes into its third argument, one of ``kern``'s buffers,
    so a step allocates nothing.
    """
    tau = kern.tau24
    tau[0, 0] = t + 0.5 * dt
    tau[1, 0] = t + dt
    x2, x4 = kern.scaled_rate(tau, dt, kern.x24)
    p, q, r = kern.p, kern.q, kern.r
    # 6 Im M = (x1 + x4)(1 - x2^2/2) + 4 x2
    np.add(x1, x4, p)
    np.square(x2, q)
    np.multiply(q, 0.5, r)
    np.subtract(1.0, r, r)
    np.multiply(p, r, r)
    np.multiply(x2, 4.0, q)
    np.add(r, q, r)
    np.divide(r, 6.0, kern.m.imag)
    # 6 (1 - Re M) = x2 (x1 + x2 + x4 - x1 x2 x4 / 4)
    np.add(p, x2, p)
    np.multiply(x1, x4, q)
    np.multiply(q, x2, q)
    np.multiply(q, 0.25, q)
    np.subtract(p, q, p)
    np.multiply(p, x2, p)
    np.divide(p, 6.0, p)
    np.subtract(1.0, p, kern.m.real)
    return kern.m


def _advance(amps: np.ndarray, kern: _Kernel, t0: float, t1: float, dt: float) -> None:
    """Advance amps in place from t0 to t1 in max(1, round((t1 - t0)/dt)) equal RK4 steps."""
    n = max(1, int(round((t1 - t0) / dt)))
    step = (t1 - t0) / n
    x1 = kern.scaled_rate(t0, step, kern.x1)
    t = t0
    for _ in range(n):
        amps *= _rk4_multiplier(x1, kern, t, step)
        np.copyto(x1, kern.x24[1])  # x4 was evaluated at the next step's t
        t += step


def evolve_rk4(state: ModeState, beta: float, t0: float, t1: float, dt: float) -> ModeState:
    """Advance one mode from t0 to t1 with classical fourth-order steps."""
    _require_finite(beta=beta, t0=t0, t1=t1, dt=dt)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"t1 must exceed t0, got {t0} -> {t1}")
    amps = np.array([state.amp], dtype=complex)
    _advance(amps, _Kernel([state.k], [state.eta], beta), t0, t1, dt)
    return replace(state, amp=complex(amps[0]))


def velocity_norms(ens: ModeEnsemble) -> tuple[float, float]:
    """(||P_neq0 Ux||_L2, ||Uy||_L2) of the ensemble at its current time.

    Quadrature over the lattice with weight d_eta; k = 0 is excluded from
    the lattice, so the first entry is the full nonzero-mode horizontal
    norm.
    """
    s = ens.etas - ens.ks * ens.t
    denom = ens.ks**2 + s**2
    mod2 = np.abs(ens.amps) ** 2
    ux2 = np.sum(mod2 * s**2 / denom**2) * ens.d_eta
    uy2 = np.sum(mod2 * ens.ks**2 / denom**2) * ens.d_eta
    return float(np.sqrt(ux2)), float(np.sqrt(uy2))


def run_damping_experiment(
    init: ModeEnsemble,
    beta: float,
    t_end: float,
    dt: float = 1e-2,
    sample_times=None,
) -> CurveTable:
    """Evolve the ensemble with RK4 and tabulate norms and modulus drift.

    Rows are (t, ux_nonzero_norm, uy_norm, modulus_drift); the fitted
    log-log decay exponents over sample times >= 10 (past the Orr window)
    are attached as metadata.
    """
    _require_finite(beta=beta, t_end=t_end, dt=dt)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_end < init.t:
        raise ValidationError(f"t_end={t_end} is before the ensemble's time {init.t}")
    if sample_times is None:
        sample_times = np.arange(init.t, t_end + 1e-12, 5.0)
    sample_times = sorted(float(s) for s in sample_times)
    for ts in sample_times:
        _require_finite(sample_time=ts)
    if sample_times and sample_times[0] < init.t:
        raise ValidationError(f"sample time {sample_times[0]} is before the ensemble's time {init.t}")
    if sample_times and t_end < sample_times[-1]:
        raise ValidationError(f"t_end={t_end} is before the last sample time {sample_times[-1]}")

    ens = init.copy()
    kern = _Kernel(ens.ks, ens.etas, beta)
    mod0 = np.abs(ens.amps)
    table = CurveTable(
        name="damping-experiment",
        columns=["t", "ux_nonzero_norm", "uy_norm", "modulus_drift"],
        metadata={"beta": beta, "dt": dt, "t_end": t_end, "n_modes": int(ens.amps.size)},
    )
    for ts in sample_times:
        if ts > ens.t:
            _advance(ens.amps, kern, ens.t, ts, dt)
        ens.t = ts
        ux, uy = velocity_norms(ens)
        drift = float(np.max(np.abs(np.abs(ens.amps) - mod0)))
        table.add_row(ts, ux, uy, drift)

    window = [(t, ux, uy) for t, ux, uy, _ in table.rows if t >= FIT_WINDOW_START]
    if len(window) >= 2:
        lt = np.log([w[0] for w in window])
        table.metadata["fit_window_start"] = FIT_WINDOW_START
        table.metadata["fit_exponent_ux_nonzero"] = float(
            np.polyfit(lt, np.log([w[1] for w in window]), 1)[0]
        )
        table.metadata["fit_exponent_uy"] = float(
            np.polyfit(lt, np.log([w[2] for w in window]), 1)[0]
        )
    return table
