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
each endpoint is evaluated once: two rate evaluations per step, not three.
All of it runs in float64 buffers that each call allocates once; only the
amplitude update is complex.

Steps go in blocks of B = max(1, 32768 // modes) (``BLOCK_MODE_STEPS``),
modes counted over the full lattice, conjugate partners included: one rate
pass evaluates the 2B times t + (dt/2) [1..2B] of a block, and t advances
by B dt between blocks.  The default 4806-mode lattice steps 6 at a time,
and a single ``evolve_rk4`` mode makes one pass per 32768 steps.  The
multipliers are applied step by step, in order.  The block size moves only
the last bits, through the rounding of the times t + (dt/2) j, and the
tables stay within 1e-13 of the complex textbook tableau stepped one step
at a time (``tests/oracles.py``).

The vorticity is real, so its modes are Hermitian:
fhat(-k, -eta) = conj fhat(k, eta).  Under (k, eta) -> (-k, -eta) every
rate x changes sign exactly in IEEE arithmetic, so the multiplier is
exactly conj M, and a conjugate pair stays one bitwise.  The experiment
steps one mode of each pair and rebuilds its partner by conjugation at the
sample times; modes without an exact partner are stepped as they are.
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
BLOCK_MODE_STEPS = 32768  # mode-steps per rate pass; 16384 and 65536 were no faster


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
        if len(k_set) == 0:
            raise ValidationError("k_set must name at least one wavenumber")
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


def _block_steps(modes: int) -> int:
    """B = max(1, BLOCK_MODE_STEPS // modes): steps per rate pass for a lattice of ``modes``.

    ``modes`` is the full lattice, conjugate partners included, so a paired
    run and the same run stepping every mode use the same blocks.
    """
    return max(1, BLOCK_MODE_STEPS // modes)


def _rk4_multiplier(x1, x2, x4, work, m) -> np.ndarray:
    """Classical RK4 step multipliers M for d/dt f = i a(t) f, in real arithmetic.

    x1, x2 and x4 are dt a(tau) at the starts, midpoints and ends of a block
    of steps, flat, one run of modes per step; M is written into ``m`` in
    the same layout.  ``work`` is three float64 rows as long as x1, and
    every ufunc writes into its third argument, so a block allocates nothing.
    """
    p, q, r = work
    # 6 Im M = (x1 + x4)(1 - x2^2/2) + 4 x2
    np.add(x1, x4, p)
    np.square(x2, q)
    np.multiply(q, 0.5, r)
    np.subtract(1.0, r, r)
    np.multiply(p, r, r)
    np.multiply(x2, 4.0, q)
    np.add(r, q, r)
    np.divide(r, 6.0, m.imag)
    # 6 (1 - Re M) = x2 (x1 + x2 + x4 - x1 x2 x4 / 4)
    np.add(p, x2, p)
    np.multiply(x1, x4, q)
    np.multiply(q, x2, q)
    np.multiply(q, 0.25, q)
    np.subtract(p, q, p)
    np.multiply(p, x2, p)
    np.divide(p, 6.0, p)
    np.subtract(1.0, p, m.real)
    return m


def _advance(amps, k, eta, beta: float, block: int, t0: float, t1: float, dt: float) -> None:
    """Advance amps, of the modes (k, eta), in place from t0 to t1 in max(1, round((t1 - t0)/dt)) steps.

    The steps go in blocks of ``block``, and t advances by ``block`` steps
    between blocks.  A block of b steps from t fills ``rows[1:2b+1]`` with
    x = step a(tau) in one pass, at tau = t + (step/2) [2, 4, .., 2b, 1, 3,
    .., 2b-1]: ``rows[:b]`` holds x1 at the steps' starts, ``rows[1:b+1]``
    x4 at their ends and ``rows[b+1:2b+1]`` x2 at their midpoints, each one
    flat, contiguous run.  Row b, the block's last x4, is the next block's
    first x1.  The multipliers are applied one step at a time, in order.
    """
    n = max(1, int(round((t1 - t0) / dt)))
    step = (t1 - t0) / n
    k, eta = np.asarray(k, dtype=float), np.asarray(eta, dtype=float)
    modes = k.size
    k2, bk = k * k, beta * k
    rows = np.empty((2 * block + 1, modes))
    work = np.empty((3, block * modes))
    m = np.empty(block * modes, dtype=complex)

    def rate(tau, out):
        """out = step a(tau) = step beta k / (k^2 + (eta - k tau)^2), a row per time of ``tau``."""
        np.multiply(k, tau, out)
        np.subtract(eta, out, out)
        np.square(out, out)
        np.add(k2, out, out)
        np.divide(bk, out, out)
        np.multiply(out, step, out)

    def views(b):
        """Time offsets, rate rows, flat (x1, x2, x4), work rows and M of a block of b steps."""
        size = b * modes
        j = np.concatenate((np.arange(2, 2 * b + 1, 2), np.arange(1, 2 * b, 2)))
        x = (rows[:b].reshape(size), rows[b + 1 : 2 * b + 1].reshape(size), rows[1 : b + 1].reshape(size))
        return (0.5 * step * j)[:, None], rows[1 : 2 * b + 1], x, work[:, :size], m[:size]

    blocks = [views(block)] * (n // block) + ([views(n % block)] if n % block else [])
    rate(t0, rows[0])
    t = t0
    for offsets, rates, (x1, x2, x4), w, mb in blocks:
        rate(t + offsets, rates)
        for row in _rk4_multiplier(x1, x2, x4, w, mb).reshape(-1, modes):
            amps *= row
        rows[0] = x4[-modes:]
        t += block * step


def evolve_rk4(state: ModeState, beta: float, t0: float, t1: float, dt: float) -> ModeState:
    """Advance one mode from t0 to t1 with classical fourth-order steps."""
    _require_finite(beta=beta, t0=t0, t1=t1, dt=dt)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"t1 must exceed t0, got {t0} -> {t1}")
    amps = np.array([state.amp], dtype=complex)
    _advance(amps, [state.k], [state.eta], beta, _block_steps(1), t0, t1, dt)
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


def _conjugate_pairs(ks, etas, amps) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (reps, partners), reps < partners, of the conjugate-paired modes.

    A pair has exactly mirrored keys, (k, eta) and (-k, -eta), that no
    other mode shares, and amplitudes with amps[partner] == conj(amps[rep])
    exactly.  Every other mode (NaN, a shared key, no mirror, amplitudes
    not conjugate) stays unpaired.
    """
    key = np.asarray(ks, dtype=float) + 0j
    key.imag = etas
    order = np.argsort(key)
    ordered = key[order]
    shared = np.zeros(key.size, dtype=bool)
    same = ordered[1:] == ordered[:-1]
    shared[order[1:]] |= same
    shared[order[:-1]] |= same
    mirror = order[np.minimum(np.searchsorted(ordered, -key), max(key.size - 1, 0))]
    i = np.arange(key.size)
    paired = (
        (i < mirror) & (key[mirror] == -key) & ~shared & ~shared[mirror]
        & (amps[mirror] == np.conj(amps))
    )
    return i[paired], mirror[paired]


def run_damping_experiment(
    init: ModeEnsemble,
    beta: float,
    t_end: float,
    dt: float = 1e-2,
    sample_times=None,
) -> CurveTable:
    """Evolve the ensemble with RK4 and tabulate norms and modulus drift.

    One mode of each conjugate pair is stepped, and its partner is rebuilt
    by conjugation at the sample times: bitwise the same as stepping both.

    Rows are (t, ux_nonzero_norm, uy_norm, modulus_drift); the fitted
    log-log decay exponents over sample times >= 10 (past the Orr window)
    are attached as metadata.
    """
    _require_finite(beta=beta, t_end=t_end, dt=dt)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_end < init.t:
        raise ValidationError(f"t_end={t_end} is before the ensemble's time {init.t}")
    if init.amps.size == 0:
        raise ValidationError("the ensemble has no modes")
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
    reps, partners = _conjugate_pairs(ens.ks, ens.etas, ens.amps)
    stepped = np.delete(np.arange(ens.amps.size), partners)
    rep_at = np.searchsorted(stepped, reps)  # where each representative sits in `amps`
    amps = ens.amps[stepped]
    ks, etas, block = ens.ks[stepped], ens.etas[stepped], _block_steps(ens.amps.size)
    mod0 = np.abs(ens.amps)
    table = CurveTable(
        name="damping-experiment",
        columns=["t", "ux_nonzero_norm", "uy_norm", "modulus_drift"],
        metadata={"beta": beta, "dt": dt, "t_end": t_end, "n_modes": int(ens.amps.size)},
    )
    for ts in sample_times:
        if ts > ens.t:
            _advance(amps, ks, etas, beta, block, ens.t, ts, dt)
            ens.amps[stepped] = amps
            ens.amps[partners] = np.conj(amps[rep_at])
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
