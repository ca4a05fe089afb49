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
Over a sample interval of n steps, a mode is multiplied by the product of
its n multipliers.

The vorticity is real: fhat(-k, -eta) = conj fhat(k, eta).  Under (k, eta)
-> (-k, -eta) every rate x changes sign exactly in IEEE arithmetic, so the
multiplier is exactly conj M.  A mode with k < 0 therefore takes the
conjugate of the product of (-k, -eta), and mirrored modes share it.

A mode's product is a window of n consecutive terms of a multiplier
sequence, taken from doubling levels, and one kernel evaluates every
sequence: sequence c reads x at half-step h from t0 at the shear
g (p_c - k_c h) / k_c - t0, g = dt/2, k_c > 0.  On the lattice eta = g q, q
an integer, the step j of mode q starts at p = q - 2kj, so the windows of one
k whose q agree mod 2k form a residue class: one sequence with stride 1 and
one start per window.  Per class and interval the multiplier is evaluated
at (class start range) + n steps and x at twice as many points.  The default
lattice (d_eta = 0.05 = 20 g at dt = 5e-3) has one class for |k| = 1 and 2
and three for |k| = 3, and every multiplier evaluated on it is read.  Every
other mode (an eta off the lattice, or a |k| whose sequence is no shorter
than n steps of each eta, as for one ``evolve_rk4`` mode) reads, from step
0, the sequence of its key (|k|, +-eta) at p = eta / g; all such keys go in
one batch with their steps interleaved.  Which modes go which way depends
only on the modes, n and the step, so a run plans it once and reuses the
plan while (n, step) repeats.  Either way the tables stay within 1e-13 of
the complex textbook tableau (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
MAX_TERMS = 16384  # multipliers held at once, besides a lattice's q range


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
    """Raise ValidationError naming the first non-finite entry of each scalar or array."""
    for name, value in values.items():
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            where = f" at index {bad[0]}" if np.ndim(value) else ""
            raise ValidationError(f"{name} must be finite, got {np.ravel(value)[bad[0]]}{where}")


def _rates(u, c, out) -> np.ndarray:
    """out = c / (1 + u^2): x = step a = step beta k / (k^2 + s^2) at u = s / k and c = step beta / k."""
    np.square(u, out)
    np.add(out, 1.0, out)
    return np.divide(c, out, out)


def _rk4_multiplier(x1, x2, x4, work, m) -> np.ndarray:
    """Classical RK4 step multipliers M for d/dt f = i a(t) f, in real arithmetic.

    x1, x2 and x4 are dt a(tau) at the starts, midpoints and ends of the
    steps, each one flat array; M is written into ``m`` in the same layout.
    ``work`` is three float64 rows as long as x1, and every ufunc writes
    into its third argument, so a call allocates nothing.
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


def _window_products(m, n: int, starts, stride: int, prod) -> np.ndarray:
    """Multiply prod, in place, by prod_{j<n} m[i + j stride] for each i of ``starts``, by doubling.

    Level b holds T_b[i] = T_{b-1}[i] T_{b-1}[i + stride 2^(b-1)], and a
    window takes one entry per set bit of n, low bits first: the same tree of
    its terms, about log2(n) levels deep, wherever it starts (the sparse table
    of Bender and Farach-Colton, LATIN 2000, without overlap).  A running
    product of factors near 1 piles up correlated roundings along a smooth
    sequence (2.8e-13 from the textbook over 16384 steps of one mode); the
    tree does not.
    """
    offset, level = 0, m
    for b in range(n.bit_length()):
        if b:
            shift = stride << (b - 1)
            level = level[:-shift] * level[shift:]
        if n >> b & 1:
            prod *= level[starts + offset]
            offset += stride << b
    return prod


def _residue_classes(k: int, idx, q) -> list:
    """Split the lattice modes ``idx`` of one k > 0, at q, into one batch per residue class.

    x is indexed by r = max(q) - p, forward in time, so mode q's window starts
    at r0 = max(q) - q with stride 2k.  Modes with one r0 mod 2k share a
    sequence from their least r0 = lo, at p = max(q) - lo, and start at class
    step (r0 - lo) / 2k.  Returns per class the batch (k, p, starts, mode
    indices, inverse): one window per distinct start, read by the modes at
    ``inverse``, so mirrored modes share one window.
    """
    top = q.max()
    r0 = (top - q).astype(np.int64)
    residue = r0 % (2 * k)
    classes = []
    for c in np.unique(residue):
        sel = residue == c
        lo = r0[sel].min()
        starts, inverse = np.unique((r0[sel] - lo) // (2 * k), return_inverse=True)
        classes.append((np.array([k]), np.array([top - lo]), starts, idx[sel], inverse))
    return classes


def _sequence_products(k, p, starts, beta: float, t0: float, step: float, n: int) -> np.ndarray:
    """Window products over n steps from t0 of a batch of C multiplier sequences.

    Sequence c reads x at half-step h, time t0 + g h with g = step/2, at the
    shear g (p_c - k_c h) / k_c - t0, and its step i at half-steps 2i, 2i + 1
    and 2i + 2.  Step i of sequence c is multiplier i C + c, and window w runs
    over n steps of one sequence from multiplier ``starts[w]``.  Pieces of
    MAX_TERMS // C steps bound the multipliers held at once.
    """
    width = k.size  # C
    piece = min(n, max(1, MAX_TERMS // width))
    size = int(starts.max()) // width + piece  # steps of each sequence in a whole piece
    # the shear plus t: row 0 at the start of step i (i = size: the end of the last), row 1 at its midpoint
    shear = np.multiply(k, np.arange(2.0 * size + 2).reshape(-1, 2).T[..., None], order="C")
    np.multiply(np.subtract(p, shear, shear), step / 2 / k, shear)
    x, rate = shear if piece == n else np.empty_like(shear), step * beta / k
    work, m = np.empty((3, size * width)), np.empty(size * width, dtype=complex)
    prod = np.ones(starts.size, dtype=complex)
    for j0 in range(0, n, piece):
        b = min(piece, n - j0)
        steps = size - piece + b
        xs = np.subtract(shear[:, : steps + 1], t0 + j0 * step, x[:, : steps + 1])
        _rates(xs, rate, xs)
        x1, x2, x4 = xs[0, :steps].reshape(-1), xs[1, :steps].reshape(-1), xs[0, 1:].reshape(-1)
        m_piece = _rk4_multiplier(x1, x2, x4, work[:, : x1.size], m[: x1.size])
        _window_products(m_piece, b, starts, width, prod)
    return prod


@dataclass(frozen=True)
class _Plan:
    """How ``_apply`` advances a set of modes over n steps of length ``step``.

    ``batches`` lists (k, p, starts, mode indices, inverse): the modes take
    the window products of ``_sequence_products(k, p, starts, ..)`` at
    ``inverse``.  There is one batch per lattice residue class, as
    ``_residue_classes`` returns them, and one for every other mode, whose
    distinct (|k|, +-eta) keys are sequences of their own.
    """

    n: int
    step: float
    mirrored: np.ndarray
    batches: list


def _interval(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """(n, step): max(1, round((t1 - t0)/dt)) steps of equal length from t0 to t1."""
    n = max(1, int(round((t1 - t0) / dt)))
    return n, (t1 - t0) / n


def _plan(k, eta, n: int, step: float) -> _Plan:
    """Route the modes (k, eta) for n steps of length ``step``; no rate is evaluated.

    An eta within 4 ulps of a multiple of step/2 counts as on the lattice.
    Lattice modes of one |k| go in groups of q range under MAX_TERMS, and a
    group takes the lattice only if its sequence is shorter than n steps of
    each of its etas.  Every other mode reads the sequence of its key
    (|k|, +-eta), at p = eta / g from start 0.
    """
    k, eta = np.asarray(k, dtype=float), np.asarray(eta, dtype=float)
    mirrored = k < 0
    k, eta = np.abs(k), np.where(mirrored, -eta, eta)
    q = np.rint(eta / (step / 2))
    lattice = (np.abs(q * (step / 2) - eta) <= 4 * np.finfo(float).eps * np.abs(eta)) & (k == np.rint(k))
    groups = k + 1j * (np.where(lattice, q - q[lattice].min(initial=0.0), 0.0) // MAX_TERMS)
    batches = []
    for key in np.unique(groups[lattice]):
        group, kk = lattice & (groups == key), int(key.real)
        if np.ptp(q[group]) + 1 + 2 * kk * (n - 1) < np.unique(q[group]).size * n:
            batches += _residue_classes(kk, np.flatnonzero(group), q[group])
        else:
            lattice &= ~group
    rest = np.flatnonzero(~lattice)
    if rest.size:
        keys, inverse = np.unique(k[rest] + 1j * eta[rest], return_inverse=True)
        batches.append((keys.real, keys.imag / (step / 2), np.arange(keys.size), rest, inverse))
    return _Plan(n, step, mirrored, batches)


def _apply(plan: _Plan, amps, beta: float, t0: float) -> None:
    """Advance amps, of the modes that ``plan`` routes, in place over its n steps from t0."""
    prod = np.empty(amps.size, dtype=complex)
    for k, p, starts, idx, inverse in plan.batches:
        prod[idx] = _sequence_products(k, p, starts, beta, t0, plan.step, plan.n)[inverse]
    amps *= np.where(plan.mirrored, prod.conj(), prod)


def _advance(amps, k, eta, beta: float, t0: float, t1: float, dt: float) -> None:
    """Advance amps, of the modes (k, eta), in place from t0 to t1: one plan, applied once."""
    _apply(_plan(k, eta, *_interval(t0, t1, dt)), amps, beta, t0)


def evolve_rk4(state: ModeState, beta: float, t0: float, t1: float, dt: float) -> ModeState:
    """Advance one mode from t0 to t1 with classical fourth-order steps."""
    _require_finite(beta=beta, t0=t0, t1=t1, dt=dt, eta=state.eta, amplitude=state.amp)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"t1 must exceed t0, got {t0} -> {t1}")
    amps = np.array([state.amp], dtype=complex)
    _advance(amps, [state.k], [state.eta], beta, t0, t1, dt)
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
    if init.amps.size == 0:
        raise ValidationError("the ensemble has no modes")
    if np.any(init.ks == 0):
        raise ValidationError("zero-wavenumber: k = 0 modes are excluded (zero mean)")
    _require_finite(k=init.ks, eta=init.etas, amplitude=init.amps)
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
    mod0 = np.abs(ens.amps)
    table = CurveTable(
        name="damping-experiment",
        columns=["t", "ux_nonzero_norm", "uy_norm", "modulus_drift"],
        metadata={"beta": beta, "dt": dt, "t_end": t_end, "n_modes": int(ens.amps.size)},
    )
    plan = None
    for ts in sample_times:
        if ts > ens.t:
            n, step = _interval(ens.t, ts, dt)
            if plan is None or (plan.n, plan.step) != (n, step):
                plan = _plan(ens.ks, ens.etas, n, step)
            _apply(plan, ens.amps, beta, ens.t)
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
