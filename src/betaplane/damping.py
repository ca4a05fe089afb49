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
one start per window.  Consecutive sample intervals with one (n, step)
share the sequences: moving t0 by n step moves the shear by exactly n steps
(up to the rounding of the rates), so interval i of such a run reads the
windows of the first shifted by n i steps.  A class call takes up to
MAX_TERMS // max(n, windows) intervals and evaluates the multiplier at
(class start range) + n per interval taken, and x at twice as many points.
The default lattice (d_eta = 0.05 = 20 g at dt = 5e-3) has one class for
|k| = 1 and 2 and three for |k| = 3, and every multiplier evaluated on it
is read: its default experiment (20 intervals of 1000 steps) evaluates
139,960 multipliers, against 499,600 one interval at a time.  Every
other mode (an eta off the lattice, or a |k| whose sequence is no shorter
than n steps of each eta, as for one ``evolve_rk4`` mode) reads, from step
0, the sequence of its key (|k|, +-eta) at p = eta / g; all such keys go in
one batch with their steps interleaved, one interval per call unless the
batch is narrow.  Which modes go which way depends only on the modes, n and
the step, so a run of equal intervals is planned once.  Either way the
tables stay within 1e-13 of the complex textbook tableau
(``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergenceError, ValidationError, require_finite
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
        require_finite("d_eta", d_eta, positive=True)
        require_finite("eta_max", eta_max, positive=True)
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
    over n steps of one sequence from multiplier ``starts[w]``; each sequence
    is starts.max() // C + n steps long, so the windows of later intervals
    (starts shifted by C n i) read the same sequence.  Pieces of
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
    """How ``_products`` advances a set of modes over intervals of n equal steps.

    ``batches`` lists (k, p, starts, mode indices, inverse): the modes take
    the window products of ``_sequence_products(k, p, starts, ..)`` at
    ``inverse``.  There is one batch per lattice residue class, as
    ``_residue_classes`` returns them, and one for every other mode, whose
    distinct (|k|, +-eta) keys are sequences of their own.
    """

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
    return _Plan(mirrored, batches)


def _overflow(t: float) -> NoConvergenceError:
    """The error for an RK4 amplitude that is not finite at sample time t."""
    return NoConvergenceError(
        f"no-convergence: an RK4 amplitude is not finite at sample time t={t}; "
        "steps with dt |beta/k| > 2 sqrt(2) leave RK4's stability interval"
    )


def _products(k, eta, beta: float, times, dt: float):
    """Yield the modes' products over each interval t0 -> t1 of consecutive ``times`` with t1 > t0.

    A run of intervals with one (n, step) has one plan.  Interval i of a run
    reads its batches' windows shifted by C n i, C the batch width, and a
    batch takes up to max(1, MAX_TERMS // max(C n, windows)) intervals from
    one sequence call from the first one's t0.  Mirrored modes take the
    conjugate.
    """
    moves = [(t0, _interval(t0, t1, dt)) for t0, t1 in zip(times, times[1:]) if t1 > t0]
    for (n, step), run in itertools.groupby(moves, key=lambda move: move[1]):
        plan, t0s = _plan(k, eta, n, step), [t0 for t0, _ in run]
        prod, held = np.empty(plan.mirrored.size, dtype=complex), [None] * len(plan.batches)
        for i, t0 in enumerate(t0s):
            with np.errstate(over="ignore", invalid="ignore"):  # unstable steps overflow; callers check amps
                for b, (kk, p, starts, idx, inverse) in enumerate(plan.batches):
                    count = max(1, MAX_TERMS // max(kk.size * n, starts.size))
                    if i % count == 0:  # this interval and the next ones of the call, one row each
                        shifts = kk.size * n * np.arange(min(count, len(t0s) - i))
                        windows = (starts + shifts[:, None]).reshape(-1)
                        rows = _sequence_products(kk, p, windows, beta, t0, step, n)
                        held[b] = rows.reshape(shifts.size, -1)
                    prod[idx] = held[b][i % count][inverse]
                out = np.where(plan.mirrored, prod.conj(), prod)
            yield out


def _advance(amps, k, eta, beta: float, t0: float, t1: float, dt: float) -> None:
    """Advance amps, of the modes (k, eta), in place from t0 to t1 > t0."""
    (prod,) = _products(k, eta, beta, [t0, t1], dt)
    with np.errstate(over="ignore", invalid="ignore"):  # unstable steps overflow; callers check amps
        amps *= prod


def evolve_rk4(state: ModeState, beta: float, t0: float, t1: float, dt: float) -> ModeState:
    """Advance one mode from t0 to t1 with classical fourth-order steps.

    An amplitude that overflows by t1 raises NoConvergenceError.
    """
    for name, value in dict(beta=beta, t0=t0, t1=t1, dt=dt, eta=state.eta, amplitude=state.amp).items():
        require_finite(name, value)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValidationError(f"t1 must exceed t0, got {t0} -> {t1}")
    amps = np.array([state.amp], dtype=complex)
    _advance(amps, [state.k], [state.eta], beta, t0, t1, dt)
    if not np.isfinite(amps[0]):
        raise _overflow(t1)
    return replace(state, amp=complex(amps[0]))


def velocity_norms(ens: ModeEnsemble) -> tuple[float, float]:
    """(||P_neq0 Ux||_L2, ||Uy||_L2) of the ensemble at its current time.

    Quadrature over the lattice with weight d_eta; k = 0 is excluded from
    the lattice, so the first entry is the full nonzero-mode horizontal
    norm.  Finite amplitudes whose squares overflow raise NoConvergenceError,
    naming the ensemble's time.
    """
    s = ens.etas - ens.ks * ens.t
    denom = ens.ks**2 + s**2
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mod2 = np.abs(ens.amps) ** 2
        ux2 = np.sum(mod2 * s**2 / denom**2) * ens.d_eta
        uy2 = np.sum(mod2 * ens.ks**2 / denom**2) * ens.d_eta
    if not (np.isfinite(ux2) and np.isfinite(uy2)):
        raise NoConvergenceError(
            f"no-convergence: the velocity norms overflow at sample time t={ens.t}; "
            f"RK4 amplitudes reach modulus {np.max(np.abs(ens.amps)):.3g}"
        )
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
    are attached as metadata.  An amplitude that overflows by a sample time,
    or whose square overflows in the norms, raises NoConvergenceError,
    naming that time, before its row is made.
    """
    for name, value in dict(beta=beta, t_end=t_end, dt=dt).items():
        require_finite(name, value)
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if t_end < init.t:
        raise ValidationError(f"t_end={t_end} is before the ensemble's time {init.t}")
    if init.amps.size == 0:
        raise ValidationError("the ensemble has no modes")
    if np.any(init.ks == 0):
        raise ValidationError("zero-wavenumber: k = 0 modes are excluded (zero mean)")
    for name, value in dict(k=init.ks, eta=init.etas, amplitude=init.amps).items():
        require_finite(name, value)
    if sample_times is None:
        sample_times = np.arange(init.t, t_end + 1e-12, 5.0)
    sample_times = sorted(float(s) for s in sample_times)
    for ts in sample_times:
        require_finite("sample_time", ts)
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
    products = _products(ens.ks, ens.etas, beta, [ens.t, *sample_times], dt)
    for ts in sample_times:
        if ts > ens.t:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                ens.amps *= next(products)
        ens.t = ts
        drift = float(np.max(np.abs(np.abs(ens.amps) - mod0)))
        if not np.isfinite(drift):  # some amplitude is inf or nan
            raise _overflow(ts)
        ux, uy = velocity_norms(ens)
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
