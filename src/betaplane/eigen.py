"""Eigenvalues and eigenvectors of symmetric tridiagonal matrices, and roots.

The n-th eigenvalue is solved in a canonical orientation, so that a problem
and its mirror image (rows reversed) give bit-identical values; the tests
certify them with Sturm counts of their own (``tests/oracles.py``).  It is
LAPACK's ``stebz`` bisection of the whole spectrum to the one tolerance
``_EIG_TOL``, or, given a guess, the Rayleigh quotient of two
inverse-iteration steps shifted to it (LAPACK ``gtsv``) once Sturm counts
certify it.  Eigenvectors come from the same iteration.  One bound
b >= ||A|| (``_norm_bound``) gives the rounding floor, the interval
[-b, b], padded, that holds the spectrum for the counts, and the check on
an eigenvector's shift.  Both routines are called from scipy's compiled
binding, loaded as a file: ``import scipy.linalg`` would add about 0.4 s
to each process.  Grid sequences are Richardson-extrapolated to the
continuum limit assuming second-order convergence, with the kernel's
rounding floor carried into the error; the record of one such ladder,
``EigenPair``, lives with the ladder in ``rayleigh_kuo``.  ``monotone_root``
is the one bracketing root search, shared by the speed inversion and the
modified-flow level set.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .errors import NoConvergenceError, ValidationError, require_finite
from .grid import TridiagOperator

__all__ = [
    "nth_eigenvalue",
    "eigenvalue_floor",
    "eigenvector",
    "extrapolate",
    "monotone_root",
]

# every routine this package calls from the binding, checked when it is loaded
_LAPACK_ROUTINES = ("dstebz", "dgtsv")

# bisection tolerance of every discrete eigenvalue
_EIG_TOL = 1e-12


def _load_flapack():
    """scipy's LAPACK binding ``scipy/linalg/_flapack``, loaded without scipy.linalg's ``__init__``.

    The module scipy has already imported is reused.  A missing file or a
    missing routine of ``_LAPACK_ROUTINES`` raises ImportError naming the file.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        folder = Path(scipy.origin if scipy else "scipy/__init__.py").parent / "linalg"
        paths = [folder / f"_flapack{s}" for s in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            raise ImportError(f"LAPACK binding not found: {folder / '_flapack*'}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)  # so that a later ``import scipy.linalg`` binds it itself
    for routine in _LAPACK_ROUTINES:
        if not hasattr(module, routine):
            raise ImportError(f"LAPACK binding {module.__file__} has no {routine}")
    return module


_flapack = _load_flapack()


def _canonical_orientation(diag: np.ndarray, off: np.ndarray):
    """(diag, off) or their reversal, whichever is lexicographically smaller.

    A matrix and its reversal have the same spectrum, but LAPACK's rounding
    depends on the row order; solving both in one orientation makes the
    mirror problems (beta, c) and (-beta, -c) give identical bits.
    """
    for a in (diag, off):
        differ = np.flatnonzero(a != a[::-1])
        if differ.size:
            i = differ[0]
            return (diag[::-1], off[::-1]) if a[::-1][i] < a[i] else (diag, off)
    return diag, off


def _norm_bound(op: TridiagOperator) -> float:
    """b = max |a_ii| + 2 max |a_i,i+1| >= ||A||_inf, so every eigenvalue lies in [-b, b]."""
    return float(np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.off), initial=0.0))


def _radius(bound: float) -> float:
    """``bound`` plus max(1, bound) 1e-12: an eigenvalue may equal -bound (the zero matrix)."""
    return bound + max(1.0, bound) * 1e-12


def _count(diag: np.ndarray, off: np.ndarray, bound: float, x: float) -> int:
    """Number of eigenvalues <= x, from one ``stebz`` call that does no bisection.

    ``range='V'`` on (-r, x] with a tolerance of 2 r, r = ``_radius(bound)``,
    as wide as an interval holding the whole spectrum, stops at the Sturm
    counts of the ends.
    """
    r = _radius(bound)
    if x <= -r:
        return 0
    return int(_flapack.dstebz(diag, off, 1, -r, x, 1, 1, 2.0 * r, "E")[0])


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, shift: float):
    """Two steps of inverse iteration at ``shift`` (LAPACK ``gtsv``): (unit v, rho), or None.

    rho = shift + v.((A - shift I) v).  The start vector is fixed and not
    reversal-symmetric: a constant one is orthogonal to every antisymmetric
    eigenvector of a persymmetric matrix.  A zero pivot, or an iterate or a
    quotient that is not finite, gives None.
    """
    with np.errstate(all="ignore"):
        shifted, v = diag - shift, np.linspace(1.0, 2.0, diag.size)
        for _ in range(2):
            *_, w, info = _flapack.dgtsv(off, shifted, off, v)
            norm = np.linalg.norm(w)
            if info != 0 or not 0.0 < norm < np.inf:
                return None
            v = w / norm
        # (A - shift I) v row by row: the unshifted v.(A v) loses digits
        rho = shift + float(v @ TridiagOperator(shifted, off, None).matvec(v))
    return (v, rho) if np.isfinite(rho) else None


def nth_eigenvalue(op: TridiagOperator, n: int, near=None) -> float:
    """n-th smallest eigenvalue (1-based) to absolute tolerance ``_EIG_TOL``.

    The result lambda satisfies count(lambda - d) < n <= count(lambda + d)
    for d = ``eigenvalue_floor(op)``, so eigenvalue n lies within d of it.
    Given a finite guess ``near``, lambda is the Rayleigh quotient of
    ``_inverse_iteration`` at ``near`` when two Sturm counts certify it so;
    otherwise LAPACK ``stebz`` bisects the whole spectrum (``range='I'``).
    The two paths agree to within 2 d, not bit for bit.
    """
    if not 1 <= n <= op.dim:
        raise ValidationError(f"index-out-of-range: n={n} for dimension {op.dim}")
    if not (np.isfinite(op.diag).all() and np.isfinite(op.off).all()):
        raise ValidationError("non-finite entries in the tridiagonal matrix")
    if near is not None:
        require_finite("near", near)
    if op.dim == 1:
        return float(op.diag[0])
    diag, off = _canonical_orientation(op.diag, op.off)
    if near is not None and (found := _inverse_iteration(diag, off, near)) is not None:
        lam, b = found[1], _norm_bound(op)
        d = _floor(b)
        if _count(diag, off, b, lam - d) < n <= _count(diag, off, b, lam + d):
            return lam
    m, w, _, _, info = _flapack.dstebz(diag, off, 2, 0.0, 1.0, n, n, _EIG_TOL, "E")  # il = iu = n
    if info != 0 or m != 1:
        raise NoConvergenceError(f"no-convergence: LAPACK stebz gave {m} values (info={info})")
    return float(w[0])


def _floor(bound: float) -> float:
    return max(2.0 * _EIG_TOL, 8.0 * np.finfo(float).eps * bound)


def eigenvalue_floor(op: TridiagOperator) -> float:
    """Bound max(2 tol, 8 eps ||A||) on the error of ``nth_eigenvalue(op, n)``.

    tol is ``_EIG_TOL`` and ||A|| the bound of ``_norm_bound``.  Sturm counts
    are backward stable only to a few eps ||A||, so on fine grids
    (||A|| ~ 4 / h^2) this floor, not tol, limits the accuracy.
    """
    return _floor(_norm_bound(op))


def _apply_sign_convention(v: np.ndarray) -> np.ndarray:
    dv = np.diff(v)
    ext = np.nonzero(dv[:-1] * dv[1:] <= 0)[0]
    pivot = ext[0] + 1 if ext.size else int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v


def eigenvector(op: TridiagOperator, lam: float) -> np.ndarray:
    """Unit eigenvector of ``op`` at its eigenvalue ``lam``, by ``_inverse_iteration``.

    The start vector is fixed, so the result is deterministic; the sign makes
    the first extremum nonnegative.  The iteration takes any shift, so
    ``lam`` is first checked against the spectral bound |lam| <= ``_radius``.
    """
    r = _radius(_norm_bound(op))
    if not abs(lam) <= r:
        raise ValidationError(f"lambda={lam} outside the spectral bound [{-r}, {r}]")
    found = _inverse_iteration(op.diag, op.off, lam)
    if found is None:
        raise NoConvergenceError(f"no-convergence: inverse iteration failed at lambda={lam}")
    return _apply_sign_convention(found[0])


def extrapolate(values, floors=None) -> tuple[float, float]:
    """Richardson-extrapolate a grid sequence (h_i, lambda(h_i)) to h -> 0.

    Assumes lambda(h) = lambda + c h^2 + O(h^4) on a (near-)halving sequence
    of spacings.  Implemented as polynomial extrapolation in h^2 with the
    exact spacings, so doubling the node count (h ratio slightly under 2) is
    handled without bias.  Returns (extrapolated value, error): the last
    correction, plus, when ``floors`` bounds the error of each entry, those
    bounds carried through the tableau by the absolute values of its weights.
    """
    values = list(values)
    if len(values) < 3:
        raise ValidationError(f"insufficient-sequence: need >= 3 entries, got {len(values)}")
    hs = np.array([float(h) for h, _ in values])
    if not np.all(hs[:-1] > hs[1:]):
        raise ValidationError("insufficient-sequence: spacings must decrease")
    ratios = hs[:-1] / hs[1:]
    if np.any(np.abs(ratios - 2.0) > 0.25):
        raise ValidationError("insufficient-sequence: spacings must (nearly) halve between entries")
    xs = hs**2
    p = np.array([float(lam) for _, lam in values])
    m = p.size
    bound = np.zeros(m) if floors is None else np.array(floors, dtype=float)
    tail = [p[-1]]
    for level in range(1, m):
        for i in range(m - level):
            span = xs[i] - xs[i + level]
            p[i] = (xs[i] * p[i + 1] - xs[i + level] * p[i]) / span
            bound[i] = (xs[i] * bound[i + 1] + xs[i + level] * bound[i]) / span
        tail.append(p[m - level - 1])
    return float(tail[-1]), abs(float(tail[-1] - tail[-2])) + float(bound[0])


# values a root search may take before it gives up
_MAX_ROOT_EVALS = 100


def monotone_root(f, lo, hi, f_lo, f_hi, tol):
    """A point x in (lo, hi) with |f(x)| <= tol, given f(lo) and f(hi) of opposite signs.

    Illinois (modified regula falsi): the secant point of the bracket, with
    the value at an end kept twice in a row halved.  An iterate not strictly
    inside the bracket is replaced by the midpoint, so f is never evaluated
    at or beyond lo and hi.  Raises NoConvergenceError after
    ``_MAX_ROOT_EVALS`` values, or once no float lies between the ends.
    """
    kept = 0
    for _ in range(_MAX_ROOT_EVALS):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if (fx < 0) == (f_hi < 0):
            hi, f_hi = x, fx
            if kept < 0:
                f_lo *= 0.5
            kept = -1
        else:
            lo, f_lo = x, fx
            if kept > 0:
                f_hi *= 0.5
            kept = 1
    raise NoConvergenceError(
        f"no-convergence: root search did not reach |f| <= {tol:.3g} in ({lo}, {hi})"
    )
