"""Eigenvalues and eigenvectors of symmetric tridiagonal matrices, and roots.

The n-th eigenvalue is solved in a canonical orientation, so that a problem
and its mirror image (rows reversed) give bit-identical values; the tests
certify them with Sturm counts of their own (``tests/oracles.py``).  It is
LAPACK's ``stebz`` bisection of the whole spectrum to the one tolerance
``_EIG_TOL``, or, given a guess, the Rayleigh quotient of two
inverse-iteration steps shifted to it (LAPACK ``gtsv``) once two Sturm
counts certify it; a quotient that fails is given one restart, two more
steps shifted to it, before the whole spectrum is bisected.  For the
principal eigenvalue the two counts are two positive-definiteness tests
(LAPACK ``pttrf``, one pass each); for any other, ``stebz`` counts.
Eigenvectors come from the same iteration: asked for one, a solve hands
out the iterate it certified, and runs the iteration only on the bisection
path.  Every inner product is a numpy reduction, not BLAS ``ddot``, whose
sum order (so its last bit) depends on the thread count.  One bound
b >= ||A|| (``TridiagOperator.norm_bound``, computed once per operator)
gives the rounding floor, the interval [-b, b], padded, that holds the
spectrum for the counts, and the check on an eigenvector's shift.  The
routines are called from scipy's compiled binding, loaded as a file:
``import scipy.linalg`` would add about 0.4 s to each process.  Grid
sequences are Richardson-extrapolated to the continuum limit assuming
second-order convergence, with the kernel's rounding floor carried into
the error; the record of one such ladder, ``EigenPair``, lives with the
ladder in ``rayleigh_kuo``.  ``monotone_root`` is the one bracketing root
search, shared by the speed inversion and the modified-flow level set:
Illinois steps, or safeguarded Newton steps when the caller has the slope.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import BracketFailureError, NoConvergenceError, ValidationError, require_finite
from .grid import TridiagOperator

__all__ = [
    "nth_eigenvalue",
    "eigenvalue_floor",
    "eigenvector",
    "extrapolate",
    "monotone_root",
]

# every routine this package calls from the binding, checked when it is loaded
_LAPACK_ROUTINES = ("dstebz", "dgtsv", "dpttrf")

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


def _definite(diag: np.ndarray, off: np.ndarray, x: float) -> bool:
    """Whether A - x I is positive definite, that is count(x) = 0.

    LAPACK ``pttrf``: an LDL^T factorization without pivoting, one pass that
    stops at the first non-positive pivot.
    """
    return _flapack.dpttrf(diag - x, off, overwrite_d=1)[2] == 0


def _certified(diag: np.ndarray, off: np.ndarray, n: int, bound: float, rho: float) -> bool:
    """count(rho - d) < n <= count(rho + d) for d = ``_floor(bound)``: eigenvalue n lies within d of rho.

    For n = 1 that says A - (rho - d) I is positive definite and
    A - (rho + d) I is not: two ``_definite`` tests, not two ``_count`` calls.
    """
    d = _floor(bound)
    if n == 1:
        return _definite(diag, off, rho - d) and not _definite(diag, off, rho + d)
    return _count(diag, off, bound, rho - d) < n <= _count(diag, off, bound, rho + d)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u.v by numpy's own sum, whose bits do not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", u, v))


@lru_cache(maxsize=32)
def _start_vector(m: int) -> np.ndarray:
    """linspace(1, 2, m), built once per size and shared, so read-only."""
    v = np.linspace(1.0, 2.0, m)
    v.flags.writeable = False
    return v


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, shift: float):
    """Two steps of inverse iteration at ``shift`` (LAPACK ``gtsv``): (unit v, rho), or None.

    rho = shift + v.((A - shift I) v).  The start vector (``_start_vector``)
    is fixed and not reversal-symmetric: a constant one is orthogonal to
    every antisymmetric eigenvector of a persymmetric matrix.  A zero pivot,
    or an iterate or a quotient that is not finite, gives None.
    """
    with np.errstate(all="ignore"):
        shifted, v = diag - shift, _start_vector(diag.size)
        for _ in range(2):
            *_, w, info = _flapack.dgtsv(off, shifted, off, v)
            norm = math.sqrt(_dot(w, w))
            if info != 0 or not 0.0 < norm < math.inf:
                return None
            v = w / norm
        # (A - shift I) v row by row: the unshifted v.(A v) loses digits
        rho = shift + _dot(v, TridiagOperator(shifted, off, None).matvec(v))
    return (v, rho) if np.isfinite(rho) else None


def nth_eigenvalue(op: TridiagOperator, n: int, near=None, vector: bool = False):
    """n-th smallest eigenvalue (1-based) to absolute tolerance ``_EIG_TOL``.

    The result lambda satisfies count(lambda - d) < n <= count(lambda + d)
    for d = ``eigenvalue_floor(op)``, so eigenvalue n lies within d of it.
    Given a finite guess ``near``, lambda is the Rayleigh quotient of
    ``_inverse_iteration`` at ``near`` when ``_certified`` says so (for
    n = 1 by two positive-definiteness tests, otherwise by two Sturm
    counts).  A quotient that fails gets one restart: the iteration again,
    from the same start, shifted to that quotient, and certified again.
    Only then does LAPACK ``stebz`` bisect the whole spectrum
    (``range='I'``).  The paths agree to within 2 d, not bit for bit.  With
    ``vector`` the result is (lambda, unit eigenvector of either sign), in
    op's row order: the certified iterate, or on the ``stebz`` path one more
    ``_inverse_iteration`` at lambda.  Without it no vector is built.  The
    certified iterate is shifted to its guess, not to lambda, so it is
    accurate only to first order in |guess - lambda|: enough for a
    Hellmann-Feynman slope, whose error is second order.  A vector whose
    residual must stay within the floor comes from ``eigenvector`` at lambda.
    """
    if not 1 <= n <= op.dim:
        raise ValidationError(f"index-out-of-range: n={n} for dimension {op.dim}")
    if not (np.isfinite(op.diag).all() and np.isfinite(op.off).all()):
        raise ValidationError("non-finite entries in the tridiagonal matrix")
    if near is not None:
        require_finite("near", near)
    if op.dim == 1:
        return (float(op.diag[0]), np.ones(1)) if vector else float(op.diag[0])
    diag, off = _canonical_orientation(op.diag, op.off)
    found = None
    if near is not None:
        b = op.norm_bound
        for _ in range(2):  # the guess, then one restart at the quotient it gave
            found = _inverse_iteration(diag, off, near)
            if found is None or _certified(diag, off, n, b, found[1]):
                break
            near, found = found[1], None
    if found is None:
        m, w, _, _, info = _flapack.dstebz(diag, off, 2, 0.0, 1.0, n, n, _EIG_TOL, "E")  # il = iu = n
        if info != 0 or m != 1:
            raise NoConvergenceError(f"no-convergence: LAPACK stebz gave {m} values (info={info})")
        lam = float(w[0])
        if not vector:
            return lam
        if (found := _inverse_iteration(diag, off, lam)) is None:
            raise NoConvergenceError(f"no-convergence: inverse iteration failed at lambda={lam}")
        found = found[0], lam
    v, lam = found
    if not vector:
        return lam
    return lam, v if diag is op.diag else v[::-1]


def _floor(bound: float) -> float:
    return max(2.0 * _EIG_TOL, 8.0 * np.finfo(float).eps * bound)


def eigenvalue_floor(op: TridiagOperator) -> float:
    """Bound max(2 tol, 8 eps ||A||) on the error of ``nth_eigenvalue(op, n)``.

    tol is ``_EIG_TOL`` and ||A|| the bound ``op.norm_bound``.  Sturm counts
    are backward stable only to a few eps ||A||, so on fine grids
    (||A|| ~ 4 / h^2) this floor, not tol, limits the accuracy.
    """
    return _floor(op.norm_bound)


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
    r = _radius(op.norm_bound)
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


def monotone_root(f, lo, hi, f_lo, f_hi, tol, slope=None):
    """A point x in (lo, hi) with |f(x)| <= tol, given f(lo) and f(hi) of opposite signs.

    Illinois (modified regula falsi): the secant point of the bracket, with
    the value at an end kept twice in a row halved.  An iterate not strictly
    inside the bracket is replaced by the midpoint, so f is never evaluated
    at or beyond lo and hi.  Raises NoConvergenceError after
    ``_MAX_ROOT_EVALS`` values, or once no float lies between the ends.

    With ``slope``, f' at any point f has been evaluated at, each step is
    Newton's from the last point, starting from the end of smaller |f|
    (``rtsafe``, Numerical Recipes sec. 9.4).  It is taken when the slope
    has the bracket's sign, the step lands strictly inside the bracket and
    the last step reduced |f|; otherwise the step is to the midpoint.  One
    end's value may then be None: it is taken to have the other's opposite
    sign, and f is evaluated there only before a midpoint step, which
    raises BracketFailureError if the signs do not differ.
    """
    kept = 0
    neg_hi = f_hi < 0 if f_hi is not None else not f_lo < 0  # f < 0 on hi's side
    x = fx = None
    if slope is not None:
        x, fx = (lo, f_lo) if f_hi is None or f_lo is not None and abs(f_lo) < abs(f_hi) else (hi, f_hi)
    for _ in range(_MAX_ROOT_EVALS):
        d = None if x is None else slope(x)
        if d and (d < 0) == neg_hi and lo < x - fx / d < hi:  # a zero or NaN slope fails here
            x -= fx / d
        else:
            if (f_lo is None and ((f_lo := f(lo)) < 0) == neg_hi
                    or f_hi is None and ((f_hi := f(hi)) < 0) != neg_hi):
                raise BracketFailureError(f"bracket-failure: f has one sign at {lo} and {hi}")
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo) if slope is None else 0.5 * (lo + hi)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
                if not lo < x < hi:
                    break
        fx, f_last = f(x), fx
        if abs(fx) <= tol:
            return x
        if (fx < 0) == neg_hi:
            hi, f_hi = x, fx
            if kept < 0 and f_lo is not None:
                f_lo *= 0.5
            kept = -1
        else:
            lo, f_lo = x, fx
            if kept > 0 and f_hi is not None:
                f_hi *= 0.5
            kept = 1
        if slope is None or f_last is not None and abs(fx) >= abs(f_last):
            x = None
    raise NoConvergenceError(
        f"no-convergence: root search did not reach |f| <= {tol:.3g} in ({lo}, {hi})"
    )
