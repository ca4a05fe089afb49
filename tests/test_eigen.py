import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betaplane import eigen
from betaplane.errors import BracketFailureError, NoConvergenceError, ValidationError
from betaplane.eigen import eigenvalue_floor, eigenvector, extrapolate, monotone_root, nth_eigenvalue
from betaplane.grid import Grid1D, TridiagOperator, assemble, build_grid
from oracles import sturm_count


def laplacian_op(n):
    return assemble(build_grid(n), lambda y: np.zeros_like(y))


def random_tridiag(rng, n):
    diag = rng.uniform(-5, 5, n)
    off = rng.uniform(-3, 3, n - 1)
    grid = build_grid(n) if n >= 3 else None
    return diag, off, grid


@st.composite
def tridiag_matrices(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    diag = draw(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)
    )
    off = draw(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=n - 1, max_size=n - 1)
    )
    return np.array(diag), np.array(off)


class TestSturmCount:
    def test_counts_match_dense_spectrum(self, rng):
        for _ in range(25):
            n = rng.integers(3, 20)
            diag, off, _ = random_tridiag(rng, n)
            a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            eigs = np.linalg.eigvalsh(a)
            for x in rng.uniform(-12, 12, 5):
                assert sturm_count(diag, off, x) == np.sum(eigs < x)

    @given(tridiag_matrices(), st.floats(-20, 20), st.floats(0.001, 5))
    @example((np.array([0.0, 1, 0, 1, 0, 1, 0]), np.array([0.0, 1, 0, 1, 0, 1])),
             0.0, 1.0)
    @settings(max_examples=60, deadline=None)
    def test_count_nondecreasing(self, mat, x, dx):
        diag, off = mat
        assert sturm_count(diag, off, x) <= sturm_count(diag, off, x + dx)

    @pytest.mark.parametrize("diag, off", [
        ([0.0, 1, 0, 1, 0, 1, 0], [0.0, 1, 0, 1, 0, 1]),
        ([2.0, 0, 2, 0], [0.0, 0, 0]),
        ([1.0, 1, 1], [0.0, 1]),
    ], ids=["blocks", "diagonal", "zero-coupling"])
    def test_exact_eigenvalue_shift_is_not_counted(self, diag, off):
        diag, off = np.array(diag), np.array(off)
        a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eigs = np.linalg.eigvalsh(a)
        for x in (0.0, 1.0, 2.0):
            assert sturm_count(diag, off, x) == np.sum(eigs < x - 1e-12)

    def test_vectorized_shifts(self):
        op = laplacian_op(9)
        xs = np.linspace(0, 100, 7)
        counts = sturm_count(op.diag, op.off, xs)
        assert counts.shape == (7,)
        assert np.all(np.diff(counts) >= 0)


class TestNthEigenvalue:
    def test_laplacian_ground_state_n3(self):
        assert nth_eigenvalue(laplacian_op(3), 1) == pytest.approx(
            8 * (1 - np.sqrt(2) / 2), abs=1e-12
        )

    def test_laplacian_n255_first_two(self):
        op = laplacian_op(255)
        assert nth_eigenvalue(op, 1) == pytest.approx(2.46739, abs=1e-4)
        assert nth_eigenvalue(op, 2) == pytest.approx(np.pi**2, abs=1e-3)

    def test_matches_dense_reference(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 30))
            diag, off, _ = random_tridiag(rng, n)
            a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            eigs = np.linalg.eigvalsh(a)
            grid = build_grid(max(n, 3))
            op = TridiagOperator(diag=diag, off=off, grid=grid)
            for k in (1, n // 2 + 1, n):
                assert nth_eigenvalue(op, k) == pytest.approx(
                    eigs[k - 1], abs=1e-10
                )

    def test_shift_invariance(self, rng):
        op = laplacian_op(24)
        base = nth_eigenvalue(op, 3)
        for s in rng.uniform(-7, 7, 5):
            shifted = TridiagOperator(diag=op.diag + s, off=op.off, grid=op.grid)
            assert nth_eigenvalue(shifted, 3) == pytest.approx(
                base + s, abs=1e-12 * max(1, abs(base + s))
            )

    def test_index_out_of_range(self):
        op = laplacian_op(5)
        with pytest.raises(ValidationError, match="index-out-of-range"):
            nth_eigenvalue(op, 6)
        with pytest.raises(ValidationError, match="index-out-of-range"):
            nth_eigenvalue(op, 0)

    def test_sturm_certificate(self):
        op = laplacian_op(64)
        d = eigenvalue_floor(op)
        for n in (1, 5, 32):
            lam = nth_eigenvalue(op, n)
            assert sturm_count(op.diag, op.off, lam - d) < n
            assert sturm_count(op.diag, op.off, lam + d) >= n


def couette_op(m, beta=2.0, c=-1.5):
    return assemble(build_grid(m), lambda y: -beta / (y - c))


class TestLapackKernel:
    @pytest.mark.parametrize("m", [256, 1024, 4096])
    def test_reversal_bit_identical(self, m):
        # LAPACK's rounding depends on the row order for some of these
        # operators, e.g. (0.5, -1.05) at 256 rows and (1, -1.1) at 1024
        for beta in (0.5, 1.0, 2.0, 4.0):
            for c in (-1.05, -1.1, -1.5, -3.0):
                op = couette_op(m, beta, c)
                rev = TridiagOperator(diag=op.diag[::-1], off=op.off[::-1], grid=op.grid)
                assert nth_eigenvalue(op, 1) == nth_eigenvalue(rev, 1)

    @pytest.mark.parametrize("m", [1024, 4096])
    def test_sturm_certifies_lapack_value(self, m):
        op = couette_op(m)
        rev = TridiagOperator(diag=op.diag[::-1], off=op.off[::-1], grid=op.grid)
        tol = eigen._EIG_TOL
        row_sums = np.abs(op.diag)
        row_sums[:-1] += np.abs(op.off)
        row_sums[1:] += np.abs(op.off)
        delta = max(2 * tol, 8 * np.finfo(float).eps * row_sums.max())
        for n in (1, 2, 5):
            full = nth_eigenvalue(op, n)
            for near in (None, full, full - 50.0, full + 50.0, full + 1e-4 * abs(full)):
                lam = nth_eigenvalue(op, n, near=near)
                below, upto = sturm_count(op.diag, op.off, np.array([lam - delta, lam + delta]))
                assert below < n <= upto
                # both values lie within delta of eigenvalue n
                assert abs(lam - full) <= 2 * delta
                assert nth_eigenvalue(rev, n, near=near) == lam


class CountingLapack:
    """The binding's routines, with each whole-spectrum ``stebz`` call (``range='I'``) counted."""

    def __init__(self, real):
        self.real, self.whole_spectrum = real, 0
        self.dgtsv = real.dgtsv

    def dstebz(self, d, e, kind, *args):
        self.whole_spectrum += kind == 2
        return self.real.dstebz(d, e, kind, *args)


@pytest.fixture
def lapack(monkeypatch):
    counting = CountingLapack(eigen._flapack)
    monkeypatch.setattr(eigen, "_flapack", counting)
    return counting


class TestBracketedSolve:
    """``near``: the value is certified inside lambda -+ d by Sturm counts, or else is
    the whole-spectrum ``near=None`` value, the fall-through."""

    def test_count_matches_sturm_oracle(self, rng):
        ops = [couette_op(1024), couette_op(256, -3.0, 1.2), laplacian_op(50)]
        for _ in range(10):
            diag, off, grid = random_tridiag(rng, int(rng.integers(3, 60)))
            ops.append(TridiagOperator(diag=diag, off=off, grid=grid))
        for op in ops:
            b = eigen._norm_bound(op)
            r = eigen._radius(b)
            spectrum = scipy.linalg.eigh_tridiagonal(op.diag, op.off, eigvals_only=True)
            near_eigs = np.concatenate([spectrum * (1 - 1e-9), spectrum * (1 + 1e-9)])
            xs = np.concatenate([rng.uniform(-b - 1.0, b + 1.0, 20), near_eigs])
            counts = [eigen._count(op.diag, op.off, b, x) for x in xs]
            assert counts == list(sturm_count(op.diag, op.off, xs))
            assert eigen._count(op.diag, op.off, b, -r) == 0
            assert eigen._count(op.diag, op.off, b, r) == op.dim

    @pytest.mark.parametrize("diag, off", [
        ([0.0, 0.0], [0.0]),
        ([-1.0, -1.0], [0.0]),
        ([1.0, 1.0], [0.0]),
        ([0.0, 0.0], [1.0]),
    ], ids=["zero", "minus-identity", "identity", "swap"])
    def test_count_at_the_bound(self, diag, off):
        # an eigenvalue at -||A|| is counted only because the bound is padded
        diag, off = np.array(diag), np.array(off)
        b = eigen._norm_bound(TridiagOperator(diag=diag, off=off, grid=None))
        spectrum = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        for x in spectrum:
            assert eigen._count(diag, off, b, x) == np.sum(spectrum <= x)
            assert eigen._count(diag, off, b, x - 1e-9) == np.sum(spectrum < x)

    def test_random_matrices(self, rng):
        for _ in range(20):
            size = int(rng.integers(2, 40))
            diag, off, grid = random_tridiag(rng, size)
            op = TridiagOperator(diag=diag, off=off, grid=grid)
            d = eigenvalue_floor(op)
            for n in {1, size // 2 + 1, size}:
                full = nth_eigenvalue(op, n)
                lam = nth_eigenvalue(op, n, near=full + rng.uniform(-3.0, 3.0))
                below, upto = sturm_count(diag, off, np.array([lam - d, lam + d]))
                assert below < n <= upto
                assert abs(lam - full) <= 2 * d

    @pytest.mark.parametrize("near", [np.nan, np.inf, -np.inf, np.float32("nan")],
                             ids=["near0", "near1", "near2", "near3"])
    def test_bad_bracket_rejected(self, near):
        with pytest.raises(ValidationError, match="near must be finite"):
            nth_eigenvalue(laplacian_op(8), 1, near=near)

    def test_count_mismatch_raises(self, monkeypatch):
        # a guess at lambda_2 falls through to stebz, whose count is checked
        real = eigen._flapack

        def dstebz(d, e, kind, vl, vu, il, iu, tol, order):
            m, *rest = real.dstebz(d, e, kind, vl, vu, il, iu, tol, order)
            return (m + 1 if kind == 2 else m), *rest  # the whole-spectrum solve, not a count

        monkeypatch.setattr(eigen, "_flapack", types.SimpleNamespace(dstebz=dstebz, dgtsv=real.dgtsv))
        op = laplacian_op(8)
        with pytest.raises(NoConvergenceError, match="stebz"):
            nth_eigenvalue(op, 1, near=nth_eigenvalue(op, 2))

    def test_good_guess_certified_without_bisection(self, lapack):
        op = couette_op(4096)
        full = nth_eigenvalue(op, 1)
        d = eigenvalue_floor(op)
        lapack.whole_spectrum = 0
        lam = nth_eigenvalue(op, 1, near=full * (1 + 1e-4))
        assert lapack.whole_spectrum == 0
        below, upto = sturm_count(op.diag, op.off, np.array([lam - d, lam + d]))
        assert below < 1 <= upto
        rev = TridiagOperator(diag=op.diag[::-1], off=op.off[::-1], grid=op.grid)
        assert nth_eigenvalue(rev, 1, near=full * (1 + 1e-4)) == lam
        assert lapack.whole_spectrum == 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_guess_at_next_eigenvalue_falls_through(self, n, lapack):
        op = couette_op(1024)
        full, guess = nth_eigenvalue(op, n), nth_eigenvalue(op, n + 1)
        lapack.whole_spectrum = 0
        assert nth_eigenvalue(op, n, near=guess) == full
        assert lapack.whole_spectrum == 1

    def test_zero_pivot_falls_through(self, lapack):
        # gtsv meets an exact zero pivot at a diagonal entry of a diagonal matrix
        op = TridiagOperator(diag=np.array([1.0, 2.0, 3.0, 4.0]), off=np.zeros(3), grid=build_grid(4))
        assert eigen._inverse_iteration(op.diag, op.off, 3.0) is None
        full = nth_eigenvalue(op, 2)
        lapack.whole_spectrum = 0
        assert nth_eigenvalue(op, 2, near=3.0) == full == 2.0
        assert lapack.whole_spectrum == 1

    def test_antisymmetric_eigenvector_found(self, lapack):
        # Couette at beta = 0 is persymmetric: its even-numbered eigenvectors are
        # antisymmetric under reversal, and the start vector is not orthogonal to them
        op = laplacian_op(1023)
        full = nth_eigenvalue(op, 2)
        lapack.whole_spectrum = 0
        lam = nth_eigenvalue(op, 2, near=full * (1 + 1e-4))
        assert lapack.whole_spectrum == 0
        assert abs(lam - full) <= 2 * eigenvalue_floor(op)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diag", "off"])
    def test_rejected(self, where, bad):
        op = laplacian_op(8)
        arrays = {"diag": op.diag.copy(), "off": op.off.copy()}
        arrays[where][3] = bad
        bad_op = TridiagOperator(grid=op.grid, **arrays)
        with pytest.raises(ValidationError, match="non-finite"):
            nth_eigenvalue(bad_op, 1)

    def test_single_row_rejected(self):
        op = TridiagOperator(diag=np.array([np.nan]), off=np.zeros(0), grid=None)
        with pytest.raises(ValueError, match="non-finite"):
            nth_eigenvalue(op, 1)


class TestStebzFailure:
    @pytest.mark.parametrize("m, info", [(1, 2), (0, 0), (2, 0)])
    def test_raises_no_convergence(self, monkeypatch, m, info):
        def dstebz(*args):
            return m, np.zeros(8), None, None, info

        monkeypatch.setattr(eigen, "_flapack", types.SimpleNamespace(dstebz=dstebz))
        with pytest.raises(NoConvergenceError, match="stebz"):
            nth_eigenvalue(laplacian_op(8), 1)


def scipy_stebz(diag, off, n, tol):
    """The n-th eigenvalue from scipy's public ``eigh_tridiagonal`` with the stebz driver."""
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(n - 1, n - 1),
                                         lapack_driver="stebz", tol=tol)[0]


class TestLapackParity:
    """The routines called straight from the binding give scipy's public results bit for bit."""

    def test_stebz_matches_eigh_tridiagonal(self):
        rng = np.random.default_rng(13)
        sizes = [1, 2, 3000] + [int(s) for s in np.exp(rng.uniform(0, np.log(3000), 997))]
        for size in sizes:
            diag = rng.uniform(-5, 5, size) * 10.0 ** rng.integers(-3, 4)
            off = rng.uniform(-3, 3, size - 1)
            n = int(rng.integers(1, size + 1))
            op = TridiagOperator(diag=diag, off=off, grid=None)
            for d, e in ((diag, off), (diag[::-1], off[::-1])):
                canonical = eigen._canonical_orientation(d, e)
                for tol in (0.0, 1e-12, 1e-8):
                    ref = scipy_stebz(*canonical, n, tol)
                    if size > 1:
                        m, w, _, _, info = eigen._flapack.dstebz(*canonical, 2, 0.0, 1.0,
                                                                 n, n, tol, "E")
                        assert (m, info) == (1, 0)
                        assert w[0] == ref
                    if tol == eigen._EIG_TOL:
                        assert nth_eigenvalue(op, n) == ref

    def test_stein_matches_scipy_lapack(self):
        # scipy's stebz driver builds its vectors with LAPACK stein; the two unit
        # vectors differ by at most (||r_v|| + ||r_z||) / gap (Davis-Kahan), with
        # r the residual at lam and gap the distance from lam to the other eigenvalues
        rng = np.random.default_rng(14)
        for size in (3, 17, 256, 3000):
            diag, off, grid = random_tridiag(rng, size)
            op = TridiagOperator(diag=diag, off=off, grid=grid)
            spectrum = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
            for n in (1, size // 2 + 1, size):
                lam = nth_eigenvalue(op, n)
                _, z = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                                     select_range=(n - 1, n - 1),
                                                     lapack_driver="stebz")
                z = z[:, 0]
                v = eigenvector(op, lam)
                gap = np.min(np.abs(np.delete(spectrum, n - 1) - lam))
                residuals = sum(np.linalg.norm(op.matvec(x) - lam * x) for x in (v, z))
                assert np.linalg.norm(v - np.sign(v @ z) * z) <= 1.5 * residuals / gap + 1e-14


class TestLapackLoader:
    NAME = "scipy.linalg._flapack"

    @staticmethod
    def run(body):
        proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_reuses_the_module_scipy_loaded(self):
        assert self.run(
            "import sys, scipy.linalg\n"
            "from betaplane import eigen\n"
            f"print(eigen._flapack is sys.modules[{self.NAME!r}])\n"
        ) == ["True"]

    def test_scipy_imported_later_gets_the_same_routines(self):
        assert self.run(
            "import sys\n"
            "from betaplane import eigen\n"
            f"print({self.NAME!r} in sys.modules)\n"
            "import scipy.linalg\n"
            "print(scipy.linalg.lapack.dstebz is eigen._flapack.dstebz,"
            " scipy.linalg.lapack.dgtsv is eigen._flapack.dgtsv)\n"
        ) == ["False", "True", "True"]

    def test_missing_file_raises(self, monkeypatch):
        monkeypatch.delitem(sys.modules, self.NAME, raising=False)
        monkeypatch.setattr("importlib.machinery.EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"not found: .*_flapack"):
            eigen._load_flapack()

    def test_missing_routine_raises(self, monkeypatch):
        stub = types.ModuleType(self.NAME)
        stub.__file__ = "/lib/_flapack.so"
        stub.dstebz = None
        monkeypatch.setitem(sys.modules, self.NAME, stub)
        with pytest.raises(ImportError, match="/lib/_flapack.so has no dgtsv"):
            eigen._load_flapack()

    def test_every_called_routine_is_checked(self):
        # the routines the loader checks are exactly those the package calls
        package = Path(eigen.__file__).parent
        called = {name for path in package.glob("*.py")
                  for name in re.findall(r"_flapack\.(\w+)", path.read_text())}
        assert called == set(eigen._LAPACK_ROUTINES)


class TestEigenvector:
    def test_ground_state_is_sine(self):
        op = laplacian_op(63)
        lam = nth_eigenvalue(op, 1)
        v = eigenvector(op, lam)
        nodes = op.grid.nodes
        ref = np.sin(np.pi * (nodes + 1) / 2)
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(v, ref, atol=1e-8)

    def test_ground_state_one_signed(self):
        op = assemble(build_grid(80), lambda y: np.sin(3 * y))
        v = eigenvector(op, nth_eigenvalue(op, 1))
        assert np.all(v > 0)

    def test_second_mode_one_sign_change(self):
        op = laplacian_op(63)
        v = eigenvector(op, nth_eigenvalue(op, 2))
        assert np.sum(np.diff(np.sign(v)) != 0) == 1

    def test_residual_certificate(self):
        op = assemble(build_grid(128), lambda y: -1.0 / (y + 3.0))
        lam = nth_eigenvalue(op, 1)
        v = eigenvector(op, lam)
        norm_a = np.max(np.abs(op.diag)) + 2 * np.max(np.abs(op.off))
        assert np.linalg.norm(op.matvec(v) - lam * v) / norm_a <= 1e-10

    def test_far_from_spectrum_fails(self):
        op = laplacian_op(16)
        r = eigen._radius(eigen._norm_bound(op))
        for lam in (r + 100.0, np.nextafter(r, np.inf), -np.nextafter(r, np.inf), np.nan):
            with pytest.raises(ValidationError, match="spectral bound"):
                eigenvector(op, lam)

    def test_deterministic(self):
        op = laplacian_op(40)
        lam = nth_eigenvalue(op, 4)
        v1 = eigenvector(op, lam)
        v2 = eigenvector(op, lam)
        assert np.array_equal(v1, v2)


class TestNormBound:
    """eigenvalue_floor is max(2 tol, 8 eps b) with the kernel's one tolerance and ||A|| bound b."""

    @staticmethod
    def ops(rng):
        for n in (1, 2, 3, 7, 12):
            diag, off, grid = random_tridiag(rng, n)
            yield TridiagOperator(diag=diag, off=off, grid=grid)
        yield TridiagOperator(diag=np.zeros(4), off=np.zeros(3), grid=build_grid(4))
        yield TridiagOperator(diag=np.zeros(1), off=np.zeros(0), grid=None)

    def test_floor_is_the_norm_bound(self, rng):
        for op in self.ops(rng):
            norm = np.max(np.abs(op.diag)) + 2.0 * np.max(np.abs(op.off), initial=0.0)
            assert eigen._norm_bound(op) == norm
            assert eigenvalue_floor(op) == max(2e-12, 8.0 * np.finfo(float).eps * float(norm))


class TestKeptVector:
    """``vector=True`` returns the unit eigenvector in op's row order on every path.

    Its Hellmann-Feynman slope in c, -beta sum v_i^2 / (y_i - c)^2, is the
    exact derivative of the discrete eigenvalue.  The mirror (-beta, -c) has
    the reversed matrix, whose canonical orientation is reversed, so a vector
    not mapped back would fail both checks.
    """

    @staticmethod
    def couette(grid, beta, c):
        return assemble(grid, lambda y: -beta / (y - c))

    @pytest.mark.parametrize("beta, c", [(3.0, -1.5), (-3.0, 1.5)], ids=["canonical", "reversed"])
    @pytest.mark.parametrize("path", ["certified", "whole-spectrum", "fall-through"])
    def test_slope_matches_finite_difference(self, beta, c, path, lapack):
        grid = build_grid(128)
        op = self.couette(grid, beta, c)
        assert (eigen._canonical_orientation(op.diag, op.off)[0] is not op.diag) == (beta < 0)
        guesses = {"certified": nth_eigenvalue(op, 1) + 1e-3, "whole-spectrum": None,
                   "fall-through": nth_eigenvalue(op, 2)}
        lapack.whole_spectrum = 0
        lam, v = nth_eigenvalue(op, 1, near=guesses[path], vector=True)
        assert lapack.whole_spectrum == (path != "certified")
        assert lam == nth_eigenvalue(op, 1, near=guesses[path])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(op.matvec(v) - lam * v) <= 1e-9 * eigen._norm_bound(op)
        slope = -beta * np.sum((v / (grid.nodes - c)) ** 2)
        dc = 1e-4
        centred = (nth_eigenvalue(self.couette(grid, beta, c + dc), 1)
                   - nth_eigenvalue(self.couette(grid, beta, c - dc), 1)) / (2 * dc)
        assert slope == pytest.approx(centred, rel=1e-6)

    def test_no_vector_unless_asked(self, monkeypatch):
        real, shifts = eigen._inverse_iteration, []
        monkeypatch.setattr(eigen, "_inverse_iteration", lambda d, e, s: shifts.append(s) or real(d, e, s))
        op = laplacian_op(64)
        lam = nth_eigenvalue(op, 1)
        assert shifts == []
        assert nth_eigenvalue(op, 1, vector=True)[0] == lam
        assert shifts == [lam]

    def test_single_row(self):
        op = TridiagOperator(diag=np.array([2.5]), off=np.zeros(0), grid=None)
        lam, v = nth_eigenvalue(op, 1, vector=True)
        assert lam == 2.5 and v.tolist() == [1.0]


def illinois(f, lo, hi, f_lo, f_hi, tol):
    """Illinois alone, written out: ``monotone_root`` without a slope takes exactly these steps."""
    kept = 0
    for _ in range(100):
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
    raise NoConvergenceError("no-convergence")


# closed-form roots with their exact slopes: (f, f', lo, hi, root)
ROOTS = [
    pytest.param(lambda x: x**3 - 2.0, lambda x: 3.0 * x**2, 0.0, 2.0, 2.0 ** (1 / 3), id="cube"),
    pytest.param(lambda x: np.exp(x) - 3.0, np.exp, -5.0, 5.0, np.log(3.0), id="exp"),
    pytest.param(lambda x: np.cos(x) - x, lambda x: -np.sin(x) - 1.0, 0.0, 1.0, 0.7390851332151607,
                 id="cos"),
    pytest.param(lambda x: 1.0 / x - 0.25, lambda x: -1.0 / x**2, 0.5, 100.0, 4.0, id="hyperbola"),
    pytest.param(lambda x: np.tanh(50 * (x - 0.3)), lambda x: 50.0 / np.cosh(50 * (x - 0.3)) ** 2,
                 -1.0, 1.0, 0.3, id="steep"),
]


class TestMonotoneRoot:
    @pytest.mark.parametrize("f, lo, hi, root", [
        (lambda x: x**3 - 2.0, 0.0, 2.0, 2.0 ** (1 / 3)),
        (lambda x: np.exp(x) - 3.0, -5.0, 5.0, np.log(3.0)),
        (lambda x: np.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: 1.0 / x - 0.25, 0.5, 100.0, 4.0),
        (lambda x: np.tanh(50 * (x - 0.3)), -1.0, 1.0, 0.3),
    ], ids=["cube", "exp", "cos", "hyperbola", "steep"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_meets_tolerance_on_closed_form_roots(self, f, lo, hi, root, tol):
        x = monotone_root(f, lo, hi, f(lo), f(hi), tol)
        assert abs(f(x)) <= tol
        assert lo < x < hi
        assert x == pytest.approx(root, abs=1e3 * tol)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x**9 - 1e-3, 0.0, 1.0),
        (lambda x: 1.0 if x < 1e-9 else -1.0, 0.0, 1.0),
        (lambda x: np.expm1(40 * x) - 1.0, -1.0, 1.0),
    ], ids=["flat", "jump-near-end", "exponential"])
    def test_never_leaves_the_open_bracket(self, f, lo, hi):
        seen = []

        def spy(x):
            seen.append(x)
            assert lo < x < hi
            return f(x)

        try:
            monotone_root(spy, lo, hi, f(lo), f(hi), 1e-12)
        except NoConvergenceError:
            pass
        assert seen

    def test_jump_raises(self):
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        with pytest.raises(NoConvergenceError, match="no-convergence"):
            monotone_root(step, 0.0, 1.0, -1.0, 1.0, 1e-6)
        assert len(calls) <= 100
        assert min(abs(x - 0.3) for x in calls) < 1e-12


    @pytest.mark.parametrize("f, df, lo, hi, root", ROOTS)
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_exact_slope_meets_tolerance_in_few_evaluations(self, f, df, lo, hi, root, tol):
        newton, plain = [], []
        x = monotone_root(lambda t: newton.append(t) or f(t), lo, hi, f(lo), f(hi), tol, slope=df)
        monotone_root(lambda t: plain.append(t) or f(t), lo, hi, f(lo), f(hi), tol)
        assert abs(f(x)) <= tol
        assert x == pytest.approx(root, abs=1e3 * tol)
        assert all(lo < t < hi for t in newton)
        assert len(newton) <= min(10, len(plain))

    @pytest.mark.parametrize("bad", [lambda d: -d, lambda d: 0.0, lambda d: float("nan")],
                             ids=["wrong-sign", "zero", "nan"])
    @pytest.mark.parametrize("f, df, lo, hi, root", ROOTS)
    def test_bad_slope_falls_back_inside_the_bracket(self, f, df, lo, hi, root, bad):
        def spy(x):
            assert lo < x < hi
            return f(x)

        x = monotone_root(spy, lo, hi, f(lo), f(hi), 1e-10, slope=lambda t: bad(df(t)))
        assert abs(f(x)) <= 1e-10

    @pytest.mark.parametrize("f, lo, hi", [
        *((p.values[0], p.values[2], p.values[3]) for p in ROOTS),
        (lambda x: x**9 - 1e-3, 0.0, 1.0),
        (lambda x: np.expm1(40 * x) - 1.0, -1.0, 1.0),
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_without_slope_takes_the_illinois_steps(self, f, lo, hi, tol):
        ours, written = [], []
        results = []
        for search, seen in ((monotone_root, ours), (illinois, written)):
            try:
                results.append(search(lambda t: seen.append(t) or f(t), lo, hi, f(lo), f(hi), tol))
            except NoConvergenceError:
                results.append(None)
        assert results[0] == results[1]
        assert ours == written

    def test_unevaluated_end_is_not_evaluated_while_newton_converges(self):
        seen = []
        x = monotone_root(lambda t: seen.append(t) or 1.0 - t, 0.0, 5.0, None, -4.0, 1e-12,
                          slope=lambda t: -1.0)
        assert x == 1.0 and seen == [1.0]

    def test_unevaluated_end_of_the_wrong_sign_raises(self):
        # Newton's step from hi leaves the bracket, so lo is evaluated: f < 0 there too
        with pytest.raises(BracketFailureError, match="bracket-failure: f has one sign"):
            monotone_root(lambda t: -1.0 - t, 0.0, 5.0, None, -6.0, 1e-12, slope=lambda t: -1.0)


class TestExtrapolate:
    def test_exact_quadratic_model(self):
        vals = [(h, 5.0 + h**2) for h in (0.4, 0.2, 0.1)]
        lam, err = extrapolate(vals)
        assert lam == pytest.approx(5.0, abs=1e-14)
        assert err <= 1e-14

    def test_laplacian_sequence_converges(self):
        seq = []
        for h in (2**-4, 2**-5, 2**-6):
            n = int(round(2 / h)) - 1
            g = build_grid(n)
            op = assemble(g, lambda y: np.zeros_like(y))
            seq.append((g.h, nth_eigenvalue(op, 1)))
        lam, err = extrapolate(seq)
        assert lam == pytest.approx(np.pi**2 / 4, abs=1e-7)

    def test_constant_sequence_zero_error(self):
        lam, err = extrapolate([(0.4, 2.0), (0.2, 2.0), (0.1, 2.0)])
        assert lam == 2.0
        assert err == 0.0

    def test_insufficient_sequence(self):
        with pytest.raises(ValidationError, match="insufficient-sequence"):
            extrapolate([(0.2, 1.0), (0.1, 1.1)])
        with pytest.raises(ValidationError, match="insufficient-sequence"):
            extrapolate([(0.4, 1.0), (0.3, 1.1), (0.25, 1.2)])
