import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from betaplane import modified_flow as mf
from betaplane.errors import NoBracketError, NoConvergenceError, ValidationError
from betaplane.rayleigh_kuo import lambda_n_general
from oracles import quad_integral, simpson_integral

# frozen from the quadrature oracle (2/sqrt(pi)) int_0^1 exp(-s^2) ds
ERF_ONE = 0.8427007929497149


class TestErf:
    def test_zero(self):
        assert mf.erf(0.0) == 0.0

    def test_at_one_matches_quadrature_oracle(self):
        assert mf.erf(1.0) == pytest.approx(ERF_ONE, abs=1e-13)
        live = 2 / math.sqrt(math.pi) * quad_integral(lambda s: math.exp(-s * s), 0.0, 1.0)
        assert mf.erf(1.0) == pytest.approx(live, abs=1e-13)

    def test_odd(self):
        for x in (0.3, 1.7, 2.9, 5.5):
            assert mf.erf(-x) == -mf.erf(x)

    def test_against_stdlib(self):
        xs = np.linspace(-6, 6, 2001)
        ref = np.array([math.erf(v) for v in xs])
        ours = mf.erf(xs)
        assert np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-30)) < 1e-12

    def test_saturation(self):
        assert mf.erf(7.0) == 1.0
        assert mf.erf(-9.0) == -1.0

    def test_array_shape(self):
        assert mf.erf(np.zeros((3, 2))).shape == (3, 2)


class TestErfFromTheCLibrary:
    def test_bitwise_stdlib_below_six(self):
        xs = np.concatenate((np.linspace(-6, 6, 20001)[1:-1], [-0.0, 5.999999999999999, 1e-300]))
        ours = mf.erf(xs)
        ref = np.array([math.erf(v) for v in xs])
        assert np.array_equal(ours, ref)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))

    def test_exactly_one_beyond(self):
        xs = np.array([6.0, 6.5, 40.0, 1e300, np.inf])
        assert np.all(mf.erf(xs) == 1.0)
        assert np.all(mf.erf(-xs) == -1.0)
        # erf(6) = 1 - 2.2e-17 rounds to 1, so the switch to sign(x) is invisible
        assert math.erf(6.0) == 1.0

    def test_nan(self):
        assert math.isnan(mf.erf(float("nan")))
        out = mf.erf(np.array([0.5, np.nan, 7.0]))
        assert np.isnan(out[1]) and out[0] == math.erf(0.5) and out[2] == 1.0

    def test_zero_dimensional_input_gives_a_scalar(self):
        for x in (0.5, np.float64(0.5), np.array(0.5), 9.0):
            out = mf.erf(x)
            assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
            assert out == math.erf(float(x))

    def test_shapes_kept(self):
        for shape in ((0,), (4,), (2, 3), (2, 1, 3)):
            xs = np.linspace(-8, 8, int(np.prod(shape))).reshape(shape)
            assert mf.erf(xs).shape == shape

    def test_within_four_ulp_of_scipy(self):
        xs = np.linspace(-6, 6, 1_000_001)
        ours, ref = mf.erf(xs), scipy.special.erf(xs)
        ulps = np.abs(ours - ref) / np.spacing(np.maximum(np.abs(ref), np.finfo(float).tiny))
        assert ulps.max() <= 4


class TestCutoff:
    def test_plateau(self):
        assert mf.cutoff_I(0.5) == 1.0
        assert mf.cutoff_I(-1.0) == 1.0

    def test_exact_zero_tail(self):
        assert mf.cutoff_I(2.3) == 0.0
        assert mf.cutoff_I(-2.0) == 0.0

    def test_transition_against_quadrature_oracle(self):
        def bump(t):
            return math.exp(-1.0 / (t - 1.0) - 1.0 / (2.0 - t)) if 1.0 < t < 2.0 else 0.0

        den = quad_integral(bump, 1.0, 2.0)
        # off the 1/8192 table nodes, and next to both ends of the transition
        for x in (1.2, 1.5, 1.8, 1.0001, 1.9999, *np.linspace(1.0001, 1.9999, 66)):
            num = quad_integral(bump, x, 2.0)
            assert mf.cutoff_I(x) == pytest.approx(num / den, abs=1e-13)
            assert mf.cutoff_I(x) == mf.cutoff_I(-x)
        assert 0 < mf.cutoff_I(1.5) < 1

    def test_monotone_on_transition(self):
        xs = np.linspace(1.0, 2.0, 300)
        vals = mf.cutoff_I(xs)
        assert np.all(np.diff(vals) <= 0)

    def test_monotone_and_nonnegative_on_a_fine_grid(self):
        vals = mf.cutoff_I(np.linspace(1.0, 2.0, 400001))
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals >= 0)

    def test_derivative_is_bump(self):
        _, norm = mf._cutoff_table()
        for x in (1.3, 1.6, -1.6):
            expected = -np.sign(x) * float(mf._bump(np.abs(np.array(x)))) / norm
            assert mf.cutoff_jet(x)[1] == pytest.approx(expected, rel=1e-14)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for x in (1.25, 1.5, 1.75):
            fd = (mf.cutoff_I(x + h) - mf.cutoff_I(x - h)) / (2 * h)
            assert mf.cutoff_jet(x)[1] == pytest.approx(fd, rel=1e-5)
            fd2 = (mf.cutoff_jet(x + h)[1] - mf.cutoff_jet(x - h)[1]) / (2 * h)
            assert mf.cutoff_jet(x)[2] == pytest.approx(fd2, rel=1e-5)

    def test_constants_positive_finite(self):
        c = mf.cutoff_constants()
        _, norm = mf._cutoff_table()
        for v in (c.M, c.M0, norm):
            assert v > 0 and np.isfinite(v)

    def test_m_equals_full_sweep(self):
        xs = np.linspace(0.0, 2.0, 200001)
        full = 2.0 * xs * mf.cutoff_I(xs) + xs**2 * mf.cutoff_jet(xs)[1]
        assert mf.cutoff_constants().M == float(np.max(np.abs(full))) == 4.917330890744651

    def test_m0_equals_full_sweep(self):
        xs = np.linspace(0.0, 2.0, 200001)
        full = mf._erf_jet(xs)[1] * mf.cutoff_I(xs) + mf.erf(xs) * mf.cutoff_jet(xs)[1]
        assert mf.cutoff_constants().M0 == float(np.max(np.abs(full))) == 2.461431389378077

    def test_params_build_no_cutoff_table(self):
        # the guard reads literals: a fresh process that builds parameters tabulates nothing
        code = (
            "from betaplane import modified_flow as mf\n"
            "mf.ModifiedFlowParams(0.5, 0.01, 1.0)\n"
            "mf.cutoff_constants()\n"
            "print(mf._cutoff_table.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestB0:
    def test_negative(self):
        assert mf.b0() < 0

    def test_set_up_constants_pinned(self):
        # bitwise: the Gauss-Legendre rule is built on first use, not at import
        c = mf.cutoff_constants()
        assert (c.M, c.M0, mf._cutoff_table()[1]) == (4.917330890744651, 2.461431389378077, 0.00702985840660964)
        assert mf.b0() == -0.020840287781420455

    def test_integrand_vanishes_at_zero(self):
        val = (1 / 5.0**3 - 1 / 5.0**3) * mf.erf(0.0) * mf.cutoff_I(0.0)
        assert val == 0.0

    def test_two_quadrature_rules_agree(self):
        def integrand(x):
            return ((x + 5.0) ** -3 - (5.0 - x) ** -3) * mf.erf(x) * mf.cutoff_I(x)

        simpson = 2.0 * simpson_integral(integrand, 0.0, 2.0, n=8192)
        assert abs(mf.b0() - simpson) <= 1e-10

    def test_against_adaptive_quadrature_oracle(self):
        def integrand(x):
            return ((x + 5.0) ** -3 - (5.0 - x) ** -3) * mf.erf(x) * mf.cutoff_I(x)

        assert abs(mf.b0() - 2.0 * quad_integral(integrand, 0.0, 2.0)) <= 1e-13


class TestParamsAndProfile:
    def test_gamma_upper_limit_named(self):
        with pytest.raises(ValidationError, match="gamma < min"):
            mf.ModifiedFlowParams(4.0, 0.04, 0.0)

    def test_monotonicity_guard_named(self):
        with pytest.raises(ValidationError, match="M0"):
            mf.ModifiedFlowParams(0.5, 0.02, 40.0)

    @pytest.mark.parametrize("beta, gamma, a", [
        (math.nan, 0.01, 0.0), (0.5, math.nan, 0.0), (0.5, 0.01, math.nan),
        (math.inf, 0.01, 0.0), (0.5, math.inf, 0.0), (0.5, 0.01, math.inf), (-math.inf, 0.01, 1.0),
    ])
    def test_non_finite_rejected(self, beta, gamma, a):
        with pytest.raises(ValidationError, match="beta, gamma and a must be finite"):
            mf.ModifiedFlowParams(beta, gamma, a)

    def test_beta_nonzero(self):
        with pytest.raises(ValidationError, match="beta"):
            mf.ModifiedFlowParams(0.0, 0.01, 0.0)

    def test_identity_profile_limit(self):
        # with a = 0 and tiny beta the flow is within O(beta gamma^2) of y
        prof = mf.profile(mf.ModifiedFlowParams(1e-12, 0.01, 0.0))
        ys = np.linspace(-1, 1, 101)
        assert np.max(np.abs(prof.jet(ys)[0] - ys)) < 1e-15

    def test_quadratic_term_sample(self):
        prof = mf.profile(mf.ModifiedFlowParams(0.5, 0.05, 0.0))
        assert float(prof.jet(np.array(0.01))[0]) == pytest.approx(0.010025, abs=1e-15)

    def test_derivative_positive_everywhere(self):
        prof = mf.profile(mf.ModifiedFlowParams(0.5, 0.02, 1.0))
        ys = np.linspace(-1, 1, 10001)
        assert np.all(prof.jet(ys)[1] > 0)

    def test_support_discipline(self):
        beta, g, a = 0.5, 0.02, 1.0
        prof = mf.profile(mf.ModifiedFlowParams(beta, g, a))
        ys = np.linspace(-1, 1, 4001)
        u = prof.jet(ys)[0]
        outside_both = (np.abs(ys) > 2 * g) & ((ys < 3 * g) | (ys > 7 * g))
        assert np.all(u[outside_both] == ys[outside_both])
        # quadratic correction is exactly zero on the erf support [3g, 7g]
        on_erf = (ys >= 3 * g) & (ys <= 7 * g)
        x2 = (ys[on_erf] - 5 * g) / g
        assert np.all(u[on_erf] == ys[on_erf] + a * g**2 * mf.erf(x2) * mf.cutoff_I(x2))
        # erf correction is exactly zero on the quadratic support [-2g, 2g]
        on_quad = np.abs(ys) <= 2 * g
        x1 = ys[on_quad] / g
        assert np.all(u[on_quad] == ys[on_quad] + 0.5 * beta * g**2 * x1**2 * mf.cutoff_I(x1))

    def test_curvature_plateau(self):
        beta, g = 0.5, 0.02
        prof = mf.profile(mf.ModifiedFlowParams(beta, g, 1.0))
        ys = np.linspace(-g, g, 101)
        assert np.all(prof.jet(ys)[2] == beta)

    def test_pure_coriolis_potential_region(self):
        # Q = -beta/y exactly on [2g, 3g] and [7g, 1]
        beta, g, a = 0.5, 0.02, 1.0
        prof = mf.profile(mf.ModifiedFlowParams(beta, g, a))
        for y in (2.2 * g, 2.8 * g, 7.5 * g, 0.5, -0.5, -3 * g):
            u, _, d2u = prof.jet(np.array(y))
            q = (float(d2u) - beta) / (float(u) - 0.0)
            assert q == pytest.approx(-beta / y, rel=1e-13)

    def test_derivatives_match_finite_differences(self):
        prof = mf.profile(mf.ModifiedFlowParams(0.8, 0.03, 2.0))
        h = 1e-6
        for y in (0.0, 0.025, 0.05, 0.1, 0.13, 0.19, -0.04, 0.8):
            _, du, d2u = prof.jet(np.array(y))
            fd1 = (float(prof.jet(y + h)[0]) - float(prof.jet(y - h)[0])) / (2 * h)
            assert float(du) == pytest.approx(fd1, rel=2e-8, abs=1e-8)
            fd2 = (float(prof.jet(y + h)[1]) - float(prof.jet(y - h)[1])) / (2 * h)
            assert float(d2u) == pytest.approx(fd2, rel=2e-6, abs=2e-4)


class TestOneJetPerGrid:
    """A solve reads the profile once per grid, and each read evaluates erf and eta once per cutoff."""

    def test_lambda_n_general_evaluates_jet_once_per_grid(self, monkeypatch):
        prof = mf.profile(mf.ModifiedFlowParams(0.7, 0.02, 0.8))
        sizes = []

        def jet(y):
            sizes.append(np.size(y))
            return prof.jet(y)

        mf._cutoff_table()  # tabulated (with eta) once per process
        bumps = []
        bump = mf._bump
        monkeypatch.setattr(mf, "_bump", lambda x: bumps.append(np.size(x)) or bump(x))
        pair = lambda_n_general(dataclasses.replace(prof, jet=jet), 0.7, 0.0, 1, 256)
        # the removable layer's ends, then the grids r, 2r and 4r
        assert sizes == [2, 256, 512, 1024]
        assert len(bumps) == 2 * len(sizes)
        monkeypatch.undo()
        assert pair.value == lambda_n_general(prof, 0.7, 0.0, 1, 256).value

    def test_one_erf_per_potential(self, monkeypatch):
        calls = []
        erf = mf.erf
        monkeypatch.setattr(mf, "erf", lambda x: calls.append(np.size(x)) or erf(x))
        mf.lambda_n_modified(mf.ModifiedFlowParams(0.7, 0.02, 0.8), 1, 256)
        # construction (u at -1 and 1), the removable layer's ends, one per grid
        assert calls == [2, 2, 256, 512, 1024]

    def test_jet_matches_its_parts(self):
        beta, g, a = 0.8, 0.03, 2.0
        ys = np.linspace(-1.0, 1.0, 2001)
        u, du, d2u = mf.profile(mf.ModifiedFlowParams(beta, g, a)).jet(ys)
        x1, x2 = ys / g, (ys - 5.0 * g) / g
        assert np.array_equal(u, ys + 0.5 * beta * g**2 * x1**2 * mf.cutoff_I(x1)
                              + a * g**2 * mf.erf(x2) * mf.cutoff_I(x2))
        e, de, d2e = mf._erf_jet(x2)
        assert np.array_equal(e, mf.erf(x2))
        c = 2.0 / np.sqrt(np.pi)
        assert np.array_equal(de, c * np.exp(-(x2**2)))
        assert np.array_equal(d2e, -2.0 * x2 * c * np.exp(-(x2**2)))
        assert du.shape == d2u.shape == ys.shape


class TestEigenvalues:
    def test_small_beta_positive_principal(self):
        pair = mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, 0.01, 0.0), 1)
        assert pair.value > 0

    def test_asymptote_upper_bound(self):
        # limsup as gamma -> 0+ is 3 + (3/2) b0 a; check with slack 0.5
        a = 4.0
        bound = 3.0 + 1.5 * mf.b0() * a + 0.5
        pair = mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, 2.5e-3, a), 1)
        assert pair.value <= bound

    def test_continuity_in_amplitude(self):
        base = mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, 0.01, 1.0), 1, 512).value
        diffs = []
        for delta in (0.2, 0.05):
            val = mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, 0.01, 1.0 + delta), 1, 512).value
            diffs.append(abs(val - base))
        assert diffs[1] < diffs[0]
        assert diffs[1] < 5e-3

    def test_second_eigenvalue_positive_small_beta(self):
        for a in (0.0, 0.5, 1.0):
            pair = mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, 0.01, a), 2)
            assert pair.value > 0

    def test_large_beta_negative_principal(self):
        pair = mf.lambda_n_modified(mf.ModifiedFlowParams(50.0, 1.5e-3, 0.0), 1)
        assert pair.value < 0


class TestLevelSet:
    def test_half_unit_drop(self):
        beta, g, res = 0.5, 1e-2, 1024
        lam0 = mf.lambda_n_modified(mf.ModifiedFlowParams(beta, g, 0.0), 1, res).value
        d = lam0 - 0.5
        a = mf.level_set_a(beta, g, d, a_max=30.0, tol=2e-3, resolution=res, scan_steps=10)
        assert a > 0
        back = mf.lambda_n_modified(mf.ModifiedFlowParams(beta, g, a), 1, res).value
        assert abs(back - d) <= 2e-3

    def test_small_drop_small_amplitude(self):
        beta, g, res = 0.5, 1e-2, 1024
        lam0 = mf.lambda_n_modified(mf.ModifiedFlowParams(beta, g, 0.0), 1, res).value
        a = mf.level_set_a(beta, g, lam0 - 0.05, a_max=30.0, tol=2e-3, resolution=res,
                           scan_steps=10)
        assert 0 < a < 5.0

    def test_level_sets_ordered(self):
        beta, g, res = 0.5, 1e-2, 1024
        lam0 = mf.lambda_n_modified(mf.ModifiedFlowParams(beta, g, 0.0), 1, res).value
        a_deep = mf.level_set_a(beta, g, lam0 - 0.5, a_max=30.0, tol=2e-3, resolution=res,
                                scan_steps=10)
        a_shallow = mf.level_set_a(beta, g, lam0 - 0.25, a_max=30.0, tol=2e-3, resolution=res,
                                   scan_steps=10)
        assert a_deep >= a_shallow

    def test_no_bracket_error(self):
        beta, g = 0.5, 1e-2
        with pytest.raises(NoBracketError, match="no-bracket"):
            mf.level_set_a(beta, g, -50.0, a_max=10.0, resolution=512, scan_steps=4)

    def test_default_bound_not_positive_doubles_the_amplitude(self):
        # default_a_max(1.5277) < 0; at resolution 512 lambda_1 is 1.7892 at a = 8
        # and 1.5109 at a = 16, so the doubled bracket ends at a = 16
        beta, g, d, res = 0.5, 1e-2, 1.5277, 512
        assert mf.default_a_max(d) < 0
        a = mf.level_set_a(beta, g, d, resolution=res)
        assert 8.0 < a < 16.0
        back = mf.lambda_n_modified(mf.ModifiedFlowParams(beta, g, a), 1, res).value
        assert abs(back - d) <= 1e-4

    def test_doubling_stopped_by_the_monotonicity_guard(self):
        # at gamma = 0.1 the guard admits a < 3.56, where lambda_1 stays above 2.01
        with pytest.raises(NoBracketError, match=r"d=2\.0 .*below a=4\.0, which the monotonicity guard"):
            mf.level_set_a(0.5, 0.1, 2.0, resolution=512)

    @pytest.mark.parametrize("scan_steps", [0, -3])
    def test_scan_steps_at_least_one_before_any_solve(self, scan_steps, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("no eigenvalue may be computed")

        monkeypatch.setattr(mf, "lambda_n_modified", no_solve)
        with pytest.raises(ValidationError, match="scan_steps must be >= 1"):
            mf.level_set_a(0.5, 1e-2, -1.0, a_max=10.0, resolution=512, scan_steps=scan_steps)

    def test_refinement_failure_is_no_convergence(self, monkeypatch):
        # lambda_1 jumps across d inside the first bracket, so no amplitude meets tol
        class Pair:
            def __init__(self, value):
                self.value = value

        def jump(params, n, resolution=None):
            return Pair(1.0 if params.a < 0.3 else -1.0)

        monkeypatch.setattr(mf, "lambda_n_modified", jump)
        with pytest.raises(NoConvergenceError, match="no-convergence"):
            mf.level_set_a(0.5, 1e-2, 0.0, a_max=1.0, tol=1e-3, resolution=512, scan_steps=4)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_tolerance_must_be_finite_positive(self, tol):
        with pytest.raises(ValidationError, match="finite and positive"):
            mf.level_set_a(0.5, 1e-2, -1.0, a_max=10.0, tol=tol, resolution=512)
