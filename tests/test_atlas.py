import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import hyp1f1, jn_zeros

import oracles
from betaplane import atlas
from betaplane.errors import (
    BracketFailureError,
    NoConvergenceError,
    OutOfRangeLambdaError,
    ValidationError,
    WrongSignBetaError,
)
from betaplane.rayleigh_kuo import lambda_n_couette, wall_beta

PI2_4 = np.pi**2 / 4


class TestBetaStar:
    def test_root_residual(self, beta_star):
        lam, err = atlas.lambda1_wall(beta_star)
        assert abs(lam) <= 1e-5

    def test_monotone_consistency(self, beta_star):
        assert atlas.lambda1_wall(beta_star / 2)[0] > 0
        assert atlas.lambda1_wall(2 * beta_star)[0] < 0

    def test_mirror_root(self, beta_star):
        # the right-endpoint root on beta < 0 sits at -beta_star
        lam, _ = atlas.lambda1_wall(-beta_star)
        assert abs(lam) <= 2e-5

    def test_reproducible_across_resolutions(self, beta_star):
        b512 = atlas.find_beta_star(resolution=512)
        assert abs(b512 - beta_star) <= 5e-4

    def test_tol_below_error_estimate_raises(self):
        # the bar of beta* is 6.5e-10 at base 64 and grows with the rounding floor of the
        # finer bases (1.5e-9 at 128, 5.7e-9 at 256), so no ladder up to the cap meets 1e-10
        with pytest.raises(NoConvergenceError, match="exceeds tol"):
            atlas.find_beta_star(tol=1e-10)

    def test_tol_above_error_estimate_gives_default_value(self):
        assert atlas.find_beta_star(tol=1e-7) == atlas.find_beta_star()

    def test_mirror_bit_identical(self):
        for beta in (0.5, 1.0, 3.0, 4.0, 8.0):
            assert atlas.lambda1_wall(beta) == atlas.lambda1_wall(-beta)

    def test_within_estimate_of_bessel_zero(self, beta_star):
        # at lambda = 0 the wall eigenfunction is sqrt(x) J1(2 sqrt(beta x)), x = 1 + y,
        # so beta* = j_(1,1)^2 / 8
        pair = wall_beta(0.0, 256)  # the fixture's base
        value, err = pair.value, pair.error_estimate
        assert beta_star == value
        assert abs(value - jn_zeros(1, 1)[0] ** 2 / 8) <= err


class TestAlphaBetaCurve:
    def test_alpha_zero_at_beta_star(self, beta_star):
        alpha, _ = atlas.alpha_beta(beta_star)
        assert alpha == pytest.approx(0.0, abs=2e-3)

    def test_strictly_increasing(self, beta_star):
        table = atlas.alpha_beta_curve([beta_star + 0.5, beta_star + 1.0, beta_star + 2.0])
        alphas = table.column("alpha_beta")
        assert all(a < b for a, b in zip(alphas, alphas[1:]))

    def test_periods_decreasing(self, beta_star):
        table = atlas.alpha_beta_curve([beta_star + 0.5, beta_star + 1.0, beta_star + 2.0])
        periods = [2 * np.pi / a for a in table.column("alpha_beta")]
        assert all(a > b for a, b in zip(periods, periods[1:]))

    def test_rows_sorted_and_errors_positive(self, beta_star):
        table = atlas.alpha_beta_curve([beta_star + 2.0, beta_star + 0.5])
        betas = table.column("beta")
        assert betas == sorted(betas)
        assert all(e > 0 and np.isfinite(e) for e in table.column("error_estimate"))

    def test_below_threshold_rejected(self, beta_star):
        with pytest.raises(ValidationError, match="below-threshold"):
            atlas.alpha_beta(beta_star / 2)

    def test_error_bounds_near_beta_star(self, beta_star):
        # the rows of `atlas curve --beta-max 6 --steps 3`; the first sits at
        # beta*, where alpha (about 5.75e-6) squared is below lam1's estimate
        table = atlas.alpha_beta_curve(np.linspace(beta_star, 6.0, 3))
        for row_index, (beta, alpha, est) in enumerate(table.rows):
            lam, err = atlas.lambda1_wall(beta)
            exact = oracles.frobenius_eigenvalue(beta, -1.0, lam - 1e-6, lam + 1e-6)
            alpha_ref = np.sqrt(max(-exact, 0.0))
            assert abs(alpha - alpha_ref) <= est
            if row_index == 0:
                assert alpha**2 < err
                assert est <= np.sqrt(err)

    def test_alpha_squared_plus_lambda_identity(self, beta_star):
        for beta in (1.5 * beta_star, 2 * beta_star):
            lam, err = atlas.lambda1_wall(beta)
            alpha, _ = atlas.alpha_beta(beta)
            assert lam < -err < 0
            assert abs(alpha**2 + lam) <= 1e-12


class TestBetaT:
    def test_long_period_limit_is_beta_star(self, beta_star):
        bt = atlas.beta_T(1e3)
        assert abs(bt - beta_star) <= 5e-3

    def test_decreasing_in_period(self):
        b1 = atlas.beta_T(3.0)
        b2 = atlas.beta_T(6.0)
        assert b1 > b2

    def test_alpha_consistency(self):
        T = 4.0
        bt = atlas.beta_T(T)
        alpha, _ = atlas.alpha_beta(bt)
        assert alpha == pytest.approx(2 * np.pi / T, abs=1e-3)

    def test_curve_inverse_consistency(self, beta_star):
        for beta in (1.5 * beta_star, 2 * beta_star):
            alpha, _ = atlas.alpha_beta(beta)
            assert atlas.beta_T(2 * np.pi / alpha) == pytest.approx(beta, abs=1e-3)

    @pytest.mark.parametrize("T", [1.0, 2.0, 6.0, 20.0, 100.0])
    def test_within_estimate_of_kummer_root(self, T):
        # at lambda = -alpha^2 the wall eigenfunction is x e^(-alpha x) M(1 - beta/(2 alpha), 2, 2 alpha x),
        # x = 1 + y, so beta_T is the root in beta of M(1 - beta/(2 alpha), 2, 4 alpha)
        alpha = 2 * np.pi / T
        pair = wall_beta(alpha)
        value, err = pair.value, pair.error_estimate
        assert atlas.beta_T(T) == value
        exact = brentq(lambda b: hyp1f1(1 - b / (2 * alpha), 2, 4 * alpha),
                       value - 1e-3, value + 1e-3, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(value - exact) <= err

    @pytest.mark.parametrize("T, base", [(0.3, 256), (0.1, 1024)])
    def test_short_period_climbs_within_estimate_of_kummer_root(self, T, base):
        # the layer is 1/alpha wide, so base 64's ladder misses tol (T = 0.3: bar 8.6e-4;
        # T = 0.1: ratio 3.36) and the ladder climbs; a fixed base 256 left T = 0.1 at 8.5e-4
        alpha = 2 * np.pi / T
        value, err, accepted = atlas.beta_T_and_error(T)
        assert accepted == base and err <= 1e-5
        exact = brentq(lambda b: hyp1f1(1 - b / (2 * alpha), 2, 4 * alpha),
                       value - 1e-3, value + 1e-3, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(value - exact) <= err

    def test_period_validation(self):
        with pytest.raises(ValidationError):
            atlas.beta_T(-2.0)

    def test_tol_below_error_estimate_raises(self):
        err = wall_beta(2 * np.pi / 6.0).error_estimate
        with pytest.raises(NoConvergenceError, match="exceeds tol"):
            atlas.beta_T(6.0, tol=err / 2)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-3])
@pytest.mark.parametrize("call", [
    lambda tol: atlas.find_beta_star(tol=tol),
    lambda tol: atlas.beta_T(2.0, tol=tol),
    lambda tol: atlas.classify(1.0, 3.0, tol=tol),
    lambda tol: atlas.speed_for_eigenvalue(3.0, -1.0, tol=tol),
], ids=["beta_star", "beta_T", "classify", "speed"])
def test_tolerance_must_be_finite_positive(call, tol):
    with pytest.raises(ValidationError, match="finite and positive"):
        call(tol)


class TestClassify:
    def test_low_beta_band_is_O(self):
        assert atlas.classify(1.0, 0.0).label == atlas.REGION_O

    def test_borderline_by_construction(self, beta_star):
        beta = 2 * beta_star
        alpha, _ = atlas.alpha_beta(beta)
        assert atlas.classify(alpha, beta).label == atlas.REGION_GAMMA_PLUS

    def test_interior_region_mirrored(self, beta_star):
        beta = 2 * beta_star
        alpha, _ = atlas.alpha_beta(beta)
        assert atlas.classify(alpha / 2, -beta).label == atlas.REGION_I_MINUS

    def test_mirror_symmetry_of_labels(self, beta_star):
        beta = 2 * beta_star
        alpha, _ = atlas.alpha_beta(beta)
        swap = {
            atlas.REGION_O: atlas.REGION_O,
            atlas.REGION_GAMMA_PLUS: atlas.REGION_GAMMA_MINUS,
            atlas.REGION_GAMMA_MINUS: atlas.REGION_GAMMA_PLUS,
            atlas.REGION_I_PLUS: atlas.REGION_I_MINUS,
            atlas.REGION_I_MINUS: atlas.REGION_I_PLUS,
        }
        for a, b in ((alpha, beta), (alpha / 2, beta), (2 * alpha, beta), (1.0, beta_star / 2)):
            assert atlas.classify(a, -b).label == swap[atlas.classify(a, b).label]

    def test_verdict_carries_curve_data(self, beta_star):
        verdict = atlas.classify(0.5, 2 * beta_star, tol=1e-4)
        assert verdict.beta_star == pytest.approx(beta_star, abs=1e-6)
        assert verdict.alpha_beta is not None
        assert verdict.tolerance == 1e-4

    @pytest.mark.parametrize("alpha, scale", [(0.5, 2.0), (5.0, 2.0), (0.5, -3.0)],
                             ids=["I+", "O", "I-"])
    def test_verdict_error_is_the_curve_estimate(self, alpha, scale, beta_star):
        beta = scale * beta_star
        assert atlas.classify(alpha, beta).error_estimate == atlas.alpha_beta(beta)[1]

    def test_no_curve_error_below_beta_star(self, beta_star):
        verdict = atlas.classify(0.5, 0.9 * beta_star)
        assert verdict.alpha_beta is None
        assert verdict.error_estimate == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            atlas.classify(0.0, 1.0)

    @pytest.mark.parametrize("beta, label", [(160.0, atlas.REGION_I_PLUS),
                                             (-160.0, atlas.REGION_I_MINUS)])
    def test_bar_decides_label_raises(self, beta, label):
        # alpha_beta(160) = 80; on the fixed base 256 the curve read 79.99791 with a bar of
        # 0.0089, which alone decided alpha = 79.9985; the ladder now climbs from base 64
        # until alpha's bar meets tol, to base 1024: 79.9999993 with a bar of 4.6e-5
        verdict = atlas.classify(79.9985, beta)
        assert verdict.label == label
        assert verdict.bases == (64, 1024)
        fine = atlas.classify(79.9985, beta, resolution=1024)
        # the same grids, reached by guesses instead of grid 1024's bisection: within 2 floors
        assert abs(verdict.alpha_beta - fine.alpha_beta) <= 1e-11
        # a point at the strip's edge is still decided by the bar alone
        with pytest.raises(NoConvergenceError, match="alpha_beta's error estimate"):
            atlas.classify(verdict.alpha_beta + 1e-4, beta)

    def test_strip_edge_near_the_curve_raises(self, beta_star):
        # alpha_beta's bar at 2 beta_star is 8.8e-10, so alpha = alpha_beta + tol is undecided
        beta = 2 * beta_star
        alpha, _ = atlas.alpha_beta(beta)
        with pytest.raises(NoConvergenceError, match="Gamma strip"):
            atlas.classify(alpha + 1e-4, beta, tol=1e-4)
        assert atlas.classify(alpha + 2e-4, beta, tol=1e-4).label == atlas.REGION_O

    def test_beta_star_within_its_bar_raises(self, beta_star):
        err = wall_beta(0.0).error_estimate
        with pytest.raises(NoConvergenceError, match="beta_star's error estimate"):
            atlas.classify(1.0, -beta_star)
        assert atlas.classify(1.0, beta_star - 2 * err).label == atlas.REGION_O

    def test_beta_star_bar_not_held_to_beta_star_tol(self):
        # beta*'s bar at 16384 rows is 2.34e-5, above beta-star's own default tol of 1e-5;
        # |beta| = 4 lies 2.2 above beta*, so the bar decides nothing
        verdict = atlas.classify(1.0, 4.0, resolution=16384)
        assert verdict.label == atlas.REGION_I_PLUS
        assert verdict.beta_star == wall_beta(0.0, 16384).value
        assert verdict.alpha_beta == 1.966245822988337


class TestSpeedInversion:
    def test_crossing_speed(self, beta_star):
        beta = 2 * beta_star
        c0 = atlas.speed_for_eigenvalue(beta, 0.0)
        assert c0 < -1
        assert abs(atlas.lambda1_regular(beta, c0)[0]) <= 1e-5

    def test_near_quarter_pi_squared_is_far_out(self, beta_star):
        beta = 2 * beta_star
        c_far = atlas.speed_for_eigenvalue(beta, PI2_4 - 0.01)
        c_near = atlas.speed_for_eigenvalue(beta, 0.0)
        assert c_far < c_near < -1

    def test_round_trip(self, beta_star):
        beta = 2 * beta_star
        lam_wall, _ = atlas.lambda1_wall(beta)
        for lam0 in (lam_wall / 2, -0.1, 1.0):
            c0 = atlas.speed_for_eigenvalue(beta, lam0, tol=1e-5)
            assert abs(atlas.lambda1_regular(beta, c0)[0] - lam0) <= 2e-5

    def test_slightly_negative_target_lands_near_wall(self, beta_star):
        beta = 2 * beta_star
        alpha, _ = atlas.alpha_beta(beta)
        lam0 = -((alpha * 0.98) ** 2)
        c0 = atlas.speed_for_eigenvalue(beta, lam0)
        assert -1.2 < c0 < -1

    def test_out_of_range_rejected(self, beta_star):
        beta = 2 * beta_star
        lam_wall, _ = atlas.lambda1_wall(beta)
        with pytest.raises(OutOfRangeLambdaError):
            atlas.speed_for_eigenvalue(beta, lam_wall - 1.0)
        with pytest.raises(OutOfRangeLambdaError):
            atlas.speed_for_eigenvalue(beta, PI2_4 + 0.1)

    def test_negative_beta_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("no eigenvalue may be computed")

        monkeypatch.setattr(atlas, "lambda1_wall", no_solve)
        monkeypatch.setattr(atlas, "lambda1_regular", no_solve)
        with pytest.raises(WrongSignBetaError, match="wrong-sign-beta"):
            atlas.speed_for_eigenvalue(-3.0, 0.0)

    def test_few_regular_values_per_inversion(self, monkeypatch):
        speeds = []
        regular = atlas.lambda1_regular

        def counting(beta, c, *args, **kwargs):
            speeds.append(c)
            return regular(beta, c, *args, **kwargs)

        monkeypatch.setattr(atlas, "lambda1_regular", counting)
        c0 = atlas.speed_for_eigenvalue(3.0, -1.0, tol=1e-5)
        assert len(speeds) <= 12
        assert all(c < -1.0 for c in speeds)
        assert abs(regular(3.0, c0)[0] + 1.0) <= 1e-5


    def test_lambda0_below_a_grid_wall_value_raises(self):
        # lambda0 passes the range check against the extrapolated wall value,
        # but the 256-row grid's own wall value lies above it: no root there
        lam_wall, err = atlas.lambda1_wall(4.0)
        with pytest.raises(BracketFailureError,
                           match=r"on the 256-row grid lam1\(beta,-1\) lies [0-9.e-]+ above lambda0"):
            atlas.speed_for_eigenvalue(4.0, lam_wall + err / 2)

    def test_tol_below_error_estimate_raises(self):
        c0, err = atlas.speed_and_error(4.0, -3.0)
        with pytest.raises(NoConvergenceError, match="exceeds tol"):
            atlas.speed_for_eigenvalue(4.0, -3.0, tol=err / abs(c0) / 2)

    def test_tol_above_error_estimate_returns_default_c0(self):
        c0, err = atlas.speed_and_error(4.0, -3.0)
        assert atlas.speed_for_eigenvalue(4.0, -3.0, tol=2 * err / abs(c0)) == c0
        assert atlas.speed_for_eigenvalue(4.0, -3.0) == c0


class TestAgainstFrobeniusSeries:
    """The Couette problem off the flow range is solved exactly by its Frobenius series."""

    @pytest.mark.parametrize("beta, c", [(0.0, -3.0), (1.5, -2.5), (3.0, -1.05), (4.0, -8.0)])
    def test_eigenvalue_within_bar(self, beta, c):
        pair = lambda_n_couette(beta, c)
        exact = oracles.frobenius_eigenvalue(beta, c, pair.value - 1e-6, pair.value + 1e-6)
        if beta == 0.0:
            assert exact == pytest.approx(PI2_4, abs=1e-15)
        assert abs(pair.value - exact) <= pair.error_estimate
        assert oracles.frobenius_certifies(beta, pair.value, pair.error_estimate, c=c)

    def test_exact_speed(self):
        assert oracles.frobenius_speed(4.0, -3.0, -1.0388, -1.0387) == pytest.approx(
            -1.038776411624734, abs=1e-15)

    # the last six are the speed queries of the atlas benchmark at seeds 1-6;
    # (5.0, -5.9) lies 0.0054 from the wall, where grid r starts
    @pytest.mark.parametrize("beta, lambda0",
                             [(4.0, -3.0), (3.0, -1.0), (3.0, 0.0), (5.5, -5.0), (2.5, -0.3), (5.0, -5.9),
                              (3.29899, -1.47708), (4.13253, -1.75418), (3.19577, -0.624695),
                              (5.32888, -1.50442), (3.72445, -0.958018), (3.07895, -0.977664)])
    def test_speed_within_bar(self, beta, lambda0):
        c0, err = atlas.speed_and_error(beta, lambda0)
        exact = oracles.frobenius_speed(beta, lambda0, c0 - 1e-6, c0 + 1e-6)
        assert abs(c0 - exact) <= err <= 1e-7
        assert oracles.frobenius_certifies(beta, c0, err, lambda0=lambda0)

    def test_far_speed_within_bar(self):
        # near pi^2/4 the slope falls like 1/c0^2, and the bar grows with it
        c0, err = atlas.speed_and_error(4.0, 2.4)
        exact = oracles.frobenius_speed(4.0, 2.4, c0 - 1e-6, c0 + 1e-6)
        assert c0 == pytest.approx(-59.3484, abs=1e-4)
        assert abs(c0 - exact) <= err <= 1e-5
        assert oracles.frobenius_certifies(4.0, c0, err, lambda0=2.4)

    # far out the bracket's start moves 8x at a time; a bar of 1e-4 is too wide to
    # bisect in the series' precision, so the series only certifies it
    @pytest.mark.parametrize("beta, c_approx", [(2.0, -270.2306), (4.0, -540.4604)])
    def test_farther_speed_within_bar(self, beta, c_approx):
        c0, err = atlas.speed_and_error(beta, 2.46)
        assert c0 == pytest.approx(c_approx, abs=1e-4)
        assert err <= 4e-4
        assert oracles.frobenius_certifies(beta, c0, err, lambda0=2.46)

    def test_speed_beyond_its_bar_raises(self):
        # c0 = -29694 with a bar of 70: the relative bar 2.4e-3 exceeds tol
        with pytest.raises(NoConvergenceError, match="exceeds tol"):
            atlas.speed_and_error(3.0, 2.4673)

    # (beta, lambda0, c0, error_estimate) of the benchmark's atlas and cli speed queries
    # at seeds 1-6, pinned bit for bit
    @pytest.mark.parametrize("beta, lambda0, c0, err", [
        (3.29899, -1.47708, -1.0821772636116211, 6.514566680056121e-10),
        (2.85376, -0.957014, -1.0718253566834204, 7.577580900777581e-10),
        (4.13253, -1.75418, -1.1909742620987274, 5.469944223231463e-10),
        (4.92689, -3.77391, -1.0843192967744366, 5.60283987682314e-10),
        (3.19577, -0.624695, -1.2175961950318224, 7.880601159083506e-10),
        (3.92216, -1.81506, -1.1440556182159756, 5.26897238193361e-10),
        (5.32888, -1.50442, -1.492311360839617, 8.415023420750349e-10),
        (2.7703, -0.315599, -1.1822702296426524, 8.389097698492014e-10),
        (3.72445, -0.958018, -1.2664915966758816, 7.542662939009971e-10),
        (4.7197, -3.64108, -1.0719743496540692, 6.210322306591319e-10),
        (3.07895, -0.977664, -1.114866501933882, 6.479569137545152e-10),
        (4.48846, -2.15677, -1.190400471287191, 4.978271742144895e-10),
    ])
    def test_bench_speeds_pinned(self, beta, lambda0, c0, err):
        assert atlas.speed_and_error(beta, lambda0) == (c0, err)


def test_speed_inversion_budget(monkeypatch):
    import betaplane.rayleigh_kuo as rk

    rows, real = [], rk.nth_eigenvalue

    def counting(op, n, near=None, vector=False):
        rows.append(op.dim)
        return real(op, n, near, vector)

    monkeypatch.setattr(rk, "nth_eigenvalue", counting)
    atlas.speed_for_eigenvalue(3.0, -1.0)
    # the wall value's ladder, then Newton's steps on grids 256, 512 and 1024: 5, 2 and 2
    assert len(rows) <= 12
    assert sum(rows) <= 6_144


def test_warm_speed_cache_solves_nothing(tmp_path, monkeypatch, capsys):
    import betaplane.rayleigh_kuo as rk
    from betaplane.cli import main

    argv = ["atlas", "speed", "--beta", "4", "--lambda0", "-3", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert sorted(p.name.rsplit("-", 1)[0] for p in tmp_path.iterdir()) == [
        "lambda1-regular", "lambda1-wall-direct", "speed-for-eigenvalue"]

    def no_solve(*args, **kwargs):
        raise AssertionError("a warm run solved")

    monkeypatch.setattr(rk, "nth_eigenvalue", no_solve)
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert (cold.err, warm.err) == ("cache: 0 hits, 3 misses\n", "cache: 3 hits, 0 misses\n")


def test_disk_cache_round_trip(tmp_path):
    from betaplane.cache import CurveCache

    cache = CurveCache(tmp_path)
    v1, e1 = atlas.lambda1_wall(0.75, cache=cache)
    assert cache.misses == 1
    v2, e2 = atlas.lambda1_wall(0.75, cache=CurveCache(tmp_path))
    assert (v1, e1) == (v2, e2)


def test_atlas_builds_no_vectors(monkeypatch):
    """classify and the wall and regular values build no vector; the speed inversion
    reads one from every solve, and builds one only where a solve falls through to
    the whole-spectrum bisection (the certified iteration's vector comes free).

    An iteration before a solve's bisection is its guess or the guess's restart
    at the quotient; only one after it builds a vector."""
    import betaplane.eigen as eigen
    import betaplane.rayleigh_kuo as rk
    from lapack_fake import CountingLapack

    def no_vectors(*args, **kwargs):
        raise AssertionError("atlas must not build eigenvectors")

    lapack = CountingLapack(eigen._flapack)
    iteration, solve = eigen._inverse_iteration, rk.nth_eigenvalue
    iterations = []  # the bisections made before each iteration

    def counted_iteration(*args):
        iterations.append(lapack.whole_spectrum)
        return iteration(*args)

    solves = []

    def counted_solve(op, n, near=None, vector=False):
        first, bisections = len(iterations), lapack.whole_spectrum
        result = solve(op, n, near, vector)
        fell_through = lapack.whole_spectrum > bisections
        built = sum(before > bisections for before in iterations[first:])
        solves.append((vector, fell_through, built))
        return result

    monkeypatch.setattr(rk, "eigenvector", no_vectors)
    monkeypatch.setattr(eigen, "_inverse_iteration", counted_iteration)
    monkeypatch.setattr(eigen, "_flapack", lapack)
    monkeypatch.setattr(rk, "nth_eigenvalue", counted_solve)
    atlas.classify(1.0, 3.0)
    atlas.lambda1_wall(3.0)
    atlas.lambda1_regular(3.0, -2.0)
    assert solves and not any(vector or built for vector, _, built in solves)
    del solves[:]
    atlas.speed_for_eigenvalue(3.0, 0.0)
    inversion = [(fell, built) for vector, fell, built in solves if vector]
    assert inversion[0] == (True, 1)  # grid r's wall value has no guess
    assert all(built == fell for fell, built in inversion)
    assert not any(built for vector, _, built in solves if not vector)
