import numpy as np
import pytest
from scipy.special import hyp1f1

import oracles
from betaplane import modified_flow as mf
from betaplane.errors import (
    SingularPotentialError,
    SingularSpeedError,
    ValidationError,
    WrongSignBetaError,
)
from betaplane.eigen import eigenvalue_floor, extrapolate
from betaplane.grid import build_grid
from betaplane.rayleigh_kuo import (
    ShearProfile,
    couette,
    lambda_n_couette,
    lambda_n_general,
    scaled_couette,
    wall_beta,
)

PI2_4 = np.pi**2 / 4


def relative_residual(pair):
    """||A v - lam_h v|| / ||A|| of a ladder's finest-grid eigenpair, ||A|| bounded as in eigen."""
    op, v = pair.op, pair.vector
    norm_a = np.max(np.abs(op.diag)) + 2 * np.max(np.abs(op.off))
    return np.linalg.norm(op.matvec(v) - pair.lam_h * v) / norm_a

# Frozen shooting-method oracle values (tests/oracles.py, RK45 rtol 1e-11
# plus Brent root search on the boundary mismatch).
SHOOT_L1_BETA1_CM2 = 1.9482961835528758   # beta=1, c=-2
SHOOT_L1_BETA1_CP2 = 2.9838755334155307   # beta=1, c=+2
SHOOT_L2_BETA1_CM2 = 9.330467629176809    # beta=1, c=-2, second eigenvalue
SHOOT_L1_BETA2_CNEAR = 0.0467229184391231  # beta=2, c=-1.05


def modified_profile(beta, gamma, a):
    from betaplane.modified_flow import ModifiedFlowParams, profile

    return profile(ModifiedFlowParams(beta, gamma, a))


class TestSpecValidation:
    def test_speed_inside_range_rejected(self):
        with pytest.raises(SingularSpeedError, match="essential spectrum"):
            lambda_n_couette(1.0, 0.5)

    def test_endpoint_flagged_singular(self):
        # the wall speeds give the principal eigenvalue only
        for beta, c in ((1.0, -1.0), (-1.0, 1.0)):
            with pytest.raises(ValidationError, match=r"principal eigenvalue only \(n=1\)"):
                lambda_n_couette(beta, c, 2)

    def test_regular_spec_outside_range(self):
        # just outside either wall the speed is regular, and every n is solved
        for beta, c in ((1.0, -1.05), (-1.0, 1.05)):
            assert np.isfinite(lambda_n_couette(beta, c, 2, 64).value)

    @pytest.mark.parametrize("beta, c, n, error, message", [
        pytest.param(1.0, 0.5, 1, SingularSpeedError, "essential spectrum", id="inside-range"),
        pytest.param(0.0, -1.0, 2, ValidationError, r"principal eigenvalue only", id="left-n2"),
        pytest.param(0.0, 1.0, 2, ValidationError, r"principal eigenvalue only", id="right-n2"),
        pytest.param(-1.0, -1.0, 1, WrongSignBetaError, "left endpoint requires beta >= 0",
                     id="left-wrong-sign"),
        pytest.param(1.0, 1.0, 1, WrongSignBetaError, "right endpoint requires beta <= 0",
                     id="right-wrong-sign"),
        pytest.param(np.nan, -1.0, 1, ValidationError, "beta must be finite", id="beta-nan"),
        pytest.param(1.0, np.nan, 1, ValidationError, "c must be finite", id="c-nan"),
    ])
    def test_couette_guards_raise_before_solve(self, beta, c, n, error, message, monkeypatch):
        import betaplane.rayleigh_kuo as rk

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before a guard of lambda_n_couette")

        monkeypatch.setattr(rk, "_solve_extrapolated", no_solve)
        with pytest.raises(error, match=message):
            lambda_n_couette(beta, c, n)


class TestEigenPair:
    """The ladder's record builds its vector once, on first read, and shares it read-only."""

    @staticmethod
    def count_vectors(monkeypatch):
        import betaplane.rayleigh_kuo as rk

        calls = []
        real = rk.eigenvector

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rk, "eigenvector", counted)
        return calls

    def test_vector_built_on_first_read_only(self, monkeypatch):
        calls = self.count_vectors(monkeypatch)
        pair = lambda_n_couette(1.0, -2.0, 1, 128)
        assert len(calls) == 0
        vector = pair.vector
        assert len(calls) == 1
        assert pair.vector is vector
        assert relative_residual(pair) <= 1e-10
        assert len(calls) == 1

    def test_residual_first_builds_one_vector(self, monkeypatch):
        calls = self.count_vectors(monkeypatch)
        pair = lambda_n_couette(1.0, -2.0, 1, 128)
        assert relative_residual(pair) <= 1e-10
        pair.vector
        assert len(calls) == 1

    def test_vector_read_only_unit_norm_on_finest_grid(self):
        pair = lambda_n_couette(1.0, -2.0, 1, 128)
        assert not pair.vector.flags.writeable
        with pytest.raises(ValueError):
            pair.vector[0] = 0.0
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        assert pair.grid is pair.op.grid and pair.grid.n_interior == 4 * 128

    @pytest.mark.parametrize("params", [(2.0, 0.02, 0.0), (2.2, 0.02, 0.3), (1.0, 0.01, 1.0), None],
                             ids=["modified-a0", "modified-a0.3", "modified-gamma0.01", "couette"])
    def test_vector_residual_within_the_floor(self, params):
        # bifurcation reads this vector; an iterate shifted to the ladder's guess
        # rather than to lam_h leaves a residual 75 to 35,000 floors wide here
        if params is None:
            pair = lambda_n_couette(1.0, -2.0)
        else:
            pair = mf.lambda_n_modified(mf.ModifiedFlowParams(*params), 1)
        v = pair.vector
        assert np.linalg.norm(pair.op.matvec(v) - pair.lam_h * v) <= eigenvalue_floor(pair.op)


class TestLambdaRegular:
    def test_beta0_gives_quarter_pi_squared(self):
        pair = lambda_n_couette(0.0, -2.0, 1, 256)
        assert pair.value == pytest.approx(PI2_4, abs=1e-6)

    def test_negative_potential_lowers_eigenvalue(self):
        pair = lambda_n_couette(1.0, -2.0, 1, 256)
        assert pair.value < PI2_4
        assert pair.value == pytest.approx(SHOOT_L1_BETA1_CM2, abs=1e-6)

    def test_positive_potential_raises_eigenvalue(self):
        pair = lambda_n_couette(1.0, 2.0, 1, 256)
        assert pair.value > PI2_4
        assert pair.value == pytest.approx(SHOOT_L1_BETA1_CP2, abs=1e-6)

    def test_second_eigenvalue_against_shooting(self):
        pair = lambda_n_couette(1.0, -2.0, 2, 256)
        assert pair.value == pytest.approx(SHOOT_L2_BETA1_CM2, abs=1e-5)

    def test_near_wall_regular_speed(self):
        pair = lambda_n_couette(2.0, -1.05, 1, 256)
        assert pair.value == pytest.approx(SHOOT_L1_BETA2_CNEAR, abs=1e-5)

    def test_residual_certificate(self):
        pair = lambda_n_couette(1.0, -2.0, 1, 128)
        assert relative_residual(pair) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_vectors_without_reorthogonalization(self, n):
        pairs = [lambda_n_couette(1.0, -2.0, k, 256) for k in range(1, n + 1)]
        v = pairs[-1].vector
        assert np.count_nonzero(np.diff(np.sign(v[v != 0])) != 0) == n - 1
        for lower in pairs[:-1]:
            assert abs(lower.vector @ v) <= 1e-10
        assert relative_residual(pairs[-1]) <= 1e-10

    def test_resolution_floor(self):
        with pytest.raises(ValidationError, match="resolution"):
            lambda_n_couette(1.0, -2.0, 1, 32)


class TestLambdaSingular:
    def test_beta0_left_is_quarter_pi_squared(self):
        pair = lambda_n_couette(0.0, -1.0)
        assert pair.value == pytest.approx(PI2_4, abs=1e-5)

    def test_graded_mesh_cross_check(self):
        # direct solve of the singular problem on a geometrically refined
        # mesh, an independent route to the same limit
        for beta in (1.0, 4.0):
            reg = lambda_n_couette(beta, -1.0).value
            direct = oracles.graded_wall_eigenvalue(beta, 2048, 0.998)
            assert direct == pytest.approx(reg, abs=2e-4)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0, 4.0, 8.0])
    def test_within_estimate_of_wall_series(self, beta):
        # the exact wall value is the zero of the Frobenius series phi1(2) (tests/oracles.py)
        pair = lambda_n_couette(beta, -1.0)
        mirror = lambda_n_couette(-beta, 1.0)
        assert (mirror.value, mirror.error_estimate) == (pair.value, pair.error_estimate)
        exact = oracles.frobenius_eigenvalue(beta, -1.0, pair.value - 1e-6, pair.value + 1e-6)
        assert abs(pair.value - exact) <= pair.error_estimate
        assert oracles.frobenius_certifies(beta, pair.value, pair.error_estimate, c=-1.0)

    def test_hydrogen_closed_form(self):
        # at beta = 2, x (1 - x/2) exp(-x/2) (x = y + 1) is positive on
        # (0, 2), vanishes at both walls and solves the c = -1 problem with
        # lambda = -1/4: the 2s state of -phi'' - (2/x) phi
        pair = lambda_n_couette(2.0, -1.0)
        assert abs(pair.value + 0.25) <= pair.error_estimate

    def test_left_right_symmetry(self):
        # mirror images are solved in one orientation, so they agree bit for bit
        for beta in (0.5, 2.0):
            left = lambda_n_couette(beta, -1.0)
            right = lambda_n_couette(-beta, 1.0)
            assert left.value == right.value
            assert left.error_estimate == right.error_estimate

    def test_wrong_sign_beta(self):
        with pytest.raises(WrongSignBetaError):
            lambda_n_couette(-1.0, -1.0)
        with pytest.raises(WrongSignBetaError):
            lambda_n_couette(1.0, 1.0)

    def test_error_estimate_is_honest(self):
        # reference from the same route at four times the resolution
        ref = lambda_n_couette(1.0, -1.0, 1, 1024)
        std = lambda_n_couette(1.0, -1.0)
        assert abs(std.value - ref.value) <= 3 * std.error_estimate


class TestLambdaGeneral:
    @pytest.mark.parametrize("profile, scale", [(couette(), 1.0), (scaled_couette(0.5), 0.5)],
                             ids=["couette", "scaled"])
    def test_linear_flow_potential_is_the_closed_form(self, profile, scale):
        # the jet gives u' and u'' as constants, and the potential is -beta / (a y - c) bit for bit
        from betaplane.rayleigh_kuo import _potential

        nodes = build_grid(64).nodes
        u, du, d2u = profile.jet(nodes)
        assert np.array_equal(u, scale * nodes) and (du, d2u) == (scale, 0.0)
        assert np.array_equal(_potential(profile, 2.5, -1.3)(nodes), -2.5 / (scale * nodes + 1.3))

    def test_scaled_flow_identity(self):
        # lam for (a y, beta, c) equals the Couette lam at (beta/a, c/a)
        a, beta, c = 0.5, 0.7, -1.0
        scaled = lambda_n_general(scaled_couette(a), beta, c, 1, 128)
        ref = lambda_n_couette(beta / a, c / a, 1, 128)
        assert scaled.value == pytest.approx(ref.value, abs=1e-8)

    def test_couette_through_general_path(self):
        gen = lambda_n_general(couette(), 1.0, -3.0, 1, 128)
        reg = lambda_n_couette(1.0, -3.0, 1, 128)
        assert gen.value == pytest.approx(reg.value, abs=1e-10)

    def test_removable_critical_layer(self):
        from betaplane.modified_flow import ModifiedFlowParams, profile

        prof = profile(ModifiedFlowParams(0.5, 0.02, 1.0))
        pair = lambda_n_general(prof, 0.5, 0.0, 1, 512)
        assert np.isfinite(pair.value)
        assert relative_residual(pair) <= 1e-10

    @pytest.mark.parametrize("make, beta, c", [
        pytest.param(lambda: scaled_couette(0.9), 1.0, 0.3001, id="couette-off-node"),
        pytest.param(lambda: scaled_couette(0.9), 1.0, 0.3, id="couette-on-node"),
        pytest.param(lambda: modified_profile(0.5, 0.02, 0.0), 0.7, 0.0, id="beta-not-flat"),
        pytest.param(lambda: modified_profile(0.5, 0.02, 0.0), 0.5, 0.5, id="outside-layer"),
    ])
    def test_speed_inside_range_rejected_before_solve(self, make, beta, c, monkeypatch):
        import betaplane.rayleigh_kuo as rk

        prof = make()

        def no_solve(*args, **kwargs):
            raise AssertionError("solved an in-range speed")

        monkeypatch.setattr(rk, "_solve_extrapolated", no_solve)
        with pytest.raises(SingularSpeedError, match="essential spectrum"):
            lambda_n_general(prof, beta, c, 1, 256)

    @pytest.mark.parametrize("beta, c, name", [(np.nan, 2.0, "beta"), (np.inf, -1.0, "beta"),
                                               (1.0, np.nan, "c"), (1.0, -np.inf, "c")])
    def test_non_finite_beta_or_c_rejected_before_solve(self, beta, c, name, monkeypatch):
        import betaplane.rayleigh_kuo as rk

        def no_solve(*args, **kwargs):
            raise AssertionError("solved with a non-finite parameter")

        monkeypatch.setattr(rk, "_solve_extrapolated", no_solve)
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            lambda_n_general(couette(), beta, c, 1, 256)

    @pytest.mark.parametrize("beta, c", [(1e306, -1.0), (-1e306, 1.0), (1e308, -1.5)])
    def test_overflowing_potential_rejected(self, beta, c):
        # (u'' - beta) / (u - c) passes the float range at a node
        with pytest.raises(ValidationError, match="non-finite-potential"):
            lambda_n_couette(beta, c)

    @pytest.mark.parametrize("a", [np.nan, np.inf, 0.0, -1.0])
    def test_scaled_couette_scale_finite_and_positive(self, a):
        with pytest.raises(ValidationError, match="scale a must be finite and positive"):
            scaled_couette(a)

    @pytest.mark.parametrize("scale, c", [(1.0, -1.0), (1.0, 1.0), (0.9, -0.9), (0.9, 0.9)])
    def test_endpoint_speeds_allowed(self, scale, c):
        assert np.isfinite(lambda_n_general(scaled_couette(scale), 1.0, c, 1, 64).value)

    def test_singular_potential_detected(self):
        # Couette with c = a node value and a non-vanishing numerator
        g = build_grid(64)
        c = float(g.nodes[10])
        with pytest.raises((SingularPotentialError, SingularSpeedError)):
            lambda_n_general(couette(), 1.0, c, 1, 64)

    def test_singular_node_outside_flat_zone(self):
        # u = y^2 has its critical layers at +-y0; +y0 lies in the removable
        # zone, and its mirror -y0 is a grid node outside it
        y0 = float(build_grid(64).nodes[45])
        def jet(y):
            y = np.asarray(y, dtype=float)
            return y**2, 2.0 * y, np.full(np.shape(y), 2.0)

        prof = ShearProfile(
            jet=jet,
            range_lo=0.0,
            range_hi=1.0,
            label="parabola",
            flat_zone=(y0 - 0.05, y0 + 0.05),
            flat_d2u=1.0,
        )
        with pytest.raises(SingularPotentialError, match=f"node y={-y0}"):
            lambda_n_general(prof, 1.0, y0**2, 1, 64)


class TestSection3Properties:
    """Monotonicity, bounds, limits, and symmetry of lam1(beta, c)."""

    def test_wall_value_bounded_by_quarter_pi_squared(self):
        for beta in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            pair = lambda_n_couette(beta, -1.0)
            assert pair.value <= PI2_4 + 1e-9

    def test_wall_curve_strictly_decreasing_in_beta(self):
        betas = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
        vals = [lambda_n_couette(b, -1.0) for b in betas]
        for lo, hi in zip(vals, vals[1:]):
            gap = lo.value - hi.value
            assert gap > 0
            assert gap > 10 * max(lo.error_estimate, hi.error_estimate)

    def test_strictly_decreasing_in_c(self):
        for beta in (1.0, 4.0):
            vals = [
                lambda_n_couette(beta, c, 1, 256).value
                for c in (-4.0, -3.0, -2.0, -1.5, -1.1)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decreasing_past_transition(self):
        l4 = lambda_n_couette(4.0, -1.0).value
        l8 = lambda_n_couette(8.0, -1.0).value
        assert l8 < l4 < 0

    def test_limit_c_to_minus_infinity(self):
        # the limiting value is pi^2/4; at c=-100 the residual offset is
        # beta * <phi^2/(y+100)> ~ 0.0100000, a hair above 1e-2, so the
        # check carries matching slack and a tenfold-farther confirmation
        lam = lambda_n_couette(1.0, -100.0, 1, 256).value
        assert abs(lam - PI2_4) < 1.05e-2
        lam_far = lambda_n_couette(1.0, -1000.0, 1, 256).value
        assert abs(lam_far - PI2_4) < 1.05e-3

    def test_symmetry_regular(self):
        for beta in (0.5, 2.0, 8.0):
            for c in (-1.5, -2.0, -4.0):
                left = lambda_n_couette(beta, c, 1, 128)
                right = lambda_n_couette(-beta, -c, 1, 128)
                assert left.value == right.value
                assert left.error_estimate == right.error_estimate

    def test_positive_for_beta_c_same_sign(self):
        for beta, c in ((0.5, 1.5), (2.0, 1 + 1e-6), (-0.5, -1.5), (-2.0, -(1 + 1e-6))):
            pair = lambda_n_couette(beta, c, 1, 256)
            assert pair.value >= PI2_4 - 1e-8


def kummer_certifies(value, err, alpha=2 * np.pi / 6.0):
    """beta_T(alpha) lies within err of value: the root in beta of
    M(1 - beta / (2 alpha), 2, 4 alpha) (``tests/test_atlas.py``) is inside the bar."""
    m = [hyp1f1(1 - b / (2 * alpha), 2, 4 * alpha) for b in (value - err, value + err)]
    return m[0] * m[1] < 0


class TestBracketedLadder:
    """Grids 2r and 4r run a certified inverse iteration at the value their coarser grids predict.

    Each grid's value lies within its floor of the grid's eigenvalue on either
    path, so the ladder differs from the whole-spectrum ladder by at most twice
    the floors carried through the tableau.
    """

    CASES = [
        pytest.param(lambda: lambda_n_couette(2.0, -1.5, 1, 128),
                     lambda v, e: oracles.frobenius_certifies(2.0, v, e, c=-1.5), id="regular"),
        pytest.param(lambda: lambda_n_couette(1.0, -2.0, 3, 128),
                     lambda v, e: oracles.frobenius_certifies(1.0, v, e, c=-2.0), id="regular-n3"),
        pytest.param(lambda: lambda_n_couette(-3.0, 1.0, 1, 256),
                     lambda v, e: oracles.frobenius_certifies(3.0, v, e, c=-1.0), id="wall"),
        pytest.param(lambda: wall_beta(2 * np.pi / 6.0, 256), kummer_certifies, id="wall-beta"),
        pytest.param(lambda: lambda_n_general(modified_profile(0.5, 0.02, 1.0), 0.5, 0.0, 2, 512),
                     None, id="modified-n2"),
    ]

    @staticmethod
    def value_and_error(result):
        return tuple(result) if isinstance(result, tuple) else (result.value, result.error_estimate)

    @pytest.mark.parametrize("solve, certifies", CASES)
    def test_matches_full_spectrum_ladder(self, solve, certifies, monkeypatch):
        import betaplane.rayleigh_kuo as rk

        real, seen, grids, full_spectrum = rk.nth_eigenvalue, [], [], []

        def nth_eigenvalue(op, n, near=None):
            seen.append(near)
            grids.append((op.grid.h, eigenvalue_floor(op)))
            return real(op, n, None if full_spectrum else near)

        monkeypatch.setattr(rk, "nth_eigenvalue", nth_eigenvalue)
        value, err = self.value_and_error(solve())
        assert len(seen) == 3
        assert seen[0] is None and None not in seen[1:]
        full_spectrum.append(True)
        full_value, full_err = self.value_and_error(solve())
        assert grids[3:] == grids[:3]
        # the floors through the three-point tableau and through the last two grids'
        (h1, f1), (h2, f2), (h3, f3) = grids[:3]
        carried = extrapolate([(h1, 0.0), (h2, 0.0), (h3, 0.0)], [f1, f2, f3])[1]
        carried_two = (h2**2 * f3 + h3**2 * f2) / (h2**2 - h3**2)
        assert abs(value - full_value) <= 2 * carried
        # the estimate is the last correction plus the carried floors
        assert abs(err - full_err) <= 2 * carried + 2 * carried_two
        if certifies is not None:
            assert certifies(value, err) and certifies(full_value, full_err)
