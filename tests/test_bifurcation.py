from dataclasses import replace

import numpy as np
import pytest

import oracles
from betaplane import atlas, bifurcation as bif
from betaplane import modified_flow as mf
from betaplane import rayleigh_kuo as rk
from betaplane.errors import PositiveEigenvalueError, ValidationError
from betaplane.rayleigh_kuo import couette, scaled_couette

KAPPAS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


@pytest.fixture(scope="module")
def modified_base():
    params = mf.ModifiedFlowParams(2.0, 0.02, 0.0)
    return mf.profile(params), 2.0, 0.0  # profile, beta, c


def fake_phi(grid):
    y = grid.nodes
    phi = np.sin(np.pi * (y + 1) / 2) + 0.3 * np.sin(np.pi * (y + 1))
    return phi / np.linalg.norm(phi)


class TestConstruct:
    def test_zero_amplitude_is_shear(self, modified_base):
        prof, beta, c = modified_base
        wave = bif.construct(prof, beta, c, 0.0, resolution=256)
        _, _, _, v2d = oracles.wave_fields(wave, 32)
        assert np.all(v2d == 0.0)

    def test_velocity_amplitude_scaling(self, modified_base):
        prof, beta, c = modified_base
        kappa = 1e-3
        wave = bif.construct(prof, beta, c, kappa, resolution=256)
        _, _, _, v2d = oracles.wave_fields(wave, 256)
        expected = wave.alpha0 * kappa * np.max(np.abs(wave.phi0))
        assert np.max(np.abs(v2d)) == pytest.approx(expected, rel=1e-3)
        assert np.max(np.abs(v2d)) > 0

    def test_positive_eigenvalue_rejected(self):
        prof = mf.profile(mf.ModifiedFlowParams(0.5, 0.02, 0.0))
        with pytest.raises(PositiveEigenvalueError):
            bif.construct(prof, 0.5, 0.0, 1e-3, resolution=256)

    def test_amplitude_cap(self, modified_base):
        prof, beta, c = modified_base
        with pytest.raises(ValidationError):
            bif.construct(prof, beta, c, 0.2, resolution=256)

    def test_nan_amplitude_rejected(self, modified_base):
        prof, beta, c = modified_base
        with pytest.raises(ValidationError, match="kappa"):
            bif.construct(prof, beta, c, np.nan, resolution=256)

    def test_override_builds_no_eigenvector(self, modified_base, monkeypatch):
        prof, beta, c = modified_base
        grid = bif.construct(prof, beta, c, 1e-3, resolution=256).grid
        bif._principal_pair.cache_clear()  # the override construct must solve afresh
        calls = []
        real = rk.eigenvector

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rk, "eigenvector", counted)
        wave = bif.construct(prof, beta, c, 1e-3, resolution=256, phi_override=fake_phi(grid))
        assert calls == []
        assert np.array_equal(wave.phi0, fake_phi(grid))
        with pytest.raises(ValidationError, match="phi_override must match the eigenvector grid"):
            bif.construct(prof, beta, c, 1e-3, resolution=256, phi_override=fake_phi(grid)[:-1])
        assert calls == []

    def test_scaled_couette_alpha_matches_inversion(self, beta_star):
        beta = 2 * beta_star
        alpha_b, alpha_err = atlas.alpha_beta(beta)
        a = 0.9
        c_a = atlas.speed_for_eigenvalue(beta / a, -alpha_b**2, tol=1e-7)
        wave = bif.construct(scaled_couette(a), beta, a * c_a, 1e-3, resolution=256)
        assert wave.alpha0 == pytest.approx(alpha_b, abs=max(1e-5, 10 * alpha_err))


class TestResidual:
    def test_zero_amplitude_zero_residual(self, modified_base):
        prof, beta, c = modified_base
        wave = bif.construct(prof, beta, c, 0.0, resolution=256)
        assert bif.residual_norm(wave, beta) <= 1e-14

    def test_quadratic_scaling_modified_flow(self, modified_base):
        prof, beta, c = modified_base
        rows = []
        for kappa in KAPPAS:
            wave = bif.construct(prof, beta, c, kappa, resolution=512)
            rows.append((kappa, bif.residual_norm(wave, beta)))
        slope = bif.residual_slope(rows)
        assert 1.8 <= slope <= 2.2
        # halving kappa cuts the residual by about four
        assert rows[1][1] / rows[0][1] == pytest.approx(0.25, abs=0.05)

    def test_negative_amplitudes_fit_against_abs_kappa(self, modified_base):
        prof, beta, c = modified_base
        base = bif.construct(prof, beta, c, KAPPAS[0], resolution=256)
        rows = [(k, bif.residual_norm(replace(base, kappa=k), beta)) for k in KAPPAS]
        mixed = [(-k if i % 2 == 0 else k, r) for i, (k, r) in enumerate(rows)]
        assert bif.residual_norm(replace(base, kappa=-KAPPAS[1]), beta) == rows[1][1]
        assert bif.residual_slope(mixed) == bif.residual_slope(rows)

    @pytest.mark.parametrize("kappas", [(1e-2, 1e-2), (1e-2, -1e-2)])
    def test_slope_needs_two_distinct_amplitudes(self, kappas):
        with pytest.raises(ValidationError, match="distinct"):
            bif.residual_slope([(k, 5.5e-3) for k in kappas])

    def test_random_phi_negative_control(self, modified_base):
        prof, beta, c = modified_base
        wave0 = bif.construct(prof, beta, c, 1e-3, resolution=512)
        phi = fake_phi(wave0.grid)
        rows = []
        for kappa in KAPPAS:
            wave = bif.construct(prof, beta, c, kappa, resolution=512, phi_override=phi)
            rows.append((kappa, bif.residual_norm(wave, beta)))
        slope = bif.residual_slope(rows)
        assert 0.8 <= slope <= 1.2

    def test_incompressibility(self, modified_base):
        prof, beta, c = modified_base
        wave = bif.construct(prof, beta, c, 5e-3, resolution=256)
        assert oracles.divergence_max(wave) <= 1e-10

    def test_wall_boundary_condition(self, modified_base):
        prof, beta, c = modified_base
        wave = bif.construct(prof, beta, c, 5e-3, resolution=256)
        assert oracles.boundary_velocity_max(wave) <= 1e-12


class TestPairMemo:
    """A ladder's waves share one principal pair per (profile, beta, c, resolution)."""

    @staticmethod
    def count(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def ladder(prof, beta, c, resolution):
        """Each kappa's wave and its non-eigenfunction control, as the benchmark builds them."""
        waves = []
        for kappa in KAPPAS:
            wave = bif.construct(prof, beta, c, kappa, resolution=resolution)
            phi = fake_phi(wave.grid)
            ctrl = bif.construct(prof, beta, c, kappa, resolution=resolution, phi_override=phi)
            waves += [wave, ctrl]
        return waves

    def test_ladder_solves_once(self, monkeypatch):
        prof = mf.profile(mf.ModifiedFlowParams(2.0, 0.02, 0.0))
        solves = self.count(monkeypatch, bif, "lambda_n_general")
        vectors = self.count(monkeypatch, rk, "eigenvector")
        self.ladder(prof, 2.0, 0.0, 256)
        assert len(solves) == 1
        assert len(vectors) == 1

    def test_waves_bitwise_equal_to_fresh_solves(self):
        prof = mf.profile(mf.ModifiedFlowParams(2.0, 0.02, 0.0))
        waves = self.ladder(prof, 2.0, 0.0, 256)
        for i, wave in enumerate(waves):
            bif._principal_pair.cache_clear()
            override = wave.phi0 if i % 2 else None  # the controls carry their override
            fresh = bif.construct(prof, 2.0, 0.0, wave.kappa, resolution=256,
                                  phi_override=override)
            assert (fresh.alpha0, fresh.lambda1) == (wave.alpha0, wave.lambda1)
            assert np.array_equal(fresh.phi0, wave.phi0)
            assert np.array_equal(fresh.grid.nodes, wave.grid.nodes)
            assert bif.residual_norm(fresh, 2.0) == bif.residual_norm(wave, 2.0)

    def test_key_change_solves_again(self, monkeypatch):
        solves = self.count(monkeypatch, bif, "lambda_n_general")
        prof, twin = scaled_couette(0.9), scaled_couette(0.9)
        keys = [  # each key differs from the one before in one entry
            (prof, 4.0, -0.95, 128),
            (prof, 4.0, -0.95, 256),
            (prof, 4.5, -0.95, 256),
            (prof, 4.5, -0.96, 256),
            (twin, 4.5, -0.96, 256),  # same parameters, a new object
        ]
        for p, beta, c, resolution in keys:
            wave = bif.construct(p, beta, c, 1e-3, resolution=resolution)
            assert wave.grid.n_interior == 4 * resolution
        assert solves == [(p, beta, c, 1, resolution) for p, beta, c, resolution in keys]
        bif.construct(twin, 4.5, -0.96, 5e-3, resolution=256)
        assert len(solves) == len(keys)

    def test_positive_eigenvalue_raised_on_every_call(self, monkeypatch):
        solves = self.count(monkeypatch, bif, "lambda_n_general")
        prof = mf.profile(mf.ModifiedFlowParams(0.5, 0.02, 0.0))
        for _ in range(2):
            with pytest.raises(PositiveEigenvalueError, match="no bifurcation point"):
                bif.construct(prof, 0.5, 0.0, 1e-3, resolution=256)
        with pytest.raises(PositiveEigenvalueError) as info:
            bif.period_estimate(prof, 0.5, 0.0, resolution=256)
        assert "no bifurcation point" not in str(info.value)
        assert len(solves) == 1

    def test_period_and_construct_share_a_solve(self, monkeypatch):
        solves = self.count(monkeypatch, bif, "lambda_n_general")
        prof = mf.profile(mf.ModifiedFlowParams(2.0, 0.02, 0.0))
        est = bif.period_estimate(prof, 2.0, 0.0, resolution=256)
        wave = bif.construct(prof, 2.0, 0.0, 1e-3, resolution=256)
        assert est == wave.period
        assert len(solves) == 1

    def test_shared_eigenfunction_is_read_only(self, monkeypatch):
        vectors = self.count(monkeypatch, rk, "eigenvector")
        prof = mf.profile(mf.ModifiedFlowParams(2.0, 0.02, 0.0))
        wave = bif.construct(prof, 2.0, 0.0, 1e-3, resolution=256)
        before = wave.phi0.copy()
        with pytest.raises(ValueError, match="read-only"):
            wave.phi0[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            wave.phi0 *= 2.0
        again = bif.construct(prof, 2.0, 0.0, 5e-3, resolution=256)
        assert again.phi0 is wave.phi0
        assert np.array_equal(again.phi0, before)
        same = bif.construct(prof, 2.0, 0.0, 1e-3, resolution=256)
        assert same.phi0 is wave.phi0
        assert len(vectors) == 1


@pytest.fixture(scope="module")
def scaled_couette_base(beta_star):
    beta = 2 * beta_star
    alpha_b, _ = atlas.alpha_beta(beta)
    a = 0.9
    c_a = atlas.speed_for_eigenvalue(beta / a, -alpha_b**2, tol=1e-7)
    return scaled_couette(a), beta, a * c_a


class TestResidualReference:
    """The closed form over the x-harmonics against the x-y grid reference."""

    @staticmethod
    def check(wave, beta):
        ref = oracles.grid_residual_norm(wave, beta)
        assert abs(bif.residual_norm(wave, beta) - ref) <= 1e-9 * ref + 1e-14

    @pytest.mark.parametrize("kappa", (0.0,) + KAPPAS)
    def test_eigenfunction_modified_base(self, modified_base, kappa):
        prof, beta, c = modified_base
        self.check(bif.construct(prof, beta, c, kappa, resolution=512), beta)

    @pytest.mark.parametrize("kappa", (0.0,) + KAPPAS)
    def test_fake_phi_modified_base(self, modified_base, kappa):
        prof, beta, c = modified_base
        grid = bif.construct(prof, beta, c, 0.0, resolution=512).grid
        wave = bif.construct(prof, beta, c, kappa, resolution=512, phi_override=fake_phi(grid))
        self.check(wave, beta)

    @pytest.mark.parametrize("kappa", (0.0,) + KAPPAS)
    def test_eigenfunction_scaled_couette(self, scaled_couette_base, kappa):
        prof, beta, c = scaled_couette_base
        self.check(bif.construct(prof, beta, c, kappa, resolution=256), beta)


class TestPeriod:
    def test_reciprocal_of_alpha(self, modified_base):
        prof, beta, c = modified_base
        wave = bif.construct(prof, beta, c, 1e-3, resolution=256)
        assert wave.period == pytest.approx(2 * np.pi / wave.alpha0)

    def test_explicit_eigenvalue(self, modified_base):
        prof, beta, c = modified_base
        est = bif.period_estimate(prof, beta, c, resolution=256)
        lam = bif.lambda_n_general(prof, beta, c, 1, 256).value
        assert est == pytest.approx(2 * np.pi / np.sqrt(-lam))

    def test_compose_with_beta_T(self):
        T = 4.0
        bt = atlas.beta_T(T)
        est = bif.period_estimate(couette(), bt, -1.0)
        assert est == pytest.approx(T, abs=1e-3)

    def test_positive_eigenvalue_rejected(self):
        with pytest.raises(PositiveEigenvalueError):
            bif.period_estimate(couette(), 0.5, -1.0)

    def test_scaled_couette_endpoint(self):
        a, T = 0.9, 4.0
        prof, beta = scaled_couette(a), a * atlas.beta_T(T)
        est = bif.period_estimate(prof, beta, -a)
        wave = bif.construct(prof, beta, -a, 1e-3, resolution=256)
        assert est == wave.period
        assert est == pytest.approx(T, abs=1e-3)

    def test_wave_speed_limit_monotone(self, beta_star):
        beta = 2 * beta_star
        alpha_b, _ = atlas.alpha_beta(beta)
        gaps = []
        for a in (0.9, 0.95, 0.99):
            c_a = atlas.speed_for_eigenvalue(beta / a, -alpha_b**2, tol=1e-7)
            assert a * c_a < -a
            gaps.append(abs(a * c_a + 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
