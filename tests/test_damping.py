import numpy as np
import pytest

from betaplane import damping as dp
from betaplane.errors import ValidationError
from oracles import rk4_evolve_textbook


def small_ensemble(profile="gaussian"):
    # coarser lattice than the default, for unit-test speed
    return dp.ModeEnsemble.from_profile(profile, k_set=(-2, -1, 1, 2), eta_max=10.0, d_eta=0.1)


class TestPhaseClosedForm:
    def test_zero_time(self):
        assert dp.phase_closed_form(1, 0.7, 2.0, 0.0) == 0.0

    def test_zero_beta(self):
        assert dp.phase_closed_form(3, -0.4, 0.0, 11.0) == 0.0

    def test_long_time_limit(self):
        # k=1, eta=0: arctan(0) - arctan(-t) -> pi/2
        assert dp.phase_closed_form(1, 0.0, 1.0, 1e12) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_bounded_by_pi_beta_over_k(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            eta = float(rng.uniform(-10, 10))
            beta = float(rng.uniform(-5, 5))
            t = float(rng.uniform(0, 1e4))
            assert abs(dp.phase_closed_form(k, eta, beta, t)) <= np.pi * abs(beta / k) + 1e-12

    def test_matches_numerical_quadrature(self):
        from scipy.integrate import quad

        k, eta, beta, t = 2, 1.3, 1.5, 7.0
        rate = lambda s: beta * k / (k**2 + (eta - k * s) ** 2)
        ref, _ = quad(rate, 0.0, t, epsabs=1e-13)
        assert dp.phase_closed_form(k, eta, beta, t) == pytest.approx(ref, abs=1e-11)

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(ValidationError, match="zero-wavenumber"):
            dp.phase_closed_form(0, 1.0, 1.0, 1.0)


class TestRK4:
    def test_beta_zero_amplitude_frozen(self):
        st = dp.ModeState(1, 0.5, 0.3 + 0.4j)
        out = dp.evolve_rk4(st, 0.0, 0.0, 5.0, 1e-2)
        assert out.amp == st.amp

    def test_modulus_conserved(self):
        st = dp.ModeState(1, 2.0, 1.0 + 0.0j)
        out = dp.evolve_rk4(st, 1.0, 0.0, 100.0, 1e-2)
        assert abs(abs(out.amp) - 1.0) <= 1e-9

    def test_modulus_drift_budget_long_run(self):
        st = dp.ModeState(1, 10.0, 1.0 + 0.0j)
        out = dp.evolve_rk4(st, 1.0, 0.0, 100.0, 1e-2)
        assert abs(abs(out.amp) - 1.0) <= 1e-8

    def test_order_four(self):
        st = dp.ModeState(1, 0.5, 1.0 + 0.0j)
        target = np.exp(1j * dp.phase_closed_form(1, 0.5, 1.0, 2.0))
        errs = []
        dts = (4e-2, 2e-2, 1e-2, 5e-3)
        for dt in dts:
            out = dp.evolve_rk4(st, 1.0, 0.0, 2.0, dt)
            errs.append(abs(out.amp - target))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 <= slope <= 4.3

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            eta = float(rng.uniform(-5, 5))
            beta = float(rng.uniform(-2, 2))
            st = dp.ModeState(k, eta, 1.0 + 0.0j)
            out = dp.evolve_rk4(st, beta, 0.0, 3.0, 1e-3)
            target = np.exp(1j * dp.phase_closed_form(k, eta, beta, 3.0))
            assert abs(out.amp - target) <= 1e-8

    def test_validation(self):
        st = dp.ModeState(1, 0.0, 1.0 + 0.0j)
        with pytest.raises(ValidationError):
            dp.evolve_rk4(st, 1.0, 0.0, 1.0, -0.1)
        with pytest.raises(ValidationError):
            dp.evolve_rk4(st, 1.0, 1.0, 0.5, 0.1)
        for beta, t0, t1, dt in [(1.0, np.nan, 1.0, 0.1), (1.0, 0.0, np.inf, 0.1),
                                 (1.0, 0.0, 1.0, np.nan), (np.nan, 0.0, 1.0, 0.1)]:
            with pytest.raises(ValidationError, match="finite"):
                dp.evolve_rk4(st, beta, t0, t1, dt)
        with pytest.raises(ValidationError, match="zero-wavenumber"):
            dp.ModeState(0, 1.0, 1.0 + 0.0j)


class TestVelocityNorms:
    def test_single_mode_exact_value(self):
        ens = dp.ModeEnsemble(
            ks=np.array([1]), etas=np.array([0.0]), amps=np.array([1.0 + 0.0j]), d_eta=0.05
        )
        ux, uy = dp.velocity_norms(ens)
        assert uy == pytest.approx(np.sqrt(0.05) * 1.0 / (1.0 + 0.0), rel=1e-15)
        assert ux == 0.0

    def test_single_mode_orr_decay_factor(self):
        ens = dp.ModeEnsemble(
            ks=np.array([1]), etas=np.array([0.0]), amps=np.array([1.0 + 0.0j]), d_eta=0.05
        )
        _, uy0 = dp.velocity_norms(ens)
        ens.t = 10.0
        _, uy10 = dp.velocity_norms(ens)
        assert uy0 / uy10 == pytest.approx(101.0, rel=1e-12)

    def test_depends_on_moduli_only(self, rng):
        ens1 = small_ensemble()
        ens2 = ens1.copy()
        ens2.amps = ens2.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens2.amps.size))
        ens1.t = ens2.t = 17.0
        assert dp.velocity_norms(ens1) == dp.velocity_norms(ens2)

    def test_orr_critical_time(self):
        k, eta = 2, 6.0
        ts = np.linspace(0.0, 10.0, 2001)
        uy = np.abs(k) / (k**2 + (eta - k * ts) ** 2)
        t_star = ts[np.argmax(uy)]
        assert abs(t_star - eta / k) <= ts[1] - ts[0]


class TestExperiment:
    def test_decay_exponents_small_lattice(self):
        ens = small_ensemble()
        table = dp.run_damping_experiment(ens, 1.0, 100.0, dt=5e-3,
                                          sample_times=[0, 5, 10, 20, 40, 70, 100])
        assert -1.3 <= table.metadata["fit_exponent_ux_nonzero"] <= -0.7
        assert -2.3 <= table.metadata["fit_exponent_uy"] <= -1.7

    def test_beta_independence_of_norms(self):
        tables = {}
        for beta in (0.0, 1.0):
            tables[beta] = dp.run_damping_experiment(
                small_ensemble(), beta, 50.0, dt=5e-3, sample_times=[0, 10, 25, 50]
            )
        for r0, r1 in zip(tables[0.0].rows, tables[1.0].rows):
            assert abs(r0[1] - r1[1]) <= 1e-9
            assert abs(r0[2] - r1[2]) <= 1e-9

    def test_beta_zero_run_is_exactly_frozen(self):
        ens = small_ensemble()
        table = dp.run_damping_experiment(ens, 0.0, 20.0, dt=1e-2, sample_times=[0, 10, 20])
        assert all(row[3] == 0.0 for row in table.rows)

    def test_drift_column_budget(self):
        table = dp.run_damping_experiment(small_ensemble(), 1.0, 100.0, dt=1e-2,
                                          sample_times=[0, 50, 100])
        assert max(row[3] for row in table.rows) <= 1e-8

    def test_bump_profile_exponents(self):
        ens = small_ensemble("bump")
        table = dp.run_damping_experiment(ens, 0.0, 100.0, dt=1e-2,
                                          sample_times=[0, 10, 20, 40, 70, 100])
        assert -1.3 <= table.metadata["fit_exponent_ux_nonzero"] <= -0.7
        assert -2.3 <= table.metadata["fit_exponent_uy"] <= -1.7

    def test_sample_beyond_t_end_rejected(self):
        with pytest.raises(ValidationError):
            dp.run_damping_experiment(small_ensemble(), 1.0, 10.0, sample_times=[0, 20])

    def test_lattice_symmetric_and_conjugate(self):
        ens = small_ensemble()
        pairs = {(int(k), round(float(e), 9)): a for k, e, a in zip(ens.ks, ens.etas, ens.amps)}
        for (k, e), a in pairs.items():
            assert (-k, -e) in pairs
            assert pairs[(-k, -e)] == np.conj(a)

    def test_zero_wavenumber_excluded(self):
        with pytest.raises(ValidationError, match="zero-wavenumber"):
            dp.ModeEnsemble.from_profile("gaussian", k_set=(0, 1))

    def test_empty_lattice_rejected(self):
        with pytest.raises(ValidationError, match="at least one wavenumber"):
            dp.ModeEnsemble.from_profile("gaussian", k_set=())

    def test_ensemble_without_modes_rejected_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped an empty ensemble")

        monkeypatch.setattr(dp, "_rk4_multiplier", no_step)
        empty = dp.ModeEnsemble(np.array([], dtype=int), np.array([]), np.array([], dtype=complex), 0.05)
        with pytest.raises(ValidationError, match="no modes"):
            dp.run_damping_experiment(empty, 1.0, 1.0, sample_times=[0.0, 1.0])

    @pytest.mark.parametrize("d_eta", [0.0, -0.1, np.nan, np.inf])
    def test_bad_lattice_spacing_rejected(self, d_eta):
        with pytest.raises(ValidationError, match="d_eta"):
            dp.ModeEnsemble.from_profile("gaussian", d_eta=d_eta)

    @pytest.mark.parametrize("eta_max", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lattice_extent_rejected(self, eta_max):
        with pytest.raises(ValidationError, match="eta_max"):
            dp.ModeEnsemble.from_profile("gaussian", eta_max=eta_max)

    @pytest.mark.parametrize("kwargs", [
        {"dt": np.nan}, {"dt": np.inf}, {"t_end": np.nan}, {"t_end": np.inf},
        {"beta": np.nan}, {"sample_times": [0.0, np.nan, 1.0]}, {"sample_times": [0.0, -np.inf]},
    ])
    def test_non_finite_inputs_rejected(self, kwargs):
        args = {"beta": 1.0, "t_end": 2.0, "dt": 1e-2, "sample_times": [0.0, 1.0], **kwargs}
        with pytest.raises(ValidationError, match="finite"):
            dp.run_damping_experiment(small_ensemble(), **args)

    def test_sample_before_ensemble_time_rejected(self):
        with pytest.raises(ValidationError, match="before the ensemble's time"):
            dp.run_damping_experiment(small_ensemble(), 1.0, 1.0, sample_times=[-5, 0, 1])
        ens = small_ensemble()
        ens.t = 2.0
        with pytest.raises(ValidationError, match="before the ensemble's time"):
            dp.run_damping_experiment(ens, 1.0, 3.0, sample_times=[1, 3])
        with pytest.raises(ValidationError, match="before the ensemble's time"):
            dp.run_damping_experiment(small_ensemble(), 1.0, -5.0)

    def test_default_samples_start_at_ensemble_time(self):
        ens = small_ensemble()
        ens.t = 2.0
        table = dp.run_damping_experiment(ens, 1.0, 12.0, dt=1e-2)
        assert [row[0] for row in table.rows] == [2.0, 7.0, 12.0]
        assert table.rows[0][1:3] == dp.velocity_norms(ens)


def assert_experiment_matches_textbook(ens, beta, samples=(0.0, 5.0, 10.0, 20.0, 30.0, 40.0)):
    dt = 5e-3
    table = dp.run_damping_experiment(ens, beta, samples[-1], dt=dt, sample_times=samples)
    amps, t = ens.amps, ens.t
    mod0 = np.abs(amps)
    for ts, row in zip(samples, table.rows):
        if ts > t:
            amps = rk4_evolve_textbook(ens.ks, ens.etas, amps, beta, t, ts, dt)
        t = ts
        ux, uy = dp.velocity_norms(dp.ModeEnsemble(ens.ks, ens.etas, amps, ens.d_eta, ts))
        drift = float(np.max(np.abs(np.abs(amps) - mod0)))
        assert row[0] == ts
        assert row[1] == pytest.approx(ux, rel=1e-13, abs=0.0)
        assert row[2] == pytest.approx(uy, rel=1e-13, abs=0.0)
        assert abs(row[3] - drift) <= 1e-13


class TestRealKernel:
    """The real-arithmetic step against the complex textbook tableau."""

    @pytest.mark.parametrize("beta", [1.7, -1.7])
    def test_experiment_matches_textbook(self, beta):
        assert_experiment_matches_textbook(small_ensemble(), beta)

    def test_unpaired_asymmetric_lattice_matches_textbook(self):
        # k = 2 has no k = -2 partner: its modes are stepped, k = +-1 are paired
        ens = dp.ModeEnsemble.from_profile("gaussian", k_set=(1, 2, -1), eta_max=10.0, d_eta=0.1)
        reps, partners = dp._conjugate_pairs(ens.ks, ens.etas, ens.amps)
        assert reps.size == 201 and set(ens.ks[reps]) | set(ens.ks[partners]) == {-1, 1}
        assert_experiment_matches_textbook(ens, 1.7)

    def test_unpaired_random_phases_match_textbook(self, rng):
        ens = small_ensemble()
        ens.amps = ens.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens.amps.size))
        assert dp._conjugate_pairs(ens.ks, ens.etas, ens.amps)[0].size == 0
        assert_experiment_matches_textbook(ens, -1.7)

    def test_evolve_matches_textbook(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            eta = float(rng.uniform(-10, 10))
            beta = float(rng.uniform(-5, 5))
            t0 = float(rng.uniform(0, 5))
            t1 = t0 + float(rng.uniform(0.5, 3))
            amp = complex(rng.normal(), rng.normal())
            out = dp.evolve_rk4(dp.ModeState(k, eta, amp), beta, t0, t1, 1e-2)
            ref = rk4_evolve_textbook([k], [eta], [amp], beta, t0, t1, 1e-2)[0]
            assert abs(out.amp - ref) <= 1e-13

    def test_multiplier_called_once_per_block(self, monkeypatch):
        sizes = []
        kernel = dp._rk4_multiplier

        def counting(*args, **kwargs):
            sizes.append(len(args[0]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(dp, "_rk4_multiplier", counting)
        ens = small_ensemble()
        dp.run_damping_experiment(ens, 1.0, 2.5, dt=1e-2, sample_times=[0.0, 1.0, 2.5])
        # 100 + 150 steps of one mode per conjugate pair, in blocks of 32768 // 804 = 40 steps
        assert dp._block_steps(ens.amps.size) == 40
        half = ens.amps.size // 2
        assert sizes == [b * half for b in [40, 40, 20] + [40, 40, 40, 30]]
        sizes.clear()
        dp.evolve_rk4(dp.ModeState(1, 0.5, 1.0 + 0.0j), 1.0, 0.0, 3.0, 1e-2)
        assert sizes == [300]  # 300 mode-steps in ceil(300 / 32768) = 1 block

    @pytest.mark.parametrize("modes, block", [(1, 32768), (804, 40), (4806, 6), (40000, 1)])
    def test_block_steps(self, modes, block):
        assert dp._block_steps(modes) == block

    def test_evolve_across_two_blocks_matches_textbook(self):
        st = dp.ModeState(-2, 3.7, 0.6 - 0.8j)
        out = dp.evolve_rk4(st, 1.3, 0.5, 40.5, 1e-3)  # 40000 steps: blocks of 32768 and 7232
        ref = rk4_evolve_textbook([st.k], [st.eta], [st.amp], 1.3, 0.5, 40.5, 1e-3)[0]
        assert abs(out.amp - ref) <= 1e-13

    @pytest.mark.parametrize("profile, beta", [("gaussian", 1.3), ("bump", -2.1)])
    def test_default_lattice_matches_textbook(self, profile, beta):
        # Blocks of 6 steps on the 4806 default modes, against the textbook one
        # step at a time.  Each interval is advanced on its own, so the row at
        # t = 5 is that of a short run and the row at t = 20 that of a long
        # one (4000 steps); the oracle takes about 0.8 s per 20 time units.
        ens = dp.ModeEnsemble.from_profile(profile)
        assert dp._block_steps(ens.amps.size) == 6
        assert_experiment_matches_textbook(ens, beta, (0.0, 5.0, 20.0))


class TestConjugatePairs:
    """One mode per conjugate pair is stepped; the rest are stepped as they are."""

    @pytest.mark.parametrize("beta", [1.7, -1.7, 0.0])
    def test_paired_bitwise_equal_to_full_lattice(self, beta, monkeypatch):
        # the table reads moduli only, so the amplitudes are compared too
        seen = []
        norms = dp.velocity_norms

        def recording(ens):
            seen.append(ens.amps.copy())
            return norms(ens)

        monkeypatch.setattr(dp, "velocity_norms", recording)
        ens = small_ensemble()
        samples = [0.0, 5.0, 12.5, 30.0]
        paired = dp.run_damping_experiment(ens, beta, 30.0, dt=5e-3, sample_times=samples)
        paired_amps, seen[:] = seen[:], []
        none = (np.array([], dtype=int), np.array([], dtype=int))
        monkeypatch.setattr(dp, "_conjugate_pairs", lambda ks, etas, amps: none)
        full = dp.run_damping_experiment(ens, beta, 30.0, dt=5e-3, sample_times=samples)
        assert paired.rows == full.rows
        assert paired.metadata == full.metadata
        assert len(seen) == len(paired_amps) == len(samples)
        for a, b in zip(paired_amps, seen):
            assert np.array_equal(a, b)

    def test_default_lattice_fully_paired(self):
        ens = dp.ModeEnsemble.from_profile("bump")
        reps, partners = dp._conjugate_pairs(ens.ks, ens.etas, ens.amps)
        assert reps.size == ens.amps.size // 2
        assert np.all(reps < partners)
        assert np.array_equal(ens.ks[partners], -ens.ks[reps])
        assert np.array_equal(ens.etas[partners], -ens.etas[reps])
        assert np.array_equal(ens.amps[partners], np.conj(ens.amps[reps]))

    def test_only_exact_unique_mirrors_pair(self):
        ks = np.array([1, -1, 2, -2, 3, -3, -3, 0, 1, -1])
        etas = np.array([0.5, -0.5, np.nan, np.nan, 1.0, -1.0, -1.0, 0.0, 2.0, -2.0])
        amps = np.array([1 + 2j, 1 - 2j, 1, 1, 1, 1, 1, 1, 1j, 1j])
        reps, partners = dp._conjugate_pairs(ks, etas, amps)
        # NaN keys, a shared mirror key, the self-mirror (0, 0) and amplitudes
        # that are not conjugate are all left unpaired
        assert reps.tolist() == [0] and partners.tolist() == [1]
