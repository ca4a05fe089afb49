import decimal

import numpy as np
import pytest

from betaplane import damping as dp
from betaplane.errors import NoConvergenceError, ValidationError
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

    def test_overflow_raises_naming_the_time(self):
        with pytest.raises(NoConvergenceError, match="not finite at sample time t=30;"):
            dp.evolve_rk4(dp.ModeState(1, 0.3, 1), 1000, 0, 30, 1e-2)

    @pytest.mark.parametrize("eta, amp", [(np.nan, 1.0 + 0.0j), (np.inf, 1.0 + 0.0j), (-np.inf, 1.0 + 0.0j),
                                          (0.5, complex(np.nan, 0.0)), (0.5, complex(1.0, np.inf))])
    def test_non_finite_mode_rejected_before_any_step(self, eta, amp, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a non-finite mode")

        monkeypatch.setattr(dp, "_rk4_multiplier", no_step)
        with pytest.raises(ValidationError, match="finite"):
            dp.evolve_rk4(dp.ModeState(1, eta, amp), 1.0, 0.0, 1.0, 1e-2)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_squares_raise_naming_the_time(self):
        ens = dp.ModeEnsemble(
            ks=np.array([1, 2]), etas=np.array([0.0, 1.0]), amps=np.array([1e200, 1.0 + 0.0j]), d_eta=0.05
        )
        ens.t = 5.0
        with pytest.raises(NoConvergenceError, match=r"velocity norms overflow at sample time t=5\.0;"):
            dp.velocity_norms(ens)

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

    def test_zero_wavenumber_mode_rejected_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped a k = 0 mode")

        monkeypatch.setattr(dp, "_rk4_multiplier", no_step)
        ens = dp.ModeEnsemble(np.array([1, 0]), np.array([0.5, 0.5]), np.ones(2, dtype=complex), 0.05)
        with pytest.raises(ValidationError, match="zero-wavenumber"):
            dp.run_damping_experiment(ens, 1.0, 1.0, sample_times=[0.0, 1.0])

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

    @pytest.mark.parametrize("field, value", [("etas", np.nan), ("etas", -np.inf),
                                              ("amps", complex(np.nan, 0.0)), ("amps", complex(0.0, np.inf))])
    def test_non_finite_mode_rejected_before_any_step(self, field, value, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a non-finite mode")

        monkeypatch.setattr(dp, "_rk4_multiplier", no_step)
        ens = small_ensemble()
        getattr(ens, field)[17] = value
        with pytest.raises(ValidationError, match="finite.* at index 17"):
            dp.run_damping_experiment(ens, 1.0, 2.0, dt=1e-2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_amplitudes_overflowing_the_norms_raise(self):
        # dt beta = 7 leaves RK4's stability interval: by t = 5 the amplitudes
        # reach about 5.6e293, finite, but their squares overflow
        ens = dp.ModeEnsemble.from_profile("gaussian")
        with pytest.raises(NoConvergenceError, match=r"velocity norms overflow at sample time t=5\.0;"):
            dp.run_damping_experiment(ens, 700.0, 100.0)

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


def assert_experiment_matches_textbook(ens, beta, samples=(0.0, 5.0, 10.0, 20.0, 30.0, 40.0), dt=5e-3):
    """Check the table row by row; returns the textbook amplitudes at each sample time."""
    table = dp.run_damping_experiment(ens, beta, samples[-1], dt=dt, sample_times=samples)
    amps, t = ens.amps, ens.t
    mod0 = np.abs(amps)
    textbook = []
    for ts, row in zip(samples, table.rows):
        if ts > t:
            amps = rk4_evolve_textbook(ens.ks, ens.etas, amps, beta, t, ts, dt)
        t = ts
        textbook.append(amps)
        ux, uy = dp.velocity_norms(dp.ModeEnsemble(ens.ks, ens.etas, amps, ens.d_eta, ts))
        drift = float(np.max(np.abs(np.abs(amps) - mod0)))
        assert row[0] == ts
        assert row[1] == pytest.approx(ux, rel=1e-13, abs=0.0)
        assert row[2] == pytest.approx(uy, rel=1e-13, abs=0.0)
        assert abs(row[3] - drift) <= 1e-13
    return textbook


def multiplier_sizes(monkeypatch):
    """The list that len(x1) of every later _rk4_multiplier call is appended to."""
    sizes = []
    kernel = dp._rk4_multiplier

    def counting(*args, **kwargs):
        sizes.append(len(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dp, "_rk4_multiplier", counting)
    return sizes


class TestRealKernel:
    """The real-arithmetic step against the complex textbook tableau."""

    @pytest.mark.parametrize("beta", [1.7, -1.7])
    def test_experiment_matches_textbook(self, beta):
        assert_experiment_matches_textbook(small_ensemble(), beta)

    def test_unpaired_asymmetric_lattice_matches_textbook(self):
        # k = 2 has no k = -2 partner: its modes alone read the |k| = 2 sequence
        ens = dp.ModeEnsemble.from_profile("gaussian", k_set=(1, 2, -1), eta_max=10.0, d_eta=0.1)
        assert_experiment_matches_textbook(ens, 1.7)

    def test_unpaired_random_phases_match_textbook(self, rng):
        # mirrored modes share one product, whatever their amplitudes
        ens = small_ensemble()
        ens.amps = ens.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens.amps.size))
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

    @pytest.mark.parametrize("dt", [1e-3, 3e-3], ids=["lattice", "off-lattice"])
    def test_amplitudes_match_textbook(self, dt, rng, monkeypatch):
        # The tables read moduli only, so the phases are checked here.  At dt
        # 1e-3, q = 200 m: each |k| goes in three groups of q range under
        # 16384, each in one piece of the 10000 steps, so no multiplier call
        # holds more than 2 x 16384 terms; one eta a hair off the lattice is a
        # sequence of its own.
        sizes = multiplier_sizes(monkeypatch)
        ens = small_ensemble()
        ens.etas[(ens.ks == -1) & (ens.etas == 0.0)] = 1e-9
        amps = ens.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens.amps.size))
        out = amps.copy()
        dp._advance(out, ens.ks, ens.etas, 1.7, 2.0, 12.0, dt)
        ref = rk4_evolve_textbook(ens.ks, ens.etas, amps, 1.7, 2.0, 12.0, dt)
        assert np.max(np.abs(out - ref)) <= 1e-13
        assert max(sizes) <= 2 * dp.MAX_TERMS

    def test_multiplier_called_once_per_k_and_interval(self, monkeypatch):
        sizes = multiplier_sizes(monkeypatch)
        ens = small_ensemble()
        dp.run_damping_experiment(ens, 1.0, 2.5, dt=1e-2, sample_times=[0.0, 1.0, 2.5])
        # etas 0.1 m = g q with g = step/2 = 0.005, so q = 20 m spans 4001 values and
        # every window start 2000 - q is one residue class mod 2|k|, 0: per |k| and
        # interval the multiplier is evaluated at the 4000 / 2|k| + n class steps
        assert sizes == [2100, 1100, 2150, 1150]
        sizes.clear()
        dp.evolve_rk4(dp.ModeState(1, 0.5, 1.0 + 0.0j), 1.0, 0.0, 3.0, 1e-2)
        assert sizes == [300]  # a single mode is a sequence of its own: 300 steps in one piece

    def test_evolve_across_two_blocks_matches_textbook(self):
        st = dp.ModeState(-2, 3.7, 0.6 - 0.8j)
        out = dp.evolve_rk4(st, 1.3, 0.5, 40.5, 1e-3)  # 40000 steps: pieces of 16384, 16384 and 7232
        ref = rk4_evolve_textbook([st.k], [st.eta], [st.amp], 1.3, 0.5, 40.5, 1e-3)[0]
        assert abs(out.amp - ref) <= 1e-13

    @pytest.mark.parametrize("profile, beta", [("gaussian", 1.3), ("bump", -2.1)])
    def test_default_lattice_matches_textbook(self, profile, beta, monkeypatch):
        # One multiplier sequence per residue class and interval, against the
        # textbook one step at a time.  q = 20 m spans 16001 values, so the
        # window starts 16000 - q (0, 20, .., 16000) are one class for |k| = 1
        # and 2, 8000 and 4000 class steps from first to last, and three for
        # |k| = 3 (20 m mod 6 in {0, 2, 4}, starts 60 apart), 2660 class steps
        # each.  The two intervals differ in length (1000 and 3000 steps), so
        # neither shares the other's sequences: each has a plan and one call
        # per class, one piece each; the oracle takes about 0.8 s per 20 time
        # units.
        sizes = multiplier_sizes(monkeypatch)
        ens = dp.ModeEnsemble.from_profile(profile)
        assert_experiment_matches_textbook(ens, beta, (0.0, 5.0, 20.0))
        assert sizes == [8000 + 1000, 4000 + 1000] + 3 * [2660 + 1000] + \
            [8000 + 3000, 4000 + 3000] + 3 * [2660 + 3000]


class TestResidueClasses:
    """Lattice windows go one sequence per residue class of their starts mod 2|k|."""

    @staticmethod
    def windows(monkeypatch):
        """The list that (len(m), n, starts, stride) of every later _window_products call is appended to."""
        calls = []
        products = dp._window_products

        def recording(m, n, starts, stride, prod):
            calls.append((len(m), n, starts.copy(), stride))
            return products(m, n, starts, stride, prod)

        monkeypatch.setattr(dp, "_window_products", recording)
        return calls

    @pytest.mark.parametrize("dt, samples", [
        (5e-3, [0.0, 5.0, 20.0]), (1e-2, [0.0, 5.0, 20.0]), (1e-3, [0.0, 2.74]),
        (5e-3, [5.0 * i for i in range(21)]),
    ], ids=["0.005", "0.01", "0.001", "0.005-shared"])
    def test_every_multiplier_is_read(self, dt, samples, monkeypatch):
        # on the default lattice; at dt 1e-3 one interval of 2740 steps, which
        # every class takes in one piece; the default experiment's 20 equal
        # intervals go 16 and 4 to a sequence
        calls = self.windows(monkeypatch)
        dp.run_damping_experiment(dp.ModeEnsemble.from_profile("gaussian"), 1.3, samples[-1], dt=dt,
                                  sample_times=samples)
        assert len(calls) >= 10
        for size, n, starts, stride in calls:
            read = np.zeros(size, dtype=bool)
            for i in starts:
                read[i : i + n * stride : stride] = True
            assert read.all()

    @staticmethod
    def strided_products(k, q, beta, t0, step, n):
        """Windows of stride 2k over one sequence of every step start (the unsplit scheme)."""
        top = q.max()
        starts = (top - q).astype(np.int64)
        piece = dp.MAX_TERMS
        prod = np.ones(q.size, dtype=complex)
        for j0 in range(0, n, piece):
            b = min(piece, n - j0)
            size = int(starts.max()) + 1 + 2 * k * (b - 1)
            x = np.multiply(top - np.arange(size + 2 * k), step / (2 * k))
            dp._rates(np.subtract(x, t0 + j0 * step, x), step * beta / k, x)
            m = dp._rk4_multiplier(x[:size], x[k : size + k], x[2 * k :], np.empty((3, size)),
                                   np.empty(size, dtype=complex))
            offset, level = 0, m
            for bit in range(b.bit_length()):
                if bit:
                    level = level[: -(2 * k << (bit - 1))] * level[2 * k << (bit - 1) :]
                if b >> bit & 1:
                    prod *= level[starts + offset]
                    offset += 2 * k << bit
        return prod

    @pytest.mark.parametrize("k, n", [(1, 7), (2, 100), (3, 1000), (3, 3000), (5, 2000), (2, 20000)])
    def test_class_products_bitwise_equal_to_strided_windows(self, k, n):
        # (2, 20000) takes two pieces, of 16384 and 3616 steps
        rng = np.random.default_rng(10 * k + n)
        q = np.unique(rng.integers(-3000, 3000, 400)).astype(float)
        beta, t0, step = 1.7, 2.5, 5e-3
        classes = dp._residue_classes(k, np.arange(q.size), q)
        assert len(classes) == len(np.unique((q.max() - q) % (2 * k)))
        prod = np.empty(q.size, dtype=complex)
        for kk, p, starts, idx, inverse in classes:
            assert kk.size == p.size == 1
            prod[idx] = dp._sequence_products(kk, p, starts, beta, t0, step, n)[inverse]
        reference = self.strided_products(k, q, beta, t0, step, n)
        assert np.array_equal(prod.view(np.uint64), reference.view(np.uint64))

    def test_plan_built_once_per_distinct_interval(self, monkeypatch):
        built = []
        plan = dp._plan

        def counting(k, eta, n, step):
            built.append((n, step))
            return plan(k, eta, n, step)

        monkeypatch.setattr(dp, "_plan", counting)
        dp.run_damping_experiment(small_ensemble(), 1.0, 20.0, dt=1e-2)  # samples 0, 5, .., 20
        assert built == [(500, 1e-2)]
        built.clear()
        dp.run_damping_experiment(small_ensemble(), 1.0, 4.0, dt=1e-2,
                                  sample_times=[0.0, 1.0, 2.0, 3.0, 3.5, 4.0])
        assert built == [(100, 1e-2), (50, 1e-2)]
        built.clear()
        dp.evolve_rk4(dp.ModeState(1, 0.5, 1.0 + 0.0j), 1.0, 0.0, 3.0, 1e-2)
        assert built == [(300, 1e-2)]


def recorded_amplitudes(monkeypatch):
    """The list that a copy of the amplitudes at every later sample time is appended to."""
    seen = []
    norms = dp.velocity_norms

    def recording(ens):
        seen.append(ens.amps.copy())
        return norms(ens)

    monkeypatch.setattr(dp, "velocity_norms", recording)
    return seen


class TestSharedSequences:
    """Consecutive intervals of one (n, step) read one multiplier sequence per batch."""

    @staticmethod
    def assert_amplitudes_match_textbook(ens, beta, samples, dt, monkeypatch):
        # the tables read moduli only, so the phases are checked on the amplitudes
        seen = recorded_amplitudes(monkeypatch)
        textbook = assert_experiment_matches_textbook(ens, beta, samples, dt=dt)
        assert len(seen) == 2 * len(samples)  # the experiment's norms, then the oracle's
        for got, amps in zip(seen, textbook):
            assert np.max(np.abs(got - amps)) <= 1e-13

    @staticmethod
    def sequence_calls(monkeypatch):
        """The list that (k, starts, t0, n) of every later _sequence_products call is appended to."""
        calls = []
        products = dp._sequence_products

        def recording(k, p, starts, beta, t0, step, n):
            calls.append((k.copy(), starts.copy(), t0, n))
            return products(k, p, starts, beta, t0, step, n)

        monkeypatch.setattr(dp, "_sequence_products", recording)
        return calls

    def test_default_experiment_counts(self, monkeypatch):
        # 20 intervals of 1000 steps: each class takes 16384 // 1000 = 16 of
        # them from one sequence and the last 4 from another, at
        # (class start range) + 1000 per interval taken; one interval at a time
        # made 20 x (9000 + 5000 + 3 x 3660) = 499,600
        sizes = multiplier_sizes(monkeypatch)
        dp.run_damping_experiment(dp.ModeEnsemble.from_profile("gaussian"), 1.3, 100.0, dt=5e-3)
        ranges = [8000, 4000] + 3 * [2660]
        assert sizes == [r + 16000 for r in ranges] + [r + 4000 for r in ranges]
        assert sum(sizes) == 139960
        assert all(size <= r + dp.MAX_TERMS for size, r in zip(sizes, 2 * ranges))

    def test_cap_splits_a_run(self, rng, monkeypatch):
        # At dt 1e-3, q = 200 m: each |k| goes in three groups of q range under
        # 16384, one class each, with at most 82 windows.  An interval is 5000
        # steps, so a class takes 16384 // 5000 = 3 intervals to a call: the
        # four intervals go 3 and 1, from t0 = 0 and 15.
        calls = self.sequence_calls(monkeypatch)
        sizes = multiplier_sizes(monkeypatch)
        ens = small_ensemble()
        ens.amps = ens.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens.amps.size))
        self.assert_amplitudes_match_textbook(ens, 1.7, (0.0, 5.0, 10.0, 15.0, 20.0), 1e-3, monkeypatch)
        assert len(calls) == 2 * 6
        assert [t0 for _, _, t0, _ in calls] == 6 * [0.0] + 6 * [15.0]
        for k, starts, t0, n in calls:
            assert n == 5000
            if t0 == 0.0:  # three intervals: the first one's windows, then 5000 and 10000 steps on
                first = starts[: starts.size // 3]
                assert np.array_equal(starts, np.concatenate([first, first + 5000, first + 10000]))
            else:
                first = starts
            assert first.size <= 82
        assert max(sizes) <= dp.MAX_TERMS // 2 + dp.MAX_TERMS  # a start range is under 16384 / 2|k| steps

    def test_equal_run_then_another_length(self, rng, monkeypatch):
        # three intervals of 100 steps share one call per class; the last, of
        # 150 steps, has a plan and sequences of its own
        calls = self.sequence_calls(monkeypatch)
        ens = small_ensemble()
        ens.amps = ens.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens.amps.size))
        self.assert_amplitudes_match_textbook(ens, -1.7, (0.0, 1.0, 2.0, 3.0, 4.5), 1e-2, monkeypatch)
        assert [(t0, n) for _, _, t0, n in calls] == 2 * [(0.0, 100)] + 2 * [(3.0, 150)]
        assert [starts.size for _, starts, _, _ in calls[:2]] == [3 * 201, 3 * 201]  # 201 windows a class

    def test_repeated_sample_times(self, rng, monkeypatch):
        # a repeated time adds a row and no step, and does not split the run
        calls = self.sequence_calls(monkeypatch)
        ens = small_ensemble()
        ens.amps = ens.amps * np.exp(1j * rng.uniform(0, 2 * np.pi, ens.amps.size))
        samples = (0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0)
        self.assert_amplitudes_match_textbook(ens, 1.7, samples, 1e-2, monkeypatch)
        assert [(t0, n) for _, _, t0, n in calls] == 2 * [(0.0, 100)]
        table = dp.run_damping_experiment(ens, 1.7, 3.0, dt=1e-2, sample_times=samples)
        assert [row[0] for row in table.rows] == list(samples)
        assert table.rows[0] == table.rows[1] and table.rows[2] == table.rows[3]
        assert table.rows[5] == table.rows[6]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_run_names_the_first_time(self):
        # dt beta = 10 leaves RK4's stability interval: the 20 intervals of 500
        # steps come from one call per class, and the products overflow by t = 5
        with pytest.raises(NoConvergenceError, match="not finite at sample time t=5.0;"):
            dp.run_damping_experiment(dp.ModeEnsemble.from_profile("gaussian"), 1000.0, 100.0, dt=1e-2)


class TestConjugatePairs:
    """A mode (-k, -eta) takes the conjugate of the product of (k, eta)."""

    @pytest.mark.parametrize("beta", [1.7, -1.7, 0.0])
    def test_paired_bitwise_equal_to_full_lattice(self, beta, monkeypatch):
        # the table reads moduli only, so the amplitudes are compared: the k > 0
        # half advanced alone, the full lattice's k > 0 modes and the conjugates
        # of its k < 0 modes are the same numbers
        seen = []
        norms = dp.velocity_norms

        def recording(ens):
            seen.append(ens.amps.copy())
            return norms(ens)

        monkeypatch.setattr(dp, "velocity_norms", recording)
        full = small_ensemble()
        right = full.ks > 0
        half = dp.ModeEnsemble(full.ks[right], full.etas[right], full.amps[right], full.d_eta)
        samples = [0.0, 5.0, 12.5, 30.0]
        dp.run_damping_experiment(full, beta, 30.0, dt=5e-3, sample_times=samples)
        full_amps, seen[:] = seen[:], []
        dp.run_damping_experiment(half, beta, 30.0, dt=5e-3, sample_times=samples)
        assert len(seen) == len(full_amps) == len(samples)
        for a, b in zip(full_amps, seen):
            assert np.array_equal(a[right], b)
            assert np.array_equal(a[::-1], np.conj(a))
            if beta == 0.0:
                assert np.array_equal(a, full.amps)  # frozen exactly

    @pytest.mark.parametrize("dt", [1e-2, 3e-3], ids=["lattice", "off-lattice"])
    def test_mirror_product_is_conjugate(self, dt, rng):
        ens = small_ensemble()
        products = np.ones(ens.amps.size, dtype=complex)
        dp._advance(products, ens.ks, ens.etas, 1.7, 0.5, 3.0, dt)
        assert np.array_equal(products[::-1], np.conj(products))
        amps = rng.normal(size=ens.amps.size) + 1j * rng.normal(size=ens.amps.size)
        out = amps.copy()
        dp._advance(out, ens.ks, ens.etas, 1.7, 0.5, 3.0, dt)
        assert np.array_equal(out, amps * products)

    def test_shared_and_nan_keys(self):
        ks = np.array([1, -1, 3, -3, -3, 2, -2])
        etas = np.array([0.5, -0.5, 1.0, -1.0, -1.0, np.nan, np.nan])
        products = np.ones(ks.size, dtype=complex)
        dp._advance(products, ks, etas, 1.7, 0.0, 2.5, 1e-2)
        assert products[1] == np.conj(products[0])
        assert products[3] == products[4] == np.conj(products[2])
        assert np.all(np.isfinite(products[:5])) and np.all(np.isnan(products[5:]))

    def test_default_lattice_fully_paired(self):
        # the mirror (-k, -eta) of mode i is mode size - 1 - i, with the conjugate amplitude
        ens = dp.ModeEnsemble.from_profile("bump")
        assert np.array_equal(ens.ks[::-1], -ens.ks)
        assert np.array_equal(ens.etas[::-1], -ens.etas)
        assert np.array_equal(ens.amps[::-1], np.conj(ens.amps))


class TestOffLattice:
    """Etas that are not multiples of step/2 go key by key, each key a sequence of its own."""

    @staticmethod
    def own_sequences(monkeypatch, ens, intervals):
        """Check, after the run, that each interval went as one batch of start-0 sequences, one per key."""
        calls = []
        products = dp._sequence_products

        def recording(k, p, starts, *args):
            calls.append((k.copy(), starts.copy()))
            return products(k, p, starts, *args)

        monkeypatch.setattr(dp, "_sequence_products", recording)
        keys = np.unique(np.abs(ens.ks) + 1j * np.where(ens.ks < 0, -ens.etas, ens.etas))

        def check():
            assert len(calls) == intervals
            for k, starts in calls:
                assert np.array_equal(k, keys.real)
                assert np.array_equal(starts, np.arange(keys.size))

        return check

    def test_default_lattice_at_dt_3e_3(self, monkeypatch):
        # eta / g = 33.34 m: only the etas that are multiples of 2.5 lie on the
        # lattice, too sparse to pay for its sequence
        ens = dp.ModeEnsemble.from_profile("gaussian")
        check = self.own_sequences(monkeypatch, ens, 1)
        assert_experiment_matches_textbook(ens, 1.3, (0.0, 5.0), dt=3e-3)
        check()

    def test_odd_sample_times(self, monkeypatch):
        ens = small_ensemble()
        check = self.own_sequences(monkeypatch, ens, 2)
        assert_experiment_matches_textbook(ens, -1.7, (0.0, 1.0 / 3.0, 2.9))
        check()

    def test_random_etas(self, monkeypatch):
        ens = small_ensemble()
        ens.etas = np.random.default_rng(41).uniform(-10.0, 10.0, ens.etas.size)
        check = self.own_sequences(monkeypatch, ens, 2)
        assert_experiment_matches_textbook(ens, 1.7, (0.0, 5.0, 20.0))
        check()

    def test_asymmetric_lattice_at_dt_3e_3(self):
        # From t = 5 on, g = 0.0015 and the etas 0.3 j lie on the lattice while
        # the others are keys of their own: both kinds of batch advance one interval
        ens = dp.ModeEnsemble.from_profile("gaussian", k_set=(1, 2, -1), eta_max=10.0, d_eta=0.1)
        assert_experiment_matches_textbook(ens, 1.7, (0.0, 5.0, 20.0), dt=3e-3)


class TestWindowProducts:
    """The doubling window product against the sequential product of the same terms.

    Every one of the n - 1 products rounds, so only (n - 1) sqrt(5)/2 ulps is
    guaranteed; on random phases the roundings cancel, and for these lengths
    a product stays within a few (here 3) log2(n) ulps of the exact one.
    """

    @staticmethod
    def error(product, terms):
        """|product - prod(terms)|, the reference product carried to 40 digits."""
        with decimal.localcontext(decimal.Context(prec=40)):
            re, im = decimal.Decimal(1), decimal.Decimal(0)
            for z in terms:
                a, b = decimal.Decimal(z.real), decimal.Decimal(z.imag)
                re, im = re * a - im * b, re * b + im * a
            return abs(complex(float(decimal.Decimal(product.real) - re),
                               float(decimal.Decimal(product.imag) - im)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1000, 6000])
    def test_matches_sequential_product(self, n):
        rng = np.random.default_rng(n)
        m = np.exp(1j * rng.uniform(-np.pi, np.pi, n + 5))
        starts = np.array([0, 4])
        products = dp._window_products(m, n, starts, 1, np.ones(starts.size, dtype=complex))
        if n == 1:
            assert np.array_equal(products, m[starts])
            return
        for start, product in zip(starts, products):
            terms = m[start : start + n]
            assert self.error(product, terms) <= 3 * np.log2(n) * np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1000, 6000])
    def test_tree_matches_sequential_product(self, n):
        # stride 2: the rows of two interleaved columns, as a batch of two
        # sequences holds its steps, each column one window from step 0
        terms = np.exp(1j * np.random.default_rng(n).uniform(-np.pi, np.pi, (n, 2)))
        products = dp._window_products(terms.reshape(-1), n, np.arange(2), 2, np.ones(2, dtype=complex))
        if n == 1:
            assert np.array_equal(products, terms[0])
            return
        for column, product in zip(terms.T, products):
            assert self.error(product, column) <= 3 * np.log2(n) * np.finfo(float).eps

    @pytest.mark.parametrize("n", [3, 7, 1000])
    def test_independent_of_where_the_sequence_starts(self, n):
        rng = np.random.default_rng(n)
        terms = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        results = []
        for pad in (0, 1, 6, 13):
            m = np.exp(1j * rng.uniform(-np.pi, np.pi, pad + n + 5))
            m[pad : pad + n] = terms
            results.append(dp._window_products(m, n, np.array([pad]), 1, np.ones(1, dtype=complex))[0])
        assert all(r == results[0] for r in results)
