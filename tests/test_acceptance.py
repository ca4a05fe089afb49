"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or look at the assertion)
and asserts the criterion exactly as stated.  The one shared quantity,
beta*, comes from a session fixture and is memoized inside the library, so
order does not matter.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from betaplane import atlas, bifurcation as bif, damping as dp, modified_flow as mf
from betaplane.rayleigh_kuo import lambda_n_couette, scaled_couette

PI2_4 = np.pi**2 / 4
RUN = [sys.executable, "-m", "betaplane"]


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_couette_baseline():
    worst = 0.0
    times = []
    t0 = time.monotonic()
    lam = lambda_n_couette(0.0, -1.0).value
    times.append(time.monotonic() - t0)
    worst = max(worst, abs(lam - PI2_4))
    for c in (-2.0, -5.0, -50.0):
        t0 = time.monotonic()
        lam = lambda_n_couette(0.0, c, 1, 256).value
        times.append(time.monotonic() - t0)
        worst = max(worst, abs(lam - PI2_4))
    ok = worst <= 1e-5 and max(times) < 5.0
    report("1", ok, f"max |lambda - pi^2/4| = {worst:.2e}, max time {max(times):.2f}s")


def test_criterion_2_symmetry_suite():
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
        for c in (-1.0, -1.5, -2.0, -4.0):
            left = lambda_n_couette(beta, c).value
            right = lambda_n_couette(-beta, -c).value
            worst = max(worst, abs(left - right))
    ok = worst <= 1e-7
    report("2", ok, f"max |lam(beta,c) - lam(-beta,-c)| = {worst:.2e} over the 5x4 grid")


def test_criterion_3_monotonicity_suites():
    wall = [lambda_n_couette(b, -1.0) for b in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    ok = True
    min_ratio = np.inf
    for lo, hi in zip(wall, wall[1:]):
        gap = lo.value - hi.value
        ratio = gap / max(lo.error_estimate, hi.error_estimate)
        ok &= gap > 0 and ratio > 10
        min_ratio = min(min_ratio, ratio)
    for beta in (1.0, 4.0):
        pairs = [
            lambda_n_couette(beta, c, 1, 256)
            for c in (-4.0, -2.0, -1.5, -1.1)
        ]
        pairs.append(lambda_n_couette(beta, -1.0))
        for lo, hi in zip(pairs, pairs[1:]):
            gap = lo.value - hi.value
            ratio = gap / max(lo.error_estimate, hi.error_estimate)
            ok &= gap > 0 and ratio > 10
            min_ratio = min(min_ratio, ratio)
    report("3", ok, f"strict decrease in beta and c; min gap/error ratio = {min_ratio:.1f}")


def test_criterion_4_transition_value(beta_star):
    resid = atlas.lambda1_wall(beta_star)[0]
    below = atlas.lambda1_wall(beta_star / 2)[0]
    above = atlas.lambda1_wall(2 * beta_star)[0]
    b512 = atlas.find_beta_star(resolution=512)
    ok = (
        beta_star > 0
        and abs(resid) <= 1e-5
        and below > 0 > above
        and abs(b512 - beta_star) <= 5e-4
    )
    report(
        "4",
        ok,
        f"beta* = {beta_star:.6f}, |lam(beta*)| = {abs(resid):.2e}, "
        f"res-256/512 shift = {abs(b512 - beta_star):.2e}",
    )


def test_criterion_5_atlas_consistency(beta_star):
    betas = [1.5 * beta_star, 2 * beta_star, 3 * beta_star]
    alphas = [atlas.alpha_beta(b)[0] for b in betas]
    ok = all(a < b for a, b in zip(alphas, alphas[1:]))
    worst_bt = 0.0
    for b, a in zip(betas, alphas):
        bt = atlas.beta_T(2 * np.pi / a)
        worst_bt = max(worst_bt, abs(bt - b))
    ok &= worst_bt <= 1e-3
    labels_ok = True
    for b, a in zip(betas, alphas):
        labels_ok &= atlas.classify(a, b).label == atlas.REGION_GAMMA_PLUS
        labels_ok &= atlas.classify(a + 1e-2, b).label == atlas.REGION_O
        labels_ok &= atlas.classify(a - 1e-2, b).label == atlas.REGION_I_PLUS
        labels_ok &= atlas.classify(a, -b).label == atlas.REGION_GAMMA_MINUS
        labels_ok &= atlas.classify(a + 1e-2, -b).label == atlas.REGION_O
        labels_ok &= atlas.classify(a - 1e-2, -b).label == atlas.REGION_I_MINUS
    ok &= labels_ok
    report(
        "5",
        ok,
        f"alpha increasing {[f'{a:.3f}' for a in alphas]}, max |beta_T - beta| = "
        f"{worst_bt:.2e}, borderline/offset/mirror labels correct = {labels_ok}",
    )


def test_criterion_6_speed_inversion(beta_star):
    beta = 2 * beta_star
    lam_wall = atlas.lambda1_wall(beta)[0]
    worst = 0.0
    ok = True
    for lam0 in (0.0, lam_wall / 2):
        c0 = atlas.speed_for_eigenvalue(beta, lam0, tol=1e-5)
        resid = abs(atlas.lambda1_regular(beta, c0)[0] - lam0)
        worst = max(worst, resid)
        ok &= c0 < -1 and resid <= 2e-5
    report("6", ok, f"re-evaluated |lam(beta, c0) - lam0| = {worst:.2e}, c0 < -1")


def test_criterion_7_modified_flow():
    t0 = time.monotonic()
    b0 = mf.b0()
    from oracles import simpson_integral

    def integrand(x):
        return ((x + 5.0) ** -3 - (5.0 - x) ** -3) * mf.erf(x) * mf.cutoff_I(x)

    b0_alt = 2.0 * simpson_integral(integrand, 0.0, 2.0, n=8192)
    ok = b0 < 0 and abs(b0 - b0_alt) <= 1e-10
    detail = [f"b0 = {b0:.12f} (two rules agree to {abs(b0 - b0_alt):.1e})"]

    for a in (2.0, 4.0):
        bound = 3.0 + 1.5 * b0 * a + 0.5
        lam = None
        for g in (2e-2, 1e-2, 5e-3, 2.5e-3):
            lam = mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, g, a), 1).value
        ok &= lam <= bound
        detail.append(f"a={a}: lam(gamma=2.5e-3) = {lam:.4f} <= {bound:.4f}")

    for beta in (0.1, 0.3, 0.59):
        for g in (1e-2, 5e-3):
            ok &= mf.lambda_n_modified(mf.ModifiedFlowParams(beta, g, 0.0), 1).value > 0
    detail.append("lam1 > 0 for beta in {0.1, 0.3, 0.59}")

    for a in (0.0, 1.0):
        ok &= mf.lambda_n_modified(mf.ModifiedFlowParams(0.5, 1e-2, a), 2).value > 0
    detail.append("lam2 > 0 for a in {0, 1}")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    detail.append(f"runtime {elapsed:.0f}s < 120s")
    report("7", ok, "; ".join(detail))


def test_criterion_8_bifurcation_residual(beta_star):
    kappas = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    slopes = []
    prof1 = mf.profile(mf.ModifiedFlowParams(2.0, 0.02, 0.0))
    rows = [
        (k, bif.residual_norm(bif.construct(prof1, 2.0, 0.0, k, resolution=512), 2.0))
        for k in kappas
    ]
    slopes.append(bif.residual_slope(rows))

    beta = 2 * beta_star
    alpha_b, _ = atlas.alpha_beta(beta)
    a = 0.9
    c_a = atlas.speed_for_eigenvalue(beta / a, -alpha_b**2, tol=1e-7)
    prof2 = scaled_couette(a)
    rows2 = [
        (k, bif.residual_norm(bif.construct(prof2, beta, a * c_a, k, resolution=512), beta))
        for k in kappas
    ]
    slopes.append(bif.residual_slope(rows2))

    wave0 = bif.construct(prof1, 2.0, 0.0, 1e-3, resolution=512)
    y = wave0.grid.nodes
    phi_fake = np.sin(np.pi * (y + 1) / 2) + 0.3 * np.sin(np.pi * (y + 1))
    phi_fake /= np.linalg.norm(phi_fake)
    rows3 = [
        (
            k,
            bif.residual_norm(
                bif.construct(prof1, 2.0, 0.0, k, resolution=512, phi_override=phi_fake), 2.0
            ),
        )
        for k in kappas
    ]
    control = bif.residual_slope(rows3)

    ok = all(1.8 <= s <= 2.2 for s in slopes) and 0.8 <= control <= 1.2
    report(
        "8",
        ok,
        f"slopes = {[f'{s:.3f}' for s in slopes]} on two base profiles, "
        f"control slope = {control:.3f}",
    )


def test_criterion_9_damping():
    st = dp.ModeState(1, 10.0, 1.0 + 0.0j)
    drift_mode = abs(abs(dp.evolve_rk4(st, 1.0, 0.0, 100.0, 1e-2).amp) - 1.0)
    ok = drift_mode <= 1e-8

    target = np.exp(1j * dp.phase_closed_form(1, 0.5, 1.0, 2.0))
    dts = (4e-2, 2e-2, 1e-2, 5e-3)
    errs = [abs(dp.evolve_rk4(dp.ModeState(1, 0.5, 1.0 + 0.0j), 1.0, 0.0, 2.0, h).amp - target)
            for h in dts]
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok &= 3.7 <= order <= 4.3

    samples = [0, 5, 10, 20, 40, 70, 100]
    exponents = []
    max_drift = 0.0
    max_table_diff = 0.0
    for profile in ("gaussian", "bump"):
        tables = {}
        for beta in (0.0, 1.0, 5.0):
            ens = dp.ModeEnsemble.from_profile(profile)
            tables[beta] = dp.run_damping_experiment(ens, beta, 100.0, dt=5e-3,
                                                     sample_times=samples)
            max_drift = max(max_drift, max(r[3] for r in tables[beta].rows))
        for beta in (1.0, 5.0):
            for r0, rb in zip(tables[0.0].rows, tables[beta].rows):
                max_table_diff = max(max_table_diff, abs(r0[1] - rb[1]), abs(r0[2] - rb[2]))
        ux = tables[1.0].metadata["fit_exponent_ux_nonzero"]
        uy = tables[1.0].metadata["fit_exponent_uy"]
        exponents.append((profile, ux, uy))
        ok &= -1.3 <= ux <= -0.7 and -2.3 <= uy <= -1.7
    ok &= max_drift <= 1e-8 and max_table_diff <= 1e-9
    report(
        "9",
        ok,
        f"per-mode drift {drift_mode:.1e}, rk4 order {order:.2f}, exponents {exponents}, "
        f"ensemble drift {max_drift:.1e}, cross-beta table diff {max_table_diff:.1e}",
    )


def test_criterion_10_determinism(tmp_path):
    args = ["eigen", "--beta", "1.5", "--c", "-2.5", "--n", "1"]
    out1 = subprocess.run(RUN + args, capture_output=True, text=True).stdout
    out2 = subprocess.run(RUN + args, capture_output=True, text=True).stdout
    ok = out1 == out2 and len(out1) > 0

    cache_dir = tmp_path / "cache"
    atlas_args = ["atlas", "beta-T", "--period", "6"]
    plain = subprocess.run(RUN + atlas_args, capture_output=True, text=True).stdout
    cold = subprocess.run(
        RUN + atlas_args + ["--cache-dir", str(cache_dir)], capture_output=True, text=True
    ).stdout
    warm = subprocess.run(
        RUN + atlas_args + ["--cache-dir", str(cache_dir)], capture_output=True, text=True
    ).stdout
    ok &= plain == cold == warm and len(plain) > 0
    report("10", ok, "repeat invocations and cache on/off/warm outputs byte-identical")
