"""Seeded query sets and the checks that every answer must pass.

Each query set has the same make-up for every seed (the same operations at
the same grid sizes), so its cost barely depends on the seed; the seed only
moves the parameters inside ranges where every answer is well defined.
Checks compare each answer with ``reference`` (computed apart from the
program) or with a property the method must have; their tolerances are
listed in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import reference as ref

# ---- tolerances (README.md, "Checks") ---------------------------------------
BETA_STAR_TOL = 1e-4
ALPHA_TOL = 1e-3
SPEED_RESIDUAL_TOL = 1e-4
REGULAR_TOL = 1e-6
ENDPOINT_TOL = 1e-3
MODIFIED_REL_TOL = 2e-2
SLOPE_RANGE = (1.8, 2.2)
CONTROL_SLOPE_RANGE = (0.8, 1.2)
DRIFT_TOL = 1e-8
NORM_REL_TOL = 1e-8
PHASE_TOL = 1e-8
EXPONENT_TOL = (0.1, 0.2)  # |fit_ux + 1|, |fit_uy + 2|
PROFILE_TOL = 1e-8

DAMPING_DT = 5e-3
DAMPING_T_END = 100.0
EVOLVE_T_END = 30.0
KAPPAS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def _r(x: float) -> float:
    """Round generated inputs so they survive a trip through a command line."""
    return float(f"{x:.6g}")


# ---- query sets -------------------------------------------------------------

def atlas_queries(seed: int) -> list:
    """Four classify calls (beta of both signs, alpha 15-50 % off the curve) and one speed inversion."""
    rng = random.Random(seed)
    queries = []
    for sign in (1, -1, 1, -1):
        beta = _r(sign * rng.uniform(2.2, 5.5))
        side = rng.choice((rng.uniform(0.5, 0.85), rng.uniform(1.15, 1.5)))
        queries.append({"op": "classify", "alpha": _r(side * ref.alpha_beta(beta)), "beta": beta})
    beta = _r(rng.uniform(2.5, 5.5))
    lam0 = _r(rng.uniform(0.2, 0.7) * ref.couette_lambda(beta, -1.0))
    queries.append({"op": "speed", "beta": beta, "lambda0": lam0})
    return queries


def modflow_queries(seed: int) -> list:
    """lambda_n at gamma 0.02 .. 0.0025 (grids of 2048 to 16384 rows) and one residual ladder."""
    rng = random.Random(seed)
    queries = []
    for gamma, n in ((0.02, 2), (0.01, 1), (0.005, 1), (0.0025, 1)):
        queries.append({
            "op": "modified", "gamma": gamma, "n": n,
            "beta": _r(rng.choice((1, -1)) * rng.uniform(0.5, 2.5)),
            "a": _r(rng.uniform(0.0, 2.0)),
        })
    queries.append({"op": "ladder", "beta": _r(rng.uniform(1.8, 2.4)), "gamma": 0.02,
                    "a": _r(rng.uniform(0.0, 0.5)), "kappas": list(KAPPAS)})
    return queries


def damping_queries(seed: int) -> list:
    """Criterion-9 experiments, one per profile at its own beta, plus one RK4 mode."""
    rng = random.Random(seed)
    betas = [_r(s * rng.uniform(0.5, 3.0)) for s in (1, -1)]
    queries = [{"op": "experiment", "beta": b, "profile": p, "t_end": DAMPING_T_END, "dt": DAMPING_DT}
               for b, p in zip(betas, ("gaussian", "bump"))]
    queries.append({"op": "evolve", "beta": betas[0], "k": rng.choice((-3, -2, -1, 1, 2, 3)),
                    "eta": _r(rng.uniform(-10.0, 10.0)), "t_end": EVOLVE_T_END, "dt": DAMPING_DT})
    return queries


def cli_queries(seed: int) -> list:
    """Cold command-line invocations; {cache} and {out} are filled in per round."""
    rng = random.Random(seed)
    c = _r(rng.choice((-1, 1)) * rng.uniform(1.2, 4.0))
    b_reg = _r(rng.uniform(-3.0, 3.0))
    b_end = _r(rng.uniform(0.5, 4.0))
    b_speed = _r(rng.uniform(2.5, 5.5))
    lam0 = _r(rng.uniform(0.2, 0.7) * ref.couette_lambda(b_speed, -1.0))
    mf = (_r(rng.uniform(0.5, 2.5)), rng.choice((0.02, 0.01)), _r(rng.uniform(0.0, 2.0)))
    b_damp = _r(rng.uniform(-3.0, 3.0))
    speed = ["atlas", "speed", "--beta", str(b_speed), "--lambda0", str(lam0), "--cache-dir", "{cache}"]
    return [
        {"check": "eigen", "argv": ["eigen", "--beta", str(b_reg), "--c", str(c)]},
        {"check": "eigen", "argv": ["eigen", "--beta", str(b_end), "--c", "-1", "--format", "json"]},
        {"check": "speed", "argv": speed},
        {"check": "speed-warm", "argv": speed},
        {"check": "profile", "argv": ["modified-flow", "--beta", str(mf[0]), "--gamma", str(mf[1]),
                                      "--a", str(mf[2]), "--emit", "profile", "--samples", "129",
                                      "--format", "json"]},
        {"check": "damping", "argv": ["damping", "--beta", str(b_damp), "--t-end", "10",
                                      "--samples", "0,2.5,5,7.5,10", "--out", "{out}/damping.csv", "--plot"]},
    ]


QUERY_SETS = {"atlas": atlas_queries, "modflow": modflow_queries,
              "damping": damping_queries, "cli": cli_queries}


# ---- checks for in-process answers ---------------------------------------

class Checker:
    """Checks answers; references are computed once per run, outside every timed region."""

    def __init__(self):
        self._memo = {}
        self._missed = set()

    @property
    def estimate_misses(self) -> int:
        """Distinct answers whose error_estimate is below their error against the reference."""
        return len(self._missed)

    def _ref(self, fn, *args):
        key = (fn.__name__,) + args
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]

    def check(self, q: dict, ans) -> list:
        return getattr(self, "_" + q["op"])(q, ans)

    def _classify(self, q, ans):
        bad = []
        bstar = self._ref(ref.beta_star)
        alpha_ref = self._ref(ref.alpha_beta, q["beta"])
        want = ("I+" if q["beta"] > 0 else "I-") if q["alpha"] < alpha_ref else "O"
        if ans["label"] != want:
            bad.append(f"label {ans['label']} != {want}")
        if abs(ans["beta_star"] - bstar) > BETA_STAR_TOL:
            bad.append(f"beta_star {ans['beta_star']} vs {bstar}")
        if ans["alpha_beta"] is None or abs(ans["alpha_beta"] - alpha_ref) > ALPHA_TOL:
            bad.append(f"alpha_beta {ans['alpha_beta']} vs {alpha_ref}")
        return bad

    def _speed(self, q, ans):
        return speed_problems(q["beta"], q["lambda0"], ans["c0"])

    def _modified(self, q, ans):
        value, _ = self._ref(ref.modified_lambda, q["beta"], q["gamma"], q["a"], q["n"])
        err = abs(ans["value"] - value)
        if ans["error_estimate"] < err:
            self._missed.add((q["beta"], q["gamma"], q["a"], q["n"]))
        if err > MODIFIED_REL_TOL * max(1.0, abs(value)):
            return [f"lambda_{q['n']} {ans['value']} vs reference {value}"]
        return []

    def _ladder(self, q, ans):
        bad = []
        slope = _loglog_slope(q["kappas"], ans["residuals"])
        control = _loglog_slope(q["kappas"], ans["controls"])
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            bad.append(f"residual slope {slope}")
        if not CONTROL_SLOPE_RANGE[0] <= control <= CONTROL_SLOPE_RANGE[1]:
            bad.append(f"control slope {control}")
        value, _ = self._ref(ref.modified_lambda, q["beta"], q["gamma"], q["a"], 1)
        if abs(ans["lambda1"] - value) > MODIFIED_REL_TOL * max(1.0, abs(value)):
            bad.append(f"lambda_1 {ans['lambda1']} vs reference {value}")
        return bad

    def _experiment(self, q, ans):
        bad = damping_rows_problems(q["profile"], ans["rows"])
        ux, uy = ans["fit"]
        if abs(ux + 1.0) > EXPONENT_TOL[0] or abs(uy + 2.0) > EXPONENT_TOL[1]:
            bad.append(f"decay exponents {ux}, {uy}")
        return bad

    def _evolve(self, q, ans):
        amp = complex(ans["re"], ans["im"])
        phase = ref.damping_phase(q["k"], q["eta"], q["beta"], q["t_end"])
        diff = math.remainder(math.atan2(amp.imag, amp.real) - phase, 2.0 * math.pi)
        bad = []
        if abs(abs(amp) - 1.0) > DRIFT_TOL:
            bad.append(f"modulus drift {abs(amp) - 1.0}")
        if abs(diff) > PHASE_TOL:
            bad.append(f"phase off the closed form by {diff}")
        return bad


def _loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def speed_problems(beta, lam0, c0) -> list:
    if not c0 < -1.0:
        return [f"c0 = {c0} is not below -1"]
    residual = abs(ref.couette_lambda(beta, c0) - lam0)
    return [f"|lambda_1(beta, c0) - lambda0| = {residual}"] if residual > SPEED_RESIDUAL_TOL else []


def damping_rows_problems(profile: str, rows) -> list:
    """Rows (t, ux, uy, drift): moduli conserved, norms equal to the exact ones."""
    bad = []
    for t, ux, uy, drift in rows:
        want_ux, want_uy = ref.damping_norms(profile, t)
        if drift > DRIFT_TOL:
            bad.append(f"modulus drift {drift} at t={t}")
        if abs(ux - want_ux) > NORM_REL_TOL * want_ux or abs(uy - want_uy) > NORM_REL_TOL * want_uy:
            bad.append(f"norms ({ux}, {uy}) vs exact ({want_ux}, {want_uy}) at t={t}")
    return bad


# ---- checks for command-line outputs --------------------------------------

def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in row] for row in list(csv.reader(io.StringIO("\n".join(lines))))[1:]]


def cli_problems(q: dict, stdout: str, files: dict, cold_stdout: str | None) -> list:
    """Problems with one CLI invocation's output (its exit code is checked by the caller)."""
    kind, argv = q["check"], q["argv"]
    arg = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    if kind == "eigen":
        if arg.get("--format") == "json":
            row = json.loads(stdout)["rows"][0]
        else:
            row = _csv_rows(stdout)[0]
        beta, c, n, value = float(row[0]), float(row[1]), int(row[2]), float(row[3])
        want = ref.couette_lambda(beta, c, n)
        tol = ENDPOINT_TOL if abs(c) == 1.0 else REGULAR_TOL
        return [f"eigen {value} vs reference {want}"] if abs(value - want) > tol else []
    if kind in ("speed", "speed-warm"):
        beta, lam0, c0 = _csv_rows(stdout)[0][:3]
        bad = speed_problems(beta, lam0, c0)
        if kind == "speed-warm" and stdout != cold_stdout:
            bad.append("warm-cache output differs from cold-cache output")
        return bad
    if kind == "profile":
        rows = json.loads(stdout)["rows"]
        y = [r[0] for r in rows]
        want = ref.modified_profile(float(arg["--beta"]), float(arg["--gamma"]), float(arg["--a"]), y)
        worst = max(abs(r[j + 1] - want[j][i]) for i, r in enumerate(rows) for j in range(3))
        return [f"profile differs from reference by {worst}"] if worst > PROFILE_TOL else []
    if kind == "damping":
        bad = damping_rows_problems("gaussian", _csv_rows(files["damping.csv"]))
        svg = files.get("damping.svg", "")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            bad.append("damping.svg is not an SVG document")
        return bad
    raise ValueError(f"unknown check {kind!r}")
