"""One cold betaplane process for the benchmark; started by run.py.

    python3 bench/worker.py setup   < spec.json   # set up only
    python3 bench/worker.py session < spec.json   # set up, answer the queries
    python3 bench/worker.py cli OUT TRACE ARGS... # the command line, `betaplane ARGS`

setup and session read {"workload", "queries", "trace"} from stdin and
print one JSON object as the last line of stdout.  cli runs what
`python -m betaplane ARGS` runs (``betaplane.cli.main``), with the import
inside the timed call, leaves the program's stdout, stderr and exit code
untouched, and writes its timing (and, with TRACE=1, its span summary) to
the file OUT.  Every timed call runs under drift.DriftClock.
"""

import json
import resource
import sys

import drift

# calibration kernel for each workload's queries; in-process set-up, which
# starts before numpy is imported, uses the "python" kernel
KERNEL = {"atlas": "loop", "modflow": "loop", "damping": "vector"}


def set_up(workload: str):
    """import betaplane plus the set-up every session of this workload pays."""
    import betaplane

    if workload == "modflow":
        betaplane.modified_flow.cutoff_constants()
        betaplane.modified_flow.b0()
    return betaplane


def _ladder(bp, q):
    """Residual ladder of the first-order wave with the non-eigenfunction control."""
    import numpy as np

    mf, bif = bp.modified_flow, bp.bifurcation
    prof = mf.profile(mf.ModifiedFlowParams(q["beta"], q["gamma"], q["a"]))
    resolution = mf.suggested_resolution(q["gamma"])
    residuals, controls, fake, lambda1 = [], [], None, None
    for kappa in q["kappas"]:
        wave = bif.construct(prof, q["beta"], 0.0, kappa, resolution=resolution)
        lambda1 = wave.lambda1
        residuals.append(bif.residual_norm(wave, q["beta"]))
        if fake is None:
            y = wave.grid.nodes
            fake = np.sin(np.pi * (y + 1) / 2) + 0.3 * np.sin(np.pi * (y + 1))
            fake /= np.linalg.norm(fake)
        ctrl = bif.construct(prof, q["beta"], 0.0, kappa, resolution=resolution, phi_override=fake)
        controls.append(bif.residual_norm(ctrl, q["beta"]))
    return {"lambda1": lambda1, "residuals": residuals, "controls": controls}


def answer(bp, q):
    """Run one query through the public API and return its answer as plain data."""
    op = q["op"]
    if op == "classify":
        v = bp.atlas.classify(q["alpha"], q["beta"])
        return {"label": v.label, "beta_star": v.beta_star, "alpha_beta": v.alpha_beta}
    if op == "speed":
        return {"c0": bp.atlas.speed_for_eigenvalue(q["beta"], q["lambda0"])}
    if op == "modified":
        mf = bp.modified_flow
        pair = mf.lambda_n_modified(mf.ModifiedFlowParams(q["beta"], q["gamma"], q["a"]), q["n"])
        return {"value": pair.value, "error_estimate": pair.error_estimate}
    if op == "ladder":
        return _ladder(bp, q)
    if op == "experiment":
        ens = bp.damping.ModeEnsemble.from_profile(q["profile"])
        table = bp.damping.run_damping_experiment(ens, q["beta"], q["t_end"], dt=q["dt"])
        keys = ("fit_exponent_ux_nonzero", "fit_exponent_uy")
        return {"rows": table.rows, "fit": [table.metadata[k] for k in keys]}
    if op == "evolve":
        state = bp.damping.ModeState(q["k"], q["eta"], 1.0 + 0.0j)
        amp = bp.damping.evolve_rk4(state, q["beta"], 0.0, q["t_end"], q["dt"]).amp
        return {"re": amp.real, "im": amp.imag}
    raise ValueError(f"unknown query op {op!r}")


def _tracer(clock):
    import betaplane

    import spans

    tracer = spans.Tracer(clock.now)
    tracer.install(betaplane)
    return tracer


def run_session(mode: str, spec: dict) -> dict:
    workload = spec["workload"]
    clock = drift.DriftClock()
    # traced runs report no set-up time, so the spans may go in before set-up
    tracer = _tracer(clock) if spec["trace"] else None
    bp, setup_raw, setup_s, error = clock.measure(lambda: set_up(workload), "python")
    if error:
        raise RuntimeError(f"set-up failed: {error}")
    out = {"setup_raw_s": setup_raw, "setup_s": setup_s}
    if mode == "session":
        results = []
        for q in spec["queries"]:
            result, raw, corrected, error = clock.measure(lambda: answer(bp, q), KERNEL[workload])
            results.append({"answer": result, "raw_s": raw, "s": corrected, "error": error})
        out["results"] = results
        if tracer is not None:
            out["trace"] = tracer.summary()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_cli(out_path: str, trace: bool, argv) -> int:
    clock = drift.DriftClock()
    tracer = []

    def call():
        import betaplane.cli

        if trace:
            tracer.append(_tracer(clock))
        try:
            return betaplane.cli.main(argv)
        except SystemExit as exc:  # --version and argparse errors exit from inside main
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)

    # imported here, not inside the kernel's own (uncounted) set-up, so that
    # the process time the parent scales still contains numpy's import
    import numpy  # noqa: F401

    code, raw, corrected, error = clock.measure(call, "mixed")
    if error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"raw_s": raw, "s": corrected, "paused_s": clock.paused,
                   "trace": tracer[0].summary() if tracer else None}, fh)
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return run_cli(sys.argv[2], sys.argv[3] == "1", sys.argv[4:])
    print(json.dumps(run_session(mode, json.loads(sys.stdin.read()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
