"""Command-line surface for the toolkit.

Subcommands: eigen, atlas {beta-star|curve|region|beta-T|speed},
modified-flow, bifurcate, damping.  Results are written as CSV (default,
floats as %.17g) or JSON (floats in their shortest round-trip form), so
identical invocations are byte-identical; --plot additionally writes a
minimal SVG next to --out.

Exit codes: 0 success, 2 validation error, 3 solver non-convergence,
4 bracket failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, atlas, bifurcation, damping, modified_flow
from .cache import CurveCache
from .errors import BracketFailureError, NoConvergenceError, ValidationError, require_finite
from .rayleigh_kuo import lambda_n_couette, scaled_couette
from .svgplot import table_to_svg
from .tables import CurveTable

_BUILTIN_TOLS = {
    "beta-star": 1e-5,
    "beta-T": 1e-5,
    "speed": 1e-5,
    "region": 1e-4,
}


@dataclass
class RunConfig:
    resolution: int | None = None  # --resolution; None gives each command its default base
    tolerances: dict = field(default_factory=dict)
    cache_dir: str | None = None
    format: str = "csv"
    plot: bool = False
    out: str | None = None

    def tol(self, name: str) -> float:
        if name in self.tolerances:
            return self.tolerances[name]
        if "default" in self.tolerances:
            return self.tolerances["default"]
        return _BUILTIN_TOLS[name]

    def cache(self):
        return CurveCache(self.cache_dir) if self.cache_dir else None

    def base(self, wall: bool = False) -> int:
        """--resolution, or by default 64 on the atlas wall routes, whose ladders climb
        from that smallest base to their tolerance, and 256 on the fixed ladders."""
        if self.resolution is not None:
            return self.resolution
        return 64 if wall else 256

    def modified_resolution(self, gamma: float) -> int:
        """The resolution, raised to what a modified flow of width gamma needs."""
        return max(self.base(), modified_flow.suggested_resolution(gamma))


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# value parser per config key (before any "."); every key but tol names a
# RunConfig field
_CONFIG_VALUES = {
    "resolution": int,
    "tol": float,
    "plot": lambda v: _BOOLS[v.lower()],
    "format": str,
    "cache_dir": str,
    "out": str,
}

_EXIT_CODES = {ValidationError: 2, NoConvergenceError: 3, BracketFailureError: 4}


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        base, dot, _ = key.partition(".")
        if base not in _CONFIG_VALUES or (dot and base != "tol"):  # only tol takes a .name
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        if base == "tol" and key != "tol" and key[4:] not in _BUILTIN_TOLS:
            known = ", ".join(f"tol.{name}" for name in _BUILTIN_TOLS)
            raise ValidationError(f"{path}:{lineno}: unknown tolerance {key!r} (known: {known})")
        try:
            values[key] = _CONFIG_VALUES[base](val)
        except (KeyError, ValueError):
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from None
    return values


def _config_from(args) -> RunConfig:
    config_path = getattr(args, "config", None)
    raw = _parse_config_file(config_path) if config_path else {}
    # flags override config (SUPPRESS defaults: attribute absent unless given);
    # --tol sets the default tolerance only, so a config tol.<name> still wins
    merged = {**raw, **{k: v for k, v in vars(args).items() if k in _CONFIG_VALUES}}
    cfg = RunConfig()
    for key, val in merged.items():
        if key.split(".", 1)[0] == "tol":
            cfg.tolerances[key[4:] or "default"] = val
        else:
            setattr(cfg, key, val)
    if cfg.format not in ("csv", "json"):
        raise ValidationError(f"unknown output format {cfg.format!r}")
    if cfg.resolution is not None and cfg.resolution < 64:
        raise ValidationError(f"resolution must be >= 64, got {cfg.resolution}")
    for name, value in cfg.tolerances.items():
        require_finite(f"tolerance {name}", value, positive=True)
    if cfg.plot and not cfg.out:
        raise ValidationError("--plot requires --out to name the SVG file")
    return cfg


def _emit(table: CurveTable, cfg: RunConfig) -> None:
    text = table.to_csv() if cfg.format == "csv" else table.to_json()
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    if cfg.plot:
        svg_path = Path(cfg.out).with_suffix(".svg")
        svg_path.write_text(table_to_svg(table), encoding="utf-8", newline="\n")


def _parse_floats(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of ``flag``; empty entries are skipped."""
    values = []
    for v in filter(str.strip, text.split(",")):
        try:
            values.append(float(v))
        except ValueError:
            raise ValidationError(f"{flag}: {v.strip()!r} is not a number") from None
    return values


def _one_row(name: str, metadata: dict, row: dict) -> CurveTable:
    """A table of the single row ``row``, its keys the columns in order."""
    return CurveTable(name, list(row), [tuple(row.values())], metadata)


def cmd_eigen(args, cfg: RunConfig) -> CurveTable:
    pair = lambda_n_couette(args.beta, args.c, args.n, cfg.base())
    return _one_row("eigen", {"version": __version__}, {
        "beta": args.beta, "c": args.c, "n": args.n, "lambda": pair.value,
        "error_estimate": pair.error_estimate, "resolution": cfg.base(),
    })


def cmd_atlas(args, cfg: RunConfig) -> CurveTable:
    cache = cfg.cache()
    base = cfg.base(wall=args.atlas_cmd != "speed")
    common = dict(resolution=base, cache=cache)
    if args.atlas_cmd == "beta-star":
        tol = cfg.tol("beta-star")
        bstar, err, accepted = atlas.beta_star_and_error(tol=tol, resolution=base)
        residual, _ = atlas.lambda1_wall(bstar, **common)
        table = _one_row("atlas-beta-star", {"tol": tol, "resolution": base, "accepted_base": accepted}, {
            "beta_star": bstar, "lambda_residual": residual, "error_estimate": err,
        })
    elif args.atlas_cmd == "curve":
        if args.steps < 1:
            raise ValidationError(f"--steps must be >= 1, got {args.steps}")
        require_finite("--beta-max", args.beta_max)
        lo = args.beta_min
        if lo is None:
            lo = atlas.find_beta_star(tol=cfg.tol("beta-star"), resolution=base)
        else:
            require_finite("--beta-min", lo)
        table = atlas.alpha_beta_curve(np.linspace(lo, args.beta_max, args.steps), **common)
    elif args.atlas_cmd == "region":
        verdict = atlas.classify(args.alpha, args.beta, tol=cfg.tol("region"), **common)
        table = _one_row("atlas-region", {"resolution": base, "accepted_base": list(verdict.bases)}, {
            "alpha": args.alpha, "beta": args.beta, "label": verdict.label,
            "beta_star": verdict.beta_star,
            "alpha_beta": verdict.alpha_beta if verdict.alpha_beta is not None else float("nan"),
            "tolerance": verdict.tolerance, "error_estimate": verdict.error_estimate,
        })
    elif args.atlas_cmd == "beta-T":
        tol = cfg.tol("beta-T")
        bt, err, accepted = atlas.beta_T_and_error(args.period, tol=tol, resolution=base)
        lam, _ = atlas.lambda1_wall(bt, **common)
        target = -4 * np.pi**2 / (args.period * args.period)  # -0 once T * T overflows
        table = _one_row("atlas-beta-T", {"tol": tol, "resolution": base, "accepted_base": accepted}, {
            "period": args.period, "beta_T": bt, "lambda_at_beta_T": lam,
            "target": target, "error_estimate": err,
        })
    else:  # speed
        tol = cfg.tol("speed")
        c0, err = atlas.speed_and_error(args.beta, args.lambda0, tol=tol, **common)
        lam, _ = atlas.lambda1_regular(args.beta, c0, **common)
        table = _one_row("atlas-speed", {"tol": tol, "resolution": base}, {
            "beta": args.beta, "lambda0": args.lambda0, "c0": c0, "lambda_at_c0": lam,
            "error_estimate": err,
        })
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses", file=sys.stderr)
    return table


def cmd_modified_flow(args, cfg: RunConfig) -> CurveTable:
    if args.emit == "profile":
        if args.samples < 1:
            raise ValidationError(f"--samples must be >= 1, got {args.samples}")
        params = modified_flow.ModifiedFlowParams(args.beta, args.gamma, args.a)
        prof = modified_flow.profile(params)
        ys = np.linspace(-1.0, 1.0, args.samples)
        # analytic evaluations; the error budget is the cutoff-table
        # interpolation bound
        eval_err = 1e-11
        table = CurveTable(
            name="modified-flow-profile",
            columns=["y", "u", "du", "d2u", "error_estimate"],
            metadata={"beta": args.beta, "gamma": args.gamma, "a": args.a},
        )
        for row in zip(ys, *prof.jet(ys)):
            table.add_row(*map(float, row), eval_err)
        return table
    if args.emit == "sweep":
        gammas = _parse_floats(args.gamma_sweep or "", "--gamma-sweep")
        if not gammas:
            raise ValidationError("--emit sweep requires --gamma-sweep g1,g2,...")
    else:
        if args.n_max < 1:
            raise ValidationError(f"--n-max must be >= 1, got {args.n_max}")
        params = modified_flow.ModifiedFlowParams(args.beta, args.gamma, args.a)
    b0 = modified_flow.b0()
    bound = 3.0 + 1.5 * b0 * args.a  # the small-gamma asymptote of lambda_1
    if args.emit == "sweep":
        table = CurveTable(
            name="modified-flow-gamma-sweep",
            columns=["gamma", "lambda_1", "error_estimate", "asymptote_bound"],
            metadata={"beta": args.beta, "a": args.a, "b0": b0},
        )
        for g in gammas:
            params = modified_flow.ModifiedFlowParams(args.beta, g, args.a)
            pair = modified_flow.lambda_n_modified(params, 1, cfg.modified_resolution(g))
            table.add_row(g, pair.value, pair.error_estimate, bound)
        return table
    table = CurveTable(
        name="modified-flow-eigenvalues",
        columns=["n", "lambda_n", "error_estimate"],
        metadata={"beta": args.beta, "gamma": args.gamma, "a": args.a, "b0": b0,
                  "asymptote_bound": bound},
    )
    resolution = cfg.modified_resolution(args.gamma)
    for n in range(1, args.n_max + 1):
        pair = modified_flow.lambda_n_modified(params, n, resolution)
        table.add_row(n, pair.value, pair.error_estimate)
    return table


def cmd_bifurcate(args, cfg: RunConfig) -> CurveTable:
    kappas = _parse_floats(args.kappas, "--kappas")
    resolution = cfg.base()
    if args.base == "modified":
        params = modified_flow.ModifiedFlowParams(args.beta, args.gamma, args.a)
        prof = modified_flow.profile(params)
        c = 0.0
        resolution = cfg.modified_resolution(args.gamma)
    else:
        prof = scaled_couette(args.scale)
        if args.c is None:
            raise ValidationError("--base scaled-couette requires --c (the wave speed)")
        c = args.c
    for kappa in kappas:
        bifurcation.check_kappa(kappa)
    bifurcation.check_ladder(kappas)
    table = CurveTable(
        name="bifurcation-residual-ladder",
        columns=(
            ["kappa", "residual"]
            + (["control_residual"] if args.control else [])
            + ["error_estimate"]
        ),
        metadata={"base": prof.label, "beta": args.beta, "c": c, "resolution": resolution},
    )
    # every kappa scales the same eigenpair, so the ladder needs one construct
    base = bifurcation.construct(prof, args.beta, c, kappas[0], resolution=resolution)
    table.metadata.update(alpha0=base.alpha0, lambda1=base.lambda1)
    if args.control:
        y = base.grid.nodes
        phi_fake = np.sin(np.pi * (y + 1) / 2) + 0.3 * np.sin(np.pi * (y + 1))
        phi_fake /= np.sqrt(np.einsum("i,i->", phi_fake, phi_fake))  # not BLAS ddot, which threads
    for kappa in kappas:
        wave = replace(base, kappa=float(kappa))
        row = [kappa, bifurcation.residual_norm(wave, args.beta)]
        if args.control:
            row.append(bifurcation.residual_norm(replace(wave, phi0=phi_fake), args.beta))
        # discretization floor of the order-kappa cancellation
        table.add_row(*row, abs(kappa) * base.grid.h**2 * abs(base.lambda1))
    kappa_column = table.column("kappa")
    table.metadata["slope"] = bifurcation.residual_slope(
        zip(kappa_column, table.column("residual"))
    )
    if args.control:
        table.metadata["control_slope"] = bifurcation.residual_slope(
            zip(kappa_column, table.column("control_residual"))
        )
    return table


def cmd_damping(args, cfg: RunConfig) -> CurveTable:
    samples = _parse_floats(args.samples, "--samples") if args.samples is not None else None
    if samples == []:
        raise ValidationError("--samples names no sample time")
    ens = damping.ModeEnsemble.from_profile(args.profile)
    return damping.run_damping_experiment(ens, args.beta, args.t_end, dt=args.dt, sample_times=samples)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering flags given before
    # the subcommand name
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=sup, help="flat key=value config file")
    common.add_argument("--out", default=sup, help="output file (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=sup, help="output format")
    common.add_argument("--plot", action="store_true", default=sup,
                        help="also write an SVG next to --out")
    common.add_argument("--cache-dir", default=sup, help="directory for the on-disk curve cache")
    common.add_argument("--resolution", type=int, default=sup,
                        help="base grid resolution (>= 64): the smallest base on the atlas wall "
                        "routes (default 64), the fixed base elsewhere (default 256)")
    common.add_argument("--tol", type=float, default=sup, help="default tolerance for root finding")

    parser = argparse.ArgumentParser(
        prog="betaplane",
        description="Rayleigh-Kuo spectra, traveling-wave phase diagram, and damping probes "
        "for Couette-type shear flows with Coriolis forcing",
    )
    parser.add_argument("--version", action="version", version=f"betaplane {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", parents=[common], help="one Rayleigh-Kuo eigenvalue for Couette flow")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("atlas", parents=[common], help="phase-diagram computations")
    asub = p.add_subparsers(dest="atlas_cmd", required=True)
    sp = asub.add_parser("beta-star", parents=[common])
    sp.set_defaults(func=cmd_atlas, atlas_cmd="beta-star")
    sp = asub.add_parser("curve", parents=[common])
    sp.add_argument("--beta-min", type=float, default=None, help="default: beta_star")
    sp.add_argument("--beta-max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=9)
    sp.set_defaults(func=cmd_atlas, atlas_cmd="curve")
    sp = asub.add_parser("region", parents=[common])
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.set_defaults(func=cmd_atlas, atlas_cmd="region")
    sp = asub.add_parser("beta-T", parents=[common])
    sp.add_argument("--period", type=float, required=True)
    sp.set_defaults(func=cmd_atlas, atlas_cmd="beta-T")
    sp = asub.add_parser("speed", parents=[common])
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--lambda0", type=float, required=True)
    sp.set_defaults(func=cmd_atlas, atlas_cmd="speed")

    p = sub.add_parser("modified-flow", parents=[common], help="modified shear-flow eigenvalues")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--emit", choices=("eigen", "profile", "sweep"), default="eigen")
    p.add_argument("--samples", type=int, default=33, help="profile sample count for --emit profile")
    p.add_argument("--gamma-sweep", help="comma-separated gammas for --emit sweep")
    p.set_defaults(func=cmd_modified_flow)

    p = sub.add_parser("bifurcate", parents=[common], help="first-order wave residual ladder")
    p.add_argument("--base", choices=("modified", "scaled-couette"), default="modified")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.02)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=0.9, help="a for the scaled Couette base")
    p.add_argument("--c", type=float, default=None, help="wave speed (scaled Couette base)")
    p.add_argument("--kappas", default="1e-2,5e-3,2.5e-3,1.25e-3")
    p.add_argument("--control", action="store_true", help="also run the non-eigenfunction control")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("damping", parents=[common], help="linearized decay experiment")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--profile", choices=("gaussian", "bump"), default="gaussian")
    p.add_argument("--samples", help="comma-separated sample times")
    p.set_defaults(func=cmd_damping)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from(args)
        table = args.func(args, cfg)
        _emit(table, cfg)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
