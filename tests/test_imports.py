"""No command and no modified-flow set-up runs scipy's package imports.

The eigen kernel calls LAPACK ``stebz`` and ``gtsv`` from the compiled
binding ``scipy/linalg/_flapack``, loaded as a file, so scipy.linalg (whose
array-API layer copies the numpy namespace and so imports numpy.f2py and
numpy.testing) is never imported.  ``modified_flow.erf`` is the C library's,
so neither is scipy.special.  The cutoff table, its interpolant and
``modified_flow.b0`` use a hand-rolled Gauss-Legendre rule and cubic Hermite
pieces, so scipy.integrate and scipy.interpolate (which pull in
scipy.optimize and scipy.sparse) are not imported either: not by
``import betaplane``, not by any command, and not by the modified-flow
set-up.  Each check runs in a fresh interpreter.

Every name that the package and its submodules list in ``__all__`` resolves,
and so does every name that the benchmark's spans (``bench/spans.py``) wrap,
but for the five that wrap ``lambda_1_singular`` and ``lambda_n_regular``,
which ``lambda_n_couette`` replaced.  The benchmark skips a span whose name
is gone, so a rename would otherwise zero its traced counts silently.
"""

import importlib.util
import json
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse",
            "scipy.linalg", "scipy.special", "numpy.f2py", "numpy.testing")


def loaded_after(body):
    """The DEFERRED modules present in sys.modules after running body in a fresh process."""
    code = textwrap.dedent(
        """
        import contextlib, io, json, sys
        {body}
        print(json.dumps(sorted(m for m in {deferred!r} if m in sys.modules)))
        """
    ).format(body=body, deferred=DEFERRED)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def cli(argv):
    """Body that runs ``betaplane ARGV`` in-process with its stdout discarded."""
    return (
        "from betaplane.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "assert code == 0, code\n"
    )


def test_every_name_in_all_resolves():
    import betaplane

    modules = [betaplane] + [
        importlib.import_module(f"betaplane.{info.name}")
        for info in pkgutil.iter_modules(betaplane.__path__)
        if info.name != "__main__"
    ]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# span bindings whose names no longer exist; their traced counts read 0
DEAD_BINDINGS = {"atlas.lambda_1_singular", "atlas.lambda_n_regular", "cli.lambda_1_singular",
                 "cli.lambda_n_regular", "bifurcation.lambda_1_singular"}


def test_benchmark_span_names_resolve():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent = set()
    for where, attr, *_ in spans.BINDINGS:
        module_name, _, class_name = where.partition(":")
        target = importlib.import_module(f"betaplane.{module_name}")
        if class_name:
            target = getattr(target, class_name)
        if not hasattr(target, attr):
            absent.add(f"{where}.{attr}")
    assert absent <= DEAD_BINDINGS


def test_import_loads_none_of_the_deferred_modules():
    assert loaded_after("import betaplane") == set()


def test_import_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre rule of the modified-flow set-up is built on first use
    code = "import sys, betaplane; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["damping", "--beta", "1", "--t-end", "1", "--dt", "0.05", "--samples", "0,1"],
    ["eigen", "--beta", "0.5", "--c", "-2"],
    ["eigen", "--beta", "2", "--c", "-1"],
    ["atlas", "beta-star"],
    ["atlas", "beta-T", "--period", "6"],
], ids=["version", "damping", "eigen", "eigen-wall", "beta-star", "beta-T"])
def test_commands_without_modified_flows_load_none(argv):
    assert loaded_after(cli(argv)) == set()


@pytest.mark.parametrize("argv", [
    ["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--a", "1",
     "--emit", "profile", "--samples", "5"],
    ["modified-flow", "--beta", "0.5", "--gamma", "0.01", "--a", "1", "--n-max", "1"],
    ["bifurcate", "--beta", "2", "--gamma", "0.02", "--kappas", "1e-2,5e-3",
     "--resolution", "256"],
], ids=["profile", "eigenvalue", "bifurcate"])
def test_modified_flow_commands_load_none(argv):
    assert loaded_after(cli(argv)) == set()


def test_modified_flow_set_up_loads_none():
    body = (
        "from betaplane import modified_flow\n"
        "modified_flow.cutoff_constants()\n"
        "modified_flow.b0()\n"
    )
    assert loaded_after(body) == set()
