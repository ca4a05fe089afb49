"""Benchmark of betaplane: one seeded workload, every answer checked.

    python3 bench/run.py --workload {atlas,modflow,damping,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  Every process the benchmark starts runs one
at a time with single-threaded BLAS.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (drift-corrected seconds, see
drift.py; the raw seconds are printed on the lines above); with --trace 1
they are the per-layer ones from a traced round plus trace.overhead_s.
The exit code is 1, with no result line, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = {"atlas": 1, "modflow": 1, "damping": 1, "cli": 2}
RUN_LIMIT_S = 170.0  # every child is killed before a run can pass 180 s


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


class Runner:
    def __init__(self, root: Path, workload: str):
        self.root = root
        self.workload = workload
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
        self.work = root / ".bench_out" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)

    def run(self, cmd, stdin_text=None) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        try:
            return subprocess.run(cmd, cwd=self.root, env=self.env, input=stdin_text,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
            raise BenchError(f"{cmd[1:3]} ran past the time limit") from exc

    def worker(self, mode: str, queries=None, trace=False) -> dict:
        spec = json.dumps({"workload": self.workload, "queries": queries or [], "trace": trace})
        proc = self.run([sys.executable, str(BENCH / "worker.py"), mode], spec)
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed_cli(self, argv, traced=False):
        """One cold CLI process: (process, raw seconds, corrected seconds, span summary).

        The child times its own call under the drift clock; the whole
        process's wall time, less the child's kernel passes, is scaled by
        the child's own correction factor, so interpreter start-up and
        shutdown count too.
        """
        timing_file = self.work / "timing.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "cli", str(timing_file),
               "1" if traced else "0", *argv]
        t0 = time.perf_counter()
        proc = self.run(cmd)
        wall = time.perf_counter() - t0
        timing = json.loads(timing_file.read_text(encoding="utf-8"))
        timing_file.unlink()
        raw = wall - timing["paused_s"]
        return proc, raw, raw * timing["s"] / timing["raw_s"], timing["trace"]


# ---- one round of queries ------------------------------------------------

def session_round(runner: Runner, queries, checker, trace: bool) -> dict:
    out = runner.worker("session", queries, trace)
    rows = []
    for q, res in zip(queries, out["results"]):
        problems = [] if res["error"] else checker.check(q, res["answer"])
        rows.append({"query": q, "raw_s": res["raw_s"], "s": res["s"],
                     "error": res["error"], "problems": problems})
    return {"rows": rows, "peak_rss_mb": out["peak_rss_mb"], "setup": [out],
            "trace": out.get("trace")}


def cli_round(runner: Runner, queries, trace: bool) -> dict:
    cache = runner.work / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    rows, summaries, cold_stdout = [], [], None
    for q in queries:
        argv = [a.format(cache=cache, out=runner.work) for a in q["argv"]]
        proc, raw, corrected, summary = runner.timed_cli(argv, traced=trace)
        if summary is not None:
            summaries.append(summary)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-500:]}"
        problems = []
        if error is None:
            files = {p.name: p.read_text(encoding="utf-8") for p in runner.work.glob("damping.*")}
            try:
                problems = workloads.cli_problems(q, proc.stdout, files, cold_stdout)
            except (ValueError, KeyError, IndexError) as exc:  # JSONDecodeError is a ValueError
                problems = [f"output does not parse: {type(exc).__name__}: {exc}"]
        if q["check"] == "speed":
            cold_stdout = proc.stdout
        rows.append({"query": q, "raw_s": raw, "s": corrected, "error": error, "problems": problems})
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"rows": rows, "peak_rss_mb": peak, "setup": [],
            "trace": spans.merge(summaries) if trace else None}


def one_round(runner, queries, checker, trace):
    if runner.workload == "cli":
        return cli_round(runner, queries, trace)
    return session_round(runner, queries, checker, trace)


def setup_samples(runner: Runner) -> list:
    """(raw, corrected) set-up seconds of fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES[runner.workload]):
        if runner.workload == "cli":
            proc, raw, corrected, _ = runner.timed_cli(["--version"])
            if proc.returncode != 0:
                raise BenchError(f"betaplane --version failed:\n{proc.stderr[-2000:]}")
            samples.append((raw, corrected))
        else:
            out = runner.worker("setup")
            samples.append((out["setup_raw_s"], out["setup_s"]))
    return samples


# ---- reporting -----------------------------------------------------------

def _solve(rnd, key="s"):
    return sum(r[key] for r in rnd["rows"])


def _print_rows(label, rnd):
    for r in rnd["rows"]:
        q = r["query"]
        name = q.get("op") or " ".join(q["argv"][:2])
        status = "FAILED " + r["error"] if r["error"] else ("BAD " + "; ".join(r["problems"])
                                                           if r["problems"] else "ok")
        print(f"{label} {name:<22} raw {r['raw_s']:8.3f} s  corrected {r['s']:8.3f} s  {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.QUERY_SETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole rounds of the query set are run until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "betaplane" / "__init__.py").is_file():
        print(f"error: no betaplane sources under {root / 'src'}", file=sys.stderr)
        return 1
    runner = Runner(root, args.workload)
    queries = workloads.QUERY_SETS[args.workload](args.seed)
    checker = workloads.Checker()
    try:
        if args.trace:
            return report_trace(runner, queries, checker)
        return report_end_to_end(runner, queries, checker, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _outcome(rounds):
    rows = [r for rnd in rounds for r in rnd["rows"]]
    failed = sum(1 for r in rows if r["error"])
    correct = all(not r["problems"] for r in rows)
    return correct, len(rows), failed


def report_end_to_end(runner, queries, checker, seconds) -> int:
    setups = setup_samples(runner)
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round(runner, queries, checker, trace=False))
        setups += [(s["setup_raw_s"], s["setup_s"]) for s in rounds[-1]["setup"]]
    correct, attempted, failed = _outcome(rounds)
    times = [r["s"] for rnd in rounds for r in rnd["rows"]]
    raw_times = [r["raw_s"] for rnd in rounds for r in rnd["rows"]]
    metrics = {
        "setup_s": (statistics.median(c for _, c in setups), statistics.median(r for r, _ in setups)),
        "solve_s": (statistics.median(_solve(rnd) for rnd in rounds),
                    statistics.median(_solve(rnd, "raw_s") for rnd in rounds)),
        "query_p50_s": (statistics.median(times), statistics.median(raw_times)),
    }
    for i, rnd in enumerate(rounds):
        _print_rows(f"round {i}", rnd)
    for name, (value, raw) in metrics.items():
        print(f"{name:<12} corrected {value:.4f} s   raw {raw:.4f} s")
    peak = max(rnd["peak_rss_mb"] for rnd in rounds)
    print(f"mf.estimate_misses {checker.estimate_misses}   rounds {len(rounds)}")
    result = {name: {"value": value, "unit": "s"} for name, (value, _) in metrics.items()}
    result["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def report_trace(runner, queries, checker) -> int:
    plain = one_round(runner, queries, checker, trace=False)
    traced = one_round(runner, queries, checker, trace=True)
    _print_rows("untraced", plain)
    _print_rows("traced  ", traced)
    summary = traced["trace"]
    metrics = spans.layer_metrics(summary)
    cold = 0.0
    if runner.workload == "cli":
        cold = statistics.median(c for _, c in setup_samples(runner))
    metrics["cli.cold_start_s"] = (cold, "s")
    metrics["cli.invocations"] = (len(queries) if runner.workload == "cli" else 0, "count")
    metrics["mf.estimate_misses"] = (checker.estimate_misses, "count")
    metrics["trace.overhead_s"] = (_solve(traced) - _solve(plain), "s")
    if summary["absent"]:
        print("absent: " + ", ".join(summary["absent"]))
    print("spans: " + json.dumps({k: summary["calls"][k] for k in sorted(summary["calls"])}))
    correct, attempted, failed = _outcome([plain, traced])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
