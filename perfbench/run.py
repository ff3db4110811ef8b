"""polydiff benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

One caller sends the next op only after the previous one returned.  The
seed fixes every input; ``--seconds`` bounds the timed loop; all outputs
are checked after it.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics, whose timings are scaled to
a nominal machine speed (yardstick.py); with ``--trace 1`` the run
alternates untraced and traced cycles of the op templates and reports
per-layer metrics instead, with the tracing overhead.
See NOTES.md beside this file for the workloads and metrics.
"""

import os

# Pinned before numpy loads: with more than one OpenBLAS thread some
# processes run every small expm two orders of magnitude slower (NOTES.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("desk", "cli", "monte-carlo")
KINDS = ("moments", "price", "validate", "boundary", "simulate")
SETUP_REPEATS = 3  # this process plus two fresh interpreters
MIN_OPS = 100  # p90 needs ten samples beyond it


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for repeated set-up timing)")
    return ap.parse_args(argv)


def make_workload(name: str, seed: int, workdir: str):
    """The workload object and its module (TEMPLATES, ROOT_SPAN)."""
    if name == "desk":
        import desk

        return desk.Desk(seed), desk
    if name == "cli":
        import cli_workload

        return cli_workload.Cli(seed, workdir), cli_workload
    import montecarlo

    return montecarlo.MonteCarlo(seed), montecarlo


def run_loop(workload, first: int, seconds: float, count: int | None = None, tracer=None,
             root_span=None, yard=None):
    """Closed loop from op index ``first``: until ``seconds`` of loop time
    have passed (and at least MIN_OPS ops ran), or exactly ``count`` ops.

    Loop time excludes making each op's inputs and the ``yard`` slices run
    between ops.  Returns the records (op, latency s, output or exception)
    and the loop time.
    """
    records = []
    loop_s = 0.0
    i = first
    while (len(records) < count) if count is not None else (loop_s < seconds or len(records) < MIN_OPS):
        op = workload.op(i)
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            if tracer is not None and root_span:
                out = tracer.call(root_span, op.fn)
            else:
                out = op.fn()
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        t1 = time.perf_counter()
        loop_s += t1 - t0
        records.append((op, t1 - t0, out))
        if yard is not None:
            yard.op_end.append(t1)
            yard.tick()
        i += 1
    return records, loop_s


def check_records(records) -> list[str]:
    failures = []
    for op, _, out in records:
        if isinstance(out, Exception):
            failures.append(f"{op.kind} {op.model}: raised {type(out).__name__}: {out}")
            continue
        try:
            bad = op.check(out)
        except Exception as exc:
            bad = f"{op.kind} {op.model}: check raised {type(exc).__name__}: {exc}"
        if bad:
            failures.append(bad)
    return failures


def percentile_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def seen_frac(records) -> float:
    """Share of ops whose model an earlier op of the run already used."""
    seen, repeats = set(), 0
    for op, _, _ in records:
        repeats += op.model in seen
        seen.add(op.model)
    return repeats / len(records)


def end_to_end(records, scales, failures: int, setup_s: float) -> dict:
    """End-to-end metrics; each op latency is multiplied by its entry in ``scales``."""
    lat = [dt * f for (_, dt, _), f in zip(records, scales)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / sum(lat), "1/s"),
        "op_p50_ms": (percentile_ms(lat, 50), "ms"),
        "op_p90_ms": (percentile_ms(lat, 90), "ms"),
    }
    for kind in KINDS:
        metrics[f"{kind}_p50_ms"] = (percentile_ms([dt for (op, _, _), dt in zip(records, lat) if op.kind == kind], 50),
                                     "ms")
    sim = [(op.path_steps, dt) for (op, _, _), dt in zip(records, lat) if op.kind == "simulate"]
    metrics["path_steps_per_s"] = (sum(n for n, _ in sim) / sum(dt for _, dt in sim) / 1e6, "M/s")
    metrics["ok_frac"] = (1.0 - failures / len(records), "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def repeated_setup(args) -> list[float]:
    """Set-up times of fresh interpreters running this same set-up."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polydiff", "__init__.py")):
        print(f"error: no polydiff sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # warnings the package raises for users (e.g. a large payoff-fit residual)
    # are not benchmark output
    warnings.simplefilter("ignore")
    import polydiff  # noqa: F401
    import polydiff.cli  # noqa: F401
    import yardstick

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, module = make_workload(args.workload, args.seed, workdir)
        warm = workload.warmup_ops()
        for op in warm:
            op.fn()
        setup_s = time.perf_counter() - T_PROCESS
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            return traced_run(args, workload, module)
        setups = [setup_s] + repeated_setup(args)
        yard = yardstick.Yardstick()
        records, loop_s = run_loop(workload, 0, args.seconds, yard=yard)
        t_check = time.perf_counter()
        failures = check_records(records)
        check_s = time.perf_counter() - t_check
        setup_med = statistics.median(setups)
        metrics = end_to_end(records, yard.scales(yard.op_end), len(failures), setup_med)
        wall = end_to_end(records, [1.0] * len(records), len(failures), setup_med)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run is using it
    report(args, records, failures, metrics,
           {"setup_runs_s": setups, "loop_s": loop_s, "model_seen_frac": seen_frac(records),
            "check_s": check_s, "yardstick_ms": yard.median_ms(), "yardstick_slices": len(yard.dur),
            "wall": {k: v for k, (v, _) in wall.items()}})
    return 0


def traced_run(args, workload, module) -> int:
    """Alternate untraced and traced cycles of the op templates, so both
    halves run the same mix under the same machine conditions."""
    import spans

    cycle = len(module.TEMPLATES)
    tracer = spans.Tracer()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    while plain_s + traced_s < args.seconds or len(plain) + len(traced) < MIN_OPS or len(traced) < len(plain):
        first = len(plain) + len(traced)
        if len(traced) < len(plain):
            tracer.install()
            try:
                recs, loop_s = run_loop(workload, first, 0.0, count=cycle, tracer=tracer,
                                        root_span=module.ROOT_SPAN)
            finally:
                tracer.uninstall()
            traced += recs
            traced_s += loop_s
        else:
            recs, loop_s = run_loop(workload, first, 0.0, count=cycle)
            plain += recs
            plain_s += loop_s
    records = plain + traced
    failures = check_records(records)
    layer = tracer.metrics()
    layer["cli.self_s"] = tracer.self_s["cli"]
    layer["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    layer["trace.loop_s"] = traced_s
    layer["workload.model_seen_frac"] = seen_frac(records)
    os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)
    tracer.dump(os.path.join(ROOT, ".bench_trace", f"{args.workload}.npz"))
    metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    report(args, records, failures, metrics, {"spans": len(tracer.span_start)})
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_density"):
        return "fraction"
    if name.endswith("csv_bytes"):
        return "bytes"
    return "count"


def report(args, records, failures, metrics, info) -> None:
    kinds = {k: sum(op.kind == k for op, _, _ in records) for k in KINDS + ("error",)}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(), "ops": len(records), "ops_by_kind": kinds, **info}))
    for msg in failures[:20]:
        print(f"FAILED: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
