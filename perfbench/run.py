"""Benchmark for the wittpadics library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report-heavy

Each workload runs as a single-threaded closed loop: one caller in one
process sends the next operation only after the previous one returned.  A
run times whole passes over the seeded operation list, so every run times
the same operations.  Every result is checked by an oracle outside the
timed region.  The last line of standard output is one JSON object; with
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  --report-heavy runs each cell too slow for the
timed workloads once, in a child process cut after HEAVY_BUDGET_S seconds,
and reports its time or `dnf`.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from cli_ops import run_cli_inprocess, run_cli_subprocess
from spans import Recorder, install, layer_metrics, shares
from workloads import WORKLOADS, Checker, generate, make_runner, warm_up

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
PROCESS_PROBES = 7
HEAVY_BUDGET_S = 30

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}
PROCESS_METRICS = ("cli.interpreter_s", "cli.import_s", "cli.command_s")


def load_library():
    """Import wittpadics from this checkout's src/, never from anywhere else."""
    pkg_dir = SRC / "wittpadics"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no wittpadics sources at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import wittpadics
    import wittpadics.cli

    if Path(wittpadics.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"error: imported wittpadics from {wittpadics.__file__}, not {pkg_dir}")
    return SimpleNamespace(
        package=wittpadics,
        primes=wittpadics.primes,
        padic=wittpadics.padic,
        witt=wittpadics.witt,
        analytic=wittpadics.analytic,
        roots=wittpadics.roots,
        cli=wittpadics.cli,
        PAdicNumber=wittpadics.PAdicNumber,
    )


def child_env() -> dict:
    """Environment for child processes: this checkout's src/, no user config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["HOME"] = str(OUT)
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("WITTPADICS_PRECISION", None)
    return env


def setup(workload: str, seed: int):
    """Import, input generation and warm-up; returns (lib, ops, seconds)."""
    t0 = time.perf_counter()
    lib = load_library()
    ops = generate(workload, random.Random(f"{workload}/{seed}"))
    if workload != "cli":  # a CLI user pays the cold start on every call
        warm_up(lib, ops)
    return lib, ops, time.perf_counter() - t0


def probe_setup(workload: str, seed: int, probes: int) -> float:
    """Median set-up time over fresh child processes."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            env=child_env(), capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(call, check, ops):
    """One closed-loop pass over ops.

    Returns the per-operation latencies and the number of failed operations:
    a result its oracle rejects or an exception the library raised.
    """
    latencies, failed = [], 0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result, error = call(i, op), None
        except Exception as exc:  # any raise is a failed operation, reported below
            result, error = None, exc
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                ok = check(op, result)
            except Exception as exc:  # an unparsable result fails its check
                ok, error = False, exc
        if error is not None or not ok:
            failed += 1
            if failed <= 5:
                print(f"FAILED {str(op)[:200]}: {error!r}", file=sys.stderr)
    return latencies, failed


def measure(call, check, ops, seconds):
    """Whole passes over ops: at least one, and another only while it should end
    within `seconds` at the mean pass time so far.

    Returns one latency list per pass and the number of failed operations.
    """
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        latencies, f = run_pass(call, check, ops)
        passes.append(latencies)
        failed += f
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, failed


def quantile_ms(latencies, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of latencies, in ms.

    It is a mean of all order statistics weighted by the Beta((n+1)q,
    (n+1)(1-q)) density over each one's share of [0, 1].  Near the median of
    the wide search costs adjacent order statistics differ by 5-10%, so the
    one or two that a plain percentile reads move it far more from run to run.
    """
    xs = sorted(latencies)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule over each [i/n, (i+1)/n]
    total = weights = 0.0
    for i, x in enumerate(xs):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        w = sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) for t in ts)
        total += w * x
        weights += w
    return total / weights * 1e3


def run_end_to_end(workload, seed, seconds, probes=SETUP_PROBES, limit=None):
    """End-to-end metrics over whole passes; limit cuts the pass short (self-tests)."""
    lib, ops, _ = setup(workload, seed)
    ops = ops[:limit]
    cli_call = partial(run_cli_subprocess, child_env())
    run = make_runner(lib, cli_call)
    passes, failed = measure(lambda i, op: run(op), Checker(workload), ops, seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # before the set-up probes run
    # Each operation's latency is its median over the passes, and throughput is
    # the pass length over the median pass time, so that a slow stretch of the
    # host during one of several passes moves neither.
    per_op = [statistics.median(col) for col in zip(*passes)]
    n = len(ops) * len(passes)
    metrics = {
        "setup_s": probe_setup(workload, seed, probes),
        "ops_per_s": len(ops) / statistics.median(sum(p) for p in passes),
        "op_p50_ms": quantile_ms(per_op, 0.5),
        "op_p90_ms": quantile_ms(per_op, 0.9),
        "success_frac": 1 - failed / n,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{workload} seed {seed}: {len(passes)} passes of {len(ops)} operations, {failed} failed; "
          f"Harrell-Davis p50 and p90 over {len(ops)} per-operation medians", file=sys.stderr)
    return n, failed, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def _median_wall(argv, env, runs) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def process_metrics(command_latencies, runs=PROCESS_PROBES) -> dict:
    """Interpreter start and package import as median child-process walls; the
    command itself is the median untraced in-process cli.main call."""
    env = child_env()
    interp = _median_wall([sys.executable, "-c", "pass"], env, runs)
    imported = _median_wall([sys.executable, "-c", "import wittpadics.cli"], env, runs)
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": imported - interp,
        "cli.command_s": statistics.median(command_latencies),
    }


def run_traced(workload, seed, limit=None):
    """One untraced pass, then the same pass traced; limit cuts the pass short (self-tests).

    The traced pass covers a fixed set of operations, and layer_metrics reports
    per traced operation, so the figures do not depend on --seconds or on how
    fast the host is.  The untraced pass comes first, so that neither pass
    pays the interpreter's first-pass costs alone.
    """
    lib, ops, _ = setup(workload, seed)
    ops = ops[:limit]
    run = make_runner(lib, partial(run_cli_inprocess, lib.cli))
    check = Checker(workload)
    lat_u, failed_u = run_pass(lambda i, op: run(op), check, ops)
    rec = Recorder()
    undo = install(lib, rec)
    try:
        lat_t, failed_t = run_pass(lambda i, op: rec.run_op(i, run, op), check, ops)
    finally:
        undo()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(rec, len(ops)).items()}
    procs = process_metrics(lat_u) if workload == "cli" else dict.fromkeys(PROCESS_METRICS, 0.0)
    for k, v in procs.items():
        metrics[k] = {"value": v, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": sum(lat_t) / sum(lat_u) - 1, "unit": "ratio"}

    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{workload}-{seed}.tsv.gz")
    total, tail = shares(rec)
    print(f"{workload} seed {seed}: {len(ops)} traced operations, {len(rec)} spans", file=sys.stderr)
    for title, rows in (("self-time share, all operations", total),
                        ("self-time share, operations at or above p90", tail)):
        print(f"  {title}:", file=sys.stderr)
        for share, name in rows[:6]:
            print(f"    {share:6.1%}  {name}", file=sys.stderr)
    return 2 * len(ops), failed_u + failed_t, metrics


# ------------------------------------------------------------- heavy cells

def _heavy_cells():
    rng = random.Random(0)

    def unit_power(p, K, m):
        u = rng.randrange(1, p**K)
        while u % p == 0:
            u = rng.randrange(1, p**K)
        return pow(u, m, p**K)

    def digits(p, K):
        return tuple(rng.randrange(p) for _ in range(K))

    p61 = 2**61 - 1
    cells = {
        "general_root(x,3) p=2^61-1 K=8": ("gen", p61, 8, 3, unit_power(p61, 8, 3)),
        "flt_local_witness p=10007": ("flt", 10007),
        "pk_root(x,1) p=11 K=512": ("pk", 11, 512, 1, unit_power(11, 512, 11)),
    }
    for p, K in ((101, 128), (1000003, 64), (1000003, 128)):
        cells[f"pk_root(x,1) p={p} K={K}"] = ("pk", p, K, 1, unit_power(p, K, p))
        cells[f"witt_mul p={p} K={K}"] = ("wmul", p, digits(p, K), digits(p, K))
    return cells


def run_heavy_cell(name) -> None:
    op = _heavy_cells()[name]
    lib = load_library()
    run = make_runner(lib, None)
    t0 = time.perf_counter()
    result = run(op)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "correct": bool(Checker("heavy")(op, result))}))


def report_heavy() -> None:
    """Each heavy cell once, one at a time, in a child process cut at HEAVY_BUDGET_S."""
    for name in _heavy_cells():
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--heavy-cell", name],
                env=child_env(), capture_output=True, text=True, timeout=HEAVY_BUDGET_S, check=True,
            )
            row = {"cell": name, "status": "finished", **json.loads(proc.stdout.splitlines()[-1])}
        except subprocess.TimeoutExpired:
            row = {"cell": name, "status": "dnf", "budget_s": HEAVY_BUDGET_S}
        except subprocess.CalledProcessError as exc:
            row = {"cell": name, "status": "error", "stderr": exc.stderr.strip()[-300:]}
        print(json.dumps(row), flush=True)


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report-heavy", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--heavy-cell", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ["HOME"] = str(OUT)  # the in-process CLI must not read a user config
    os.environ.pop("WITTPADICS_PRECISION", None)
    if args.heavy_cell:
        run_heavy_cell(args.heavy_cell)
        return 0
    if args.report_heavy:
        report_heavy()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(setup(args.workload, args.seed)[2])
        return 0
    if args.trace:
        n, failed, metrics = run_traced(args.workload, args.seed)
    else:
        n, failed, metrics = run_end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
