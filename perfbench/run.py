"""Benchmark of poincare_cgc: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload partial-wave --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for what each runs and why):
partial-wave, frame-kinematics, rotate-serialize, cli. BENCHMARK.json
lists all four.

--trace 0 measures with tracing off and reports the end-to-end metrics:
setup_s, items_per_s, wall_s (mean time of a pass), item_p50_ms,
item_tail_ms and peak_rss_mb. The timed ones are scaled to the nominal
host speed: a fixed reference kernel (hostspeed.py) is timed between
items, and each item's time is scaled by the kernel's time around it, so
that the host's changes of speed drop out. The wall clock values are
printed beside them (see COVERAGE.md).
--trace 1 makes the same untraced measurement, then one traced pass, and
reports the per-layer metrics of that pass (see tracing.py), the import
times from ``python -X importtime`` and trace.overhead_s. These are wall
clock values, not scaled.

Each workload runs in one measuring process (worker.py) at a time, on one
CPU, with the BLAS/OpenMP thread variables pinned to 1 and
PYTHONHASHSEED=0. setup_s is the median over seven fresh interpreters
whose set-up is timed at points spread over the measuring window, each
scaled by the kernel's time right after it. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it record the environment, the worst residual
of every check, the exceptions that failed items, the tail percentile
with its sample count and the failure ratio. Exit status is 0 when every
item passed its check, 1 when any failed and 2 when the benchmark could
not run (for example outside a checkout with src/).

--tiny runs every workload at toy sizes with a single set-up sample; the
smoke test (test_smoke.py) uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("partial-wave", "frame-kinematics", "rotate-serialize", "cli")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
IMPORT_RUNS = 5
# Every child process of a run must end within this many seconds of its start.
RUN_DEADLINE = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def layer_unit(name: str) -> str:
    for suffix, unit in (
        (".calls", "count"),
        ("_ratio", "ratio"),
        (".entries_per_use", "entries/use"),
        (".gflops", "GFLOP/s"),
        (".mb_per_s", "MB/s"),
        (".stdout_bytes", "B"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def child(argv, env, deadline) -> subprocess.CompletedProcess:
    """Run argv to completion in its own process group, killing the group at the deadline."""
    timeout = max(0.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{' '.join(argv[:4])} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv[:4])} exited {proc.returncode}:\n{err}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def worker(mode, args, env, deadline) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
            str(args.seed), str(args.seconds), "1" if args.tiny else "0"]
    return json.loads(child(argv, env, deadline).stdout.splitlines()[-1])


def import_times(env, runs, deadline) -> dict:
    """Cumulative import seconds of the package and of scipy.special, medians."""
    found = {"poincare_cgc": [], "scipy.special": []}
    for _ in range(runs):
        err = child([sys.executable, "-X", "importtime", "-c", "import poincare_cgc"], env, deadline).stderr
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found and fields[1].strip().isdigit():
                found[fields[2].strip()].append(int(fields[1]) / 1e6)
    if not all(found.values()):
        raise BenchmarkError("python -X importtime did not report the package import")
    return {
        "import.poincare_cgc_s": statistics.median(found["poincare_cgc"]),
        "import.scipy_special_s": statistics.median(found["scipy.special"]),
    }


def tail(latencies):
    """Median, and the highest percentile with at least ten items beyond it.

    With fewer than 21 items no percentile at or above the median has ten
    items beyond it, and the tail is reported as the median.
    """
    xs = sorted(latencies)
    n = len(xs)
    p50 = statistics.median(xs)
    if n >= 21:
        return p50, xs[n - 11], 100.0 * (n - 10) / n
    return p50, p50, 50.0


def timed_metrics(result, scaled) -> dict:
    """The timed end-to-end metrics, at the nominal host speed or as measured."""
    if scaled:
        setup = [s * hostspeed.NOMINAL_S / k for s, k in result["setup"]]
        timed = [p["scaled_s"] for p in result["passes"]]
        latencies = result["scaled_latencies"]
    else:
        setup = [s for s, _ in result["setup"]]
        timed = [p["timed_s"] for p in result["passes"]]
        latencies = result["latencies"]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(p["items"] for p in result["passes"]) / sum(timed),
        "wall_s": sum(timed) / len(timed),
        "item_p50_ms": 1e3 * tail(latencies)[0],
        "item_tail_ms": 1e3 * tail(latencies)[1],
    }


def revision() -> dict:
    """Git revision when run in a git checkout, and a hash of src/ always."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    git = None
    if os.path.isdir(".git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                                  capture_output=True, text=True, timeout=30)
            git = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git": git, "src_sha256": digest.hexdigest()}


def environment(args, env, sizes, attempted) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": revision(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
        "sizes": sizes,
        "items": attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "poincare_cgc", "__init__.py")):
        print("run.py: src/poincare_cgc not found; run from the repository root",
              file=sys.stderr)
        return 2

    # A fixed hash seed keeps the traced counts exact from run to run.
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0",
               **{var: "1" for var in THREAD_VARS})
    deadline = time.monotonic() + RUN_DEADLINE
    try:
        result = worker("trace" if args.trace else "measure", args, env, deadline)
        imports = import_times(env, 1 if args.tiny else IMPORT_RUNS, deadline) if args.trace else {}
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    passes = result["passes"]
    if args.trace:
        passes = passes + [result["layers"]["pass"]]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print("env " + json.dumps(environment(args, env, result["sizes"], attempted)))
    for name in sorted({k for p in passes for k in p["residuals"]}):
        worst = max(p["residuals"].get(name, 0.0) for p in passes)
        print(f"check {name} worst residual {worst:.3e}")
    for name in sorted({k for p in passes for k in p["info"]}):
        print(f"info {name} {max(p['info'][name] for p in passes):.3e} (recorded, not gated)")
    for name in sorted({k for p in passes for k in p["errors"]}):
        print(f"error {name} raised in {sum(p['errors'].get(name, 0) for p in passes)} items")
        first = next(p["tracebacks"][name] for p in passes if name in p["tracebacks"])
        print(f"run.py: first {name} of the run:\n{first}", file=sys.stderr)

    if args.trace:
        values = {**imports, **result["layers"]["layers"]}
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
        print(f"trace {result['layers']['spans']} spans in one traced pass")
    else:
        values = timed_metrics(result, scaled=True)
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        raw = timed_metrics(result, scaled=False)
        kernel = statistics.median(p["kernel_s"] for p in result["passes"])
        print(f"passes {len(result['passes'])}, setup samples {len(result['setup'])}")
        print(f"host reference kernel median {1e3 * kernel!r} ms, nominal"
              f" {1e3 * hostspeed.NOMINAL_S!r} ms; wall clock before scaling: "
              + ", ".join(f"{name} {value!r}" for name, value in raw.items()))
        pct = tail(result["scaled_latencies"])[2]
        print(f"item_tail_ms is p{pct:.1f} of {len(result['scaled_latencies'])} item latencies")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"fail_ratio {failed / attempted!r} ({failed} of {attempted} items failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
