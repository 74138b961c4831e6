"""Measuring process of the benchmark; run.py starts it and reads its JSON.

    python3 perfbench/worker.py setup|measure|trace WORKLOAD SEED SECONDS TINY

setup    build the workload's inputs in this fresh interpreter and report how
         long that took, and the reference kernel's time right after
         (hostspeed.py), then exit.
measure  set up, then repeat untraced passes for about SECONDS. Between
         passes, time the set-up of fresh interpreters (setup mode), spread
         over the window so that they meet the host in the same phases as
         the passes do; setup_s is the median of their scaled times.
trace    as measure, then run one more pass with every traced library
         function wrapped, and report the per-layer values of that pass.

The first statement starts the set-up clock, so a set-up time covers the
import of poincare_cgc as well as input generation. The environment
(PYTHONPATH, thread pins) comes from run.py.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (imports poincare_cgc)

OUT_DIR = os.path.join("perfbench", "out")
# Fresh interpreters timed per run for setup_s, this one included.
SETUP_SAMPLES = 7


def main(argv):
    mode, name, seed, seconds, tiny = argv
    # One CPU for the measured work, the reference kernel and every child
    # (cli commands, set-up samples), so that the kernel reads the speed of
    # the CPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed, seconds, tiny = int(seed), float(seconds), tiny == "1"
    kwargs = {"in_process": True} if (mode == "trace" and name == "cli") else {}
    workload = workloads.WORKLOADS[name](seed, tiny, **kwargs)
    setup_s = time.perf_counter() - START
    # also the kernel's warm-up before the first pass
    setup = [(setup_s, hostspeed.settled_kernel_time())]
    if mode == "setup":
        return {"setup": setup[0]}

    samples = 1 if tiny else SETUP_SAMPLES
    passes = []
    measured = 0.0  # seconds spent in passes; set-up samples add to the run, not the window
    # Stop before a pass of average length would overrun the window, so a
    # run measures about SECONDS whatever the length of a pass.
    while not passes or measured * (len(passes) + 1) / len(passes) <= seconds:
        start = time.perf_counter()
        passes.append(workload.run_pass())
        measured += time.perf_counter() - start
        share = min(1.0, measured / seconds) if seconds else 1.0
        while len(setup) < 1 + (samples - 1) * share:
            setup.append(_setup_sample(name, seed, tiny))
    while len(setup) < samples:
        setup.append(_setup_sample(name, seed, tiny))
    # cli commands run in child processes; every other workload runs here
    who = resource.RUSAGE_CHILDREN if name == "cli" and mode == "measure" else resource.RUSAGE_SELF
    result = {
        "setup": setup,
        "sizes": workload.sizes(),
        "passes": [_summary(p) for p in passes],
        "latencies": [t for p in passes for t in p.latencies],
        "scaled_latencies": [t for p in passes for t in p.scaled_latencies()],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if mode == "trace":
        result["layers"] = _traced_pass(workload, name, seed, passes)
    return result


def _setup_sample(name, seed, tiny):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", name, str(seed), "0", "1" if tiny else "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup"]


def _summary(p):
    return {
        "items": p.items,
        "failed": p.failed,
        "timed_s": p.timed_s,
        "scaled_s": sum(p.scaled_segments()),
        "kernel_s": statistics.median(p.refs) if p.refs else None,
        "residuals": p.residuals,
        "info": p.info,
        "errors": p.errors,
        "tracebacks": p.tracebacks,
    }


def _traced_pass(workload, name, seed, untraced):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording():
            traced = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    layers = tracer.layer_metrics()
    layers["cli.stdout_bytes"] = traced.info.get("stdout_bytes", 0)
    # wall_s is the mean pass time of the untraced loop
    layers["trace.overhead_s"] = traced.timed_s - statistics.fmean(p.timed_s for p in untraced)
    return {"layers": layers, "pass": _summary(traced), "spans": len(tracer.spans)}


if __name__ == "__main__":
    json.dump(main(sys.argv[1:]), sys.stdout)
    sys.stdout.write("\n")
