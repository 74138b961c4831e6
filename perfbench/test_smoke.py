"""Smoke test of the benchmark's own code at toy sizes; no timing assertions.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload with and without tracing, and checks that the
result line parses and carries every metric of BENCHMARK.json with its
unit. It also checks that a library call that raises fails its items
instead of stopping the run, and how item times are scaled to the
nominal host speed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the library, for workloads.py

import hostspeed  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import PassResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_traced_counts_repeat_for_the_same_seed():
    first, second = (result_of(run_bench("frame-kinematics", 1))["metrics"] for _ in range(2))
    counted = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "ratio", "entries/use")]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}


def test_segments_scale_by_the_kernel_time_around_them():
    out = PassResult(segments=[1.0, 2.0, 3.0], refs=[hostspeed.NOMINAL_S] * 2 + [2 * hostspeed.NOMINAL_S] * 2)
    # kernel medians over refs[0:3], refs[0:4], refs[1:4]: nominal, 1.5x, 2x
    assert out.scaled_segments() == pytest.approx([1.0, 2.0 / 1.5, 1.5])
    assert PassResult(segments=[1.0, 2.0]).scaled_segments() == [1.0, 2.0]
    out.whole_pass = True
    out.add(6.0, True)
    assert out.scaled_latencies() == pytest.approx([1.0 + 2.0 / 1.5 + 1.5])


def copy_checkout(into, with_src):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
    for name in ("perfbench", "src") if with_src else ("perfbench",):
        shutil.copytree(os.path.join(ROOT, name), into / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
def test_a_raising_call_fails_its_items(tmp_path, trace):
    copy_checkout(tmp_path, with_src=True)
    with open(tmp_path / "src" / "poincare_cgc" / "states.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef gram_matrix(states):\n    raise RuntimeError('injected')\n")
    proc = run_bench("partial-wave", trace, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert f"error RuntimeError raised in {result['failed']} items" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = run_bench("cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
