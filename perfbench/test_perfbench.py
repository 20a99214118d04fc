"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that job lists are a function of the seed, that a wrong expected
value is counted as a failure, and that one run reports every metric
BENCHMARK.json names, with its unit.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
import worker

ROOT = workloads.ROOT


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def job_list(name, seed):
    wl = workloads.make(name, seed)
    try:
        orders = list(itertools.islice(wl.rounds(), 3))
        return [wl.jobs[i].describe() for order in orders for i in order]
    finally:
        wl.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_a_function_of_the_seed(name):
    first = job_list(name, 7)
    assert first == job_list(name, 7)
    assert first != job_list(name, 8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name,kind,wrong", [
    ("count", "model:salmon", 1),
    ("expand", "porteous:3", 0),
    ("recover", "recover:A0^3", {(1, 1): 1}),
])
def test_wrong_expected_value_fails(name, kind, wrong):
    wl = workloads.make(name, 3)
    i = next(i for i, job in enumerate(wl.jobs) if job.kind == kind)
    assert worker.run_rounds(wl, [[i]])[2:] == (1, 0)
    wl.jobs[i].expect = wrong
    assert worker.run_rounds(wl, [[i]])[2:] == (1, 1)


def test_wrong_cli_output_fails():
    wl = workloads.make("cli", 3)
    try:
        i = next(i for i, job in enumerate(wl.jobs) if job.kind == "cli:readme-3")
        assert worker.run_rounds(wl, [[i]])[2:] == (1, 0)
        wl.jobs[i].expect = "46"
        assert worker.run_rounds(wl, [[i]])[2:] == (1, 1)
    finally:
        wl.close()


def run(*args, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    proc = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_results_carry_every_metric(trace, section):
    code, lines = run("--workload", "recover", "--seed", "1", "--seconds", "1",
                      "--trace", str(trace))
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_traced_counts_repeat_and_unused_layers_are_zero(tmp_path):
    counts = []
    for i in range(2):
        wl = workloads.make("expand", 2)
        # the cheaper half of the job set keeps the test short
        wl.jobs = [job for job in wl.jobs
                   if not job.kind.endswith(("^6", "^7", "mixed5", "mixed6", ":6"))]
        wl.trace_rounds = 1
        _, _, metrics = worker.traced_run(wl, str(tmp_path / f"spans{i}.jsonl"))
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_ms", "_frac"))})
    assert counts[0] == counts[1]
    assert counts[0]["symbolic.mul.calls"] > 0 and counts[0]["tpcore.partitions"] > 0
    for name in ("algebra.mul.calls", "algebra.invert.calls", "oracle.resultant.calls",
                 "interp.solve.cells", "maps.ln.calls", "chow.build.calls"):
        assert counts[0][name] == 0
    assert (tmp_path / "spans0.jsonl").stat().st_size > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("--workload", "count", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
