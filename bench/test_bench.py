"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py

They check the self-time arithmetic on a synthetic span tree, that two
traced runs of one seed give identical counts, that the runner emits exactly
the metrics ``BENCHMARK.json`` declares, and that the runner refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from spans import self_times

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
COUNTS = (
    "numpy.eig.calls",
    "numpy.eig.n3",
    "analysis.gap_evals_per_root",
    "srm.verify_theorem1.eig_per_call",
)


def run(workload: str, seed: int, trace: int, cwd: str = ROOT, script: str = RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def result(workload: str, seed: int, trace: int) -> dict:
    return outcome(workload, seed, trace)[1]


def outcome(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    detail, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(last)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        # id, parent, op, name, start, end, failed
        (1, 0, 0, "root", 0.0, 10.0, False),
        (2, 1, 0, "a", 1.0, 3.0, False),
        (3, 1, 0, "b", 2.0, 5.0, False),  # overlaps a: union [1, 5]
        (4, 1, 0, "c", 8.0, 12.0, True),  # overhangs root: counts [8, 10]
        (5, 3, 0, "d", 2.5, 4.0, False),  # grandchild: not subtracted from root
        (6, 1, 0, "e", 1.5, 2.5, False),  # inside a: adds nothing
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0 - 1.5)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(1.5)


@pytest.mark.parametrize("workload", ["defaults", "sweep_large", "certify"])
def test_two_traced_runs_give_identical_counts(workload):
    first = result(workload, 5, 1)
    second = result(workload, 5, 1)
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    calls = [k for k in first["metrics"] if k.endswith((".calls", ".failed"))]
    assert calls
    for name in calls:
        assert first["metrics"][name] == second["metrics"][name], name


def test_counts_of_the_named_layers():
    detail, last = outcome("defaults", 5, 1)
    metrics = last["metrics"]
    # 100 fig2 and 100 fig3 points, each one bisection and one 4x4 oracle
    assert metrics["analysis.optimize_prior_4pam.calls"]["value"] == 200
    assert metrics["srm.verify_theorem1.eig_per_call"]["value"] == 4
    assert metrics["analysis.gap_evals_per_root"]["value"] > 2
    # every op that raised did so in the fast path; one untraced and one
    # traced cycle ran
    assert detail["pairs"] == 1
    raised = sum(detail["raised_by_kind"].values())
    assert raised == last["failed"] == 2 * metrics["gus.fast_srm.failed"]["value"]


def test_runner_emits_exactly_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = result("certify", 3, trace)["metrics"]
        assert {k: v["unit"] for k, v in emitted.items()} == declared


def test_runner_refuses_a_directory_without_sources():
    bare = os.path.join(BENCH, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("defaults", 1, 0, cwd=bare, script=os.path.join(bare, "bench", "run.py"))
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
