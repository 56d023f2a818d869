"""Smoke tests of the benchmark itself.  Not in the tier-1 ``testpaths``:

    python3 -m pytest bench/
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_py(*args, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    started = time.perf_counter()
    done = run_py("--quick", "--seed", "1", "--out", str(out))
    seconds = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return seconds, done.stdout, json.load(handle)


def test_quick_run_emits_every_named_metric(quick):
    seconds, stdout, result = quick
    assert seconds < 30
    assert list(result["workloads"]) == list(WORKLOADS)
    for name, workload in result["workloads"].items():
        timed, traced = workload["timed"], workload["traced"]
        assert timed["samples"] == 2 and timed["attempted"] == 3  # warm-up + 2 iterations
        assert timed["failed_frac"] == 0 and traced["failed"] == 0, (timed, traced["problems"])
        assert list(timed["end_to_end"]) == [metric for metric, *_ in END_TO_END]
        assert all(value > 0 for value in timed["end_to_end"].values())
        assert timed["raw_wall_clock"]["run_s_p50"] > 0
        assert list(traced["per_layer"]) == [metric for metric, *_ in PER_LAYER]
        assert traced["iterations"] == 2
        for metric, cell in traced["per_layer"].items():
            assert NAME.fullmatch(metric) and metric in stdout
            assert cell["unit"]
        assert traced["per_layer"]["sim.host_rounds"]["value"] == timed["counts"]["sim.host_rounds"]
    assert set(result["environment"]) == {
        "python", "numpy", "nproc", "cpu_model", "thread_env", "git_sha", "seed"
    }


def test_benchmark_json_repeats_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == list(WORKLOADS.items())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace, tables", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_contract_last_line(trace, tables):
    done = run_py("--workload", "agent_lossy", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == RESULT_KEYS and line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {m: cell["unit"] for m, cell in line["metrics"].items()} == {
        metric: unit for metric, unit, *_ in tables
    }


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_py(
        "--workload", "agent_lossy", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"),
    )
    assert done.returncode != 0 and "correct" not in done.stdout


@pytest.fixture(scope="module")
def agent_lossy(tmp_path_factory):
    return workloads.build("agent_lossy", 3, str(tmp_path_factory.mktemp("scratch")))


def test_corrupted_result_is_a_failed_operation(agent_lossy):
    outcome = agent_lossy.iterate()
    assert checks.validate("agent_lossy", outcome) == []
    reference = checks.digest(outcome)

    wrong_survivors = copy.deepcopy(outcome)
    wrong_survivors.runs[0][1].rounds[-1].n_alive += 1
    truncated = copy.deepcopy(outcome)
    truncated.runs[0][1].rounds.pop()
    drifted = copy.deepcopy(outcome)
    drifted.runs[0][1].rounds[-1].mean_estimate *= 1.05
    nudged = copy.deepcopy(outcome)
    nudged.runs[0][1].rounds[0].stddev_error += 1e-12
    assert checks.validate("agent_lossy", wrong_survivors)
    assert checks.validate("agent_lossy", truncated)
    assert checks.validate("agent_lossy", drifted)
    assert checks.validate("agent_lossy", nudged) == []
    assert checks.validate("agent_lossy", nudged, reference)  # determinism check

    class Corrupting:
        name = "agent_lossy"

        def iterate(self, probe=None):
            return wrong_survivors

    block = child.Block(Corrupting())
    assert block.attempt() is None
    assert (block.attempted, block.failed) == (1, 1) and block.problems


def test_compare_flags_a_regression(quick, capsys):
    _seconds, _stdout, result = quick
    assert compare.compare(result, result) == 0
    slower = copy.deepcopy(result)
    row = slower["workloads"]["ring_exchange"]["timed"]
    for cells in [row["end_to_end"], *row["blocks"]]:
        cells["run_s_p50"] *= 1.5
    assert compare.compare(result, slower) == 1
    assert "REGRESSED" in capsys.readouterr().out
    failing = copy.deepcopy(result)
    failing["workloads"]["agent_lossy"]["timed"]["failed_frac"] = 0.5
    assert compare.compare(result, failing) == 1
