"""Tests for the CI perf-regression gate (benchmarks/compare_bench.py)."""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.perf import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_SIZES,
    SMOKE_SIZES,
    compare_benchmarks,
    render_comparison,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
COMPARE_SCRIPT = os.path.join(REPO_ROOT, "benchmarks", "compare_bench.py")
COMMITTED_BASELINE = os.path.join(REPO_ROOT, "BENCH_core.json")


def record(protocol="push-sum-revert", backend="agent", n_hosts=1024, mean=0.1):
    return {
        "protocol": protocol,
        "backend": backend,
        "n_hosts": n_hosts,
        "rounds": 10,
        "repeats": 3,
        "best_seconds": mean * 0.9,
        "mean_seconds": mean,
    }


def scale(entry, factor):
    """Make every repeat of ``entry`` ``factor`` times slower (or faster)."""
    entry["best_seconds"] *= factor
    entry["mean_seconds"] *= factor


def payload(records):
    return {"benchmark": "core-backends", "schema_version": 1, "records": records}


def baseline_payload():
    return payload(
        [
            record(backend="agent", n_hosts=1024, mean=0.2),
            record(backend="vectorized", n_hosts=1024, mean=0.01),
            record(protocol="count-sketch-reset", backend="agent", n_hosts=1024, mean=0.5),
        ]
    )


class TestCompareBenchmarks:
    def test_smoke_cells_exist_in_the_default_configuration(self):
        # The bench-gate compares a smoke run against the committed
        # baseline, so a baseline regenerated with the plain defaults must
        # contain every smoke cell — and the committed file must, too.
        assert set(SMOKE_SIZES) <= set(DEFAULT_SIZES)
        with open(COMMITTED_BASELINE) as handle:
            baseline = json.load(handle)
        cells = {(r["protocol"], r["backend"], r["n_hosts"]) for r in baseline["records"]}
        for protocol in baseline["config"]["protocols"]:
            for size in SMOKE_SIZES:
                assert (protocol, "vectorized", size) in cells

    def test_identical_payloads_pass(self):
        report = compare_benchmarks(baseline_payload(), baseline_payload())
        assert report["compared"] == 3
        assert report["regressions"] == []
        assert "OK" in render_comparison(report)

    def test_synthetic_regression_fails(self):
        candidate = baseline_payload()
        scale(candidate["records"][0], 10.0)  # inject a 10x slowdown
        report = compare_benchmarks(baseline_payload(), candidate)
        assert len(report["regressions"]) == 1
        row = report["regressions"][0]
        assert (row["protocol"], row["backend"]) == ("push-sum-revert", "agent")
        assert row["ratio"] == pytest.approx(10.0)
        assert "FAIL" in render_comparison(report)

    def test_speedups_and_threshold_boundary_pass(self):
        candidate = baseline_payload()
        scale(candidate["records"][0], 0.2)  # 5x faster
        scale(candidate["records"][2], 1.99)  # just under the 2x gate
        report = compare_benchmarks(baseline_payload(), candidate)
        assert report["regressions"] == []
        statuses = {row["status"] for row in report["rows"]}
        assert "fast" in statuses and "REGRESSION" not in statuses

    def test_sub_noise_floor_records_never_gate(self):
        base = payload([record(backend="vectorized", n_hosts=256, mean=0.0004)])
        candidate = copy.deepcopy(base)
        scale(candidate["records"][0], 50.0)
        report = compare_benchmarks(base, candidate)
        assert report["regressions"] == []
        assert report["rows"][0]["status"] == "noise"
        assert DEFAULT_MIN_SECONDS > 0.0004

    def test_the_gate_reads_the_best_repeat_not_the_mean(self):
        # One cold repeat triples the mean but leaves the best untouched:
        # warm-up, not a regression.  A slower *best* is one.
        cold = baseline_payload()
        cold["records"][0]["mean_seconds"] *= 3.0
        assert compare_benchmarks(baseline_payload(), cold)["regressions"] == []
        slower = baseline_payload()
        slower["records"][0]["best_seconds"] *= 3.0
        report = compare_benchmarks(baseline_payload(), slower)
        (row,) = report["regressions"]
        assert row["ratio"] == pytest.approx(3.0)
        assert row["baseline_seconds"] == pytest.approx(0.18)
        # Payloads written before ``best_seconds`` existed gate on the mean.
        old_base, old_slow = baseline_payload(), baseline_payload()
        for entry in old_base["records"] + old_slow["records"]:
            del entry["best_seconds"]
        old_slow["records"][0]["mean_seconds"] *= 3.0
        assert len(compare_benchmarks(old_base, old_slow)["regressions"]) == 1

    def test_one_sided_records_are_listed_not_gated(self):
        base = baseline_payload()
        candidate = payload(base["records"][:1] + [record(n_hosts=999999, mean=0.3)])
        report = compare_benchmarks(base, candidate)
        assert report["compared"] == 1
        assert len(report["baseline_only"]) == 2
        assert len(report["candidate_only"]) == 1

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_benchmarks(baseline_payload(), baseline_payload(), threshold=1.0)
        with pytest.raises(ValueError):
            compare_benchmarks(baseline_payload(), baseline_payload(), min_seconds=-1)


class TestCompareScript:
    """End-to-end through the script CI runs."""

    def run_script(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, COMPARE_SCRIPT, *argv],
            capture_output=True, text=True, env=env,
        )

    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_committed_baseline_passes_against_itself(self):
        completed = self.run_script(COMMITTED_BASELINE, COMMITTED_BASELINE)
        assert completed.returncode == 0, completed.stderr
        assert "OK" in completed.stdout

    def test_injected_regression_exits_nonzero(self, tmp_path):
        with open(COMMITTED_BASELINE) as handle:
            candidate = json.load(handle)
        slowed = max(
            (r for r in candidate["records"] if r["best_seconds"] >= DEFAULT_MIN_SECONDS),
            key=lambda r: r["best_seconds"],
        )
        scale(slowed, 10.0)
        completed = self.run_script(
            COMMITTED_BASELINE, self.write(tmp_path, "cand.json", candidate)
        )
        assert completed.returncode == 1
        assert "FAIL" in completed.stdout and "REGRESSION" in completed.stdout

    def test_disjoint_payloads_exit_usage_error(self, tmp_path):
        left = self.write(tmp_path, "left.json", payload([record(n_hosts=1)]))
        right = self.write(tmp_path, "right.json", payload([record(n_hosts=2)]))
        completed = self.run_script(left, right)
        assert completed.returncode == 2
        assert "no benchmark records" in completed.stderr

    def test_unreadable_payload_exits_usage_error(self, tmp_path):
        completed = self.run_script(COMMITTED_BASELINE, str(tmp_path / "missing.json"))
        assert completed.returncode == 2
