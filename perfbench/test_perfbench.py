"""Self-tests of the benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serving.server as serving
from repro.core import CPPResult
from repro.workloads.synthetic import ITEMS

from perfbench import spans
from perfbench.calibration import CALLS_PER_SAMPLE, HostSpeed
from perfbench.harness import END_TO_END, PER_LAYER, Run, end_to_end, measure, per_layer, timed_setup
from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _workload(name, tmp_path, seed=7):
    return WORKLOADS[name](seed, size="tiny", work_dir=tmp_path)


def _comparable(name, given):
    if name == "solve_qc":
        problem, count, exists = given
        return problem.database.relation(ITEMS).rows(), count, exists
    return given


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    streams = []
    for seed in (7, 7, 8):
        workload = _workload(name, tmp_path / str(len(streams)), seed)
        workload.setup()
        streams.append([_comparable(name, workload.next_input()) for _ in range(20)])
        getattr(workload, "close", lambda: None)()
    assert streams[0] == streams[1]
    assert streams[0] != streams[2]


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in END_TO_END + PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")


def test_benchmark_json_matches_the_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_run_passes_its_checks(name, tmp_path):
    metrics, run, _ = end_to_end(_workload(name, tmp_path), seconds=0.3)
    assert run.failures == {}
    assert run.attempted >= 1
    assert set(metrics) == {name for name, _, _ in END_TO_END}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_passes_its_checks_and_accounts_for_op_time(name, tmp_path):
    metrics, run = per_layer(_workload(name, tmp_path), seconds=0.1)
    assert run.failures == {}
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["resilience.deadline.timeouts"] == 0
    assert metrics["trace.unattributed_share"] < 0.05


def test_traced_counts_repeat_exactly_on_a_single_threaded_workload(tmp_path):
    first, _ = per_layer(_workload("solve_qc", tmp_path), seconds=0.1)
    second, _ = per_layer(_workload("solve_qc", tmp_path), seconds=0.1)
    for name, unit, _ in PER_LAYER:
        # The plan cache is process-wide and bounded, so its counts depend
        # on what ran before in the process.
        if unit == "count" and not name.startswith("plan.cache."):
            assert first[name] == second[name], name


def test_a_wrong_solver_answer_fails_the_run(tmp_path, monkeypatch):
    real = serving.count_valid_packages

    def off_by_one(problem, rating_bound, **kwargs):
        result = real(problem, rating_bound, **kwargs)
        return CPPResult(result.count + 1, result.rating_bound, result.by_size)

    monkeypatch.setattr(serving, "count_valid_packages", off_by_one)
    _, run, _ = end_to_end(_workload("solve_qc", tmp_path), seconds=0.2)
    assert any("CPP" in reason for reason in run.failures.values())


def test_a_commit_missing_from_the_log_fails_recovery(tmp_path):
    workload = _workload("ingest_durable", tmp_path)
    run = Run()
    timed_setup(workload, run)
    measure(workload, run, ops=3)
    wal = workload.database.detach_wal()
    workload.database.apply_delta([("insert", ITEMS, (10**9, "c0", 1, 1))])
    workload.database.attach_wal(wal)
    _, failures = workload.finish()
    assert any("recovered" in reason for _, reason in failures)


def test_attribution_splits_self_time_and_shares_concurrent_instants():
    single = [("a", 1, 0.0, 10.0), ("b", 1, 2.0, 5.0), ("c", 1, 3.0, 4.0), ("b", 1, 6.0, 7.0)]
    assert spans.attribute(single) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    # Main thread waits in serving.batch while two workers overlap on 3..5.
    threads = [("serving.batch", 1, 0.0, 10.0), ("x", 2, 1.0, 5.0), ("y", 3, 3.0, 7.0)]
    times = spans.attribute(threads)
    assert times == pytest.approx({"serving.batch": 4.0, "x": 3.0, "y": 3.0})
    assert sum(times.values()) == pytest.approx(10.0)


@pytest.mark.parametrize("hook", spans.HOOKS, ids=lambda hook: f"{hook[1]}.{hook[2]}")
def test_every_hook_resolves_on_the_current_tree(hook):
    owner, original = spans.resolve(hook)
    assert getattr(owner, hook[2]) is original


def test_a_missing_hook_target_fails_the_traced_run(monkeypatch):
    gone = ("repro.relational.database", "Database", "_no_such_method", "relational.commit")
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (gone,))
    original = serving.execute_request
    with pytest.raises(LookupError, match="_no_such_method"):
        with spans.installed(spans.SpanRecorder()):
            pass
    assert serving.execute_request is original


def test_times_and_rates_are_scaled_by_the_host_speed(tmp_path, monkeypatch):
    # A host twice as slow as the reference reads as the reference host.
    monkeypatch.setattr(HostSpeed, "scales", lambda self: {"compute": 2.0, "compute_cpu": 2.0})
    workload = _workload("solve_qc", tmp_path)
    metrics, run, extras = end_to_end(workload, seconds=0.2)
    assert run.failures == {}
    factor = 2.0 ** workload.wall_exponents["compute"]
    assert metrics["ops_per_s"] == pytest.approx(extras["ops_per_s_unscaled"] * factor)
    assert metrics["op_p50_s"] == pytest.approx(sorted(run.latencies)[(len(run.latencies) + 1) // 2 - 1] / factor)


def test_calibration_samples_every_probe_and_cleans_up(tmp_path):
    speed = HostSpeed(tmp_path)
    speed.sample()
    speed.sample()
    assert {probe: len(times) for probe, times in speed.wall.items()} == {
        probe: 2 * calls for probe, calls in CALLS_PER_SAMPLE.items()
    }
    assert set(speed.scales()) == {"compute", "compute_cpu", "fsync"}
    assert speed.factor({"compute": 0.5, "fsync": 0.5}) > 0
    speed.close()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_exponent_names_a_probe(name):
    scales = {"compute", "compute_cpu", "fsync"}
    assert set(WORKLOADS[name].wall_exponents) <= scales - {"compute_cpu"}
    assert set(WORKLOADS[name].cpu_exponents) <= scales - {"compute"}


def test_peak_rss_is_read_before_the_checks(tmp_path, monkeypatch):
    workload = _workload("ingest_durable", tmp_path)
    real_check = workload.check

    def allocating_check():
        ballast = bytearray(160 * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])
        return real_check()

    monkeypatch.setattr(workload, "check", allocating_check)
    metrics, run, _ = end_to_end(workload, seconds=0.2)
    assert run.failures == {}
    assert metrics["peak_rss_mb"] < 160


def test_hooks_are_removed_after_the_traced_block():
    original = serving.execute_request
    with spans.installed(spans.SpanRecorder()):
        assert serving.execute_request is not original
    assert serving.execute_request is original


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_qc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
