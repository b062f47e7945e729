"""Tests of the benchmark's own code.

Run from the repository root::

    python -m pytest nadabench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --------------------------------------------------------------------------- #
# Wrappers.
# --------------------------------------------------------------------------- #
def _bindings():
    return [(owner, attr, fn)
            for target in tracing.all_targets()
            for fn, owners in [tracing.Tracer._bindings(target)]
            for owner, attr in owners]


def test_wrappers_restore_every_patched_function():
    before = _bindings()
    assert len(before) >= len(tracing.all_targets())
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracing.all_targets()):
            for owner, attr, fn in before:
                assert getattr(owner, attr) is not fn
            raise RuntimeError("restore on error too")
    for owner, attr, fn in before:
        assert getattr(owner, attr) is fn, f"{owner}.{attr} left patched"


def test_name_imported_elsewhere_is_patched_everywhere():
    from repro.abr import state
    from repro.rl import a2c
    original = state.original_states_batched
    assert a2c.original_states_batched is original
    with tracing.Tracer().patched(tracing.ENGINE_TARGETS):
        assert a2c.original_states_batched is state.original_states_batched
        assert a2c.original_states_batched is not original
    assert a2c.original_states_batched is original


def test_self_time_excludes_child_spans():
    fake = types.ModuleType("repro.nadabench_fake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        fake.inner()

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    try:
        tracer = tracing.Tracer()
        with tracer.patched([tracing.Target(fake.__name__, "outer", "a"),
                             tracing.Target(fake.__name__, "inner", "b")]):
            fake.outer()
        assert tracer.calls == {"a": 1, "b": 1}
        assert tracer.self_s["b"] >= 0.02
        assert 0.01 <= tracer.self_s["a"] < 0.02
        assert tracer.total_s["a"] >= tracer.self_s["a"] + tracer.self_s["b"]
    finally:
        del sys.modules[fake.__name__]


# --------------------------------------------------------------------------- #
# Names and the BENCHMARK.json contract.
# --------------------------------------------------------------------------- #
def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_metric_and_workload_names_follow_the_naming_rule():
    doc = spec.benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RULE.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert spec.UNIT_RULE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} \
        in doc["end_to_end"]
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_reports_exactly_the_declared_metrics():
    rep = workloads.Rep(setup_s=0.1, wall_s=2.0, cpu_s=3.0, decisions=100,
                        attempted=3, failed=0, latency_p50_s=0.001,
                        latency_p99_s=0.002, ticks=50)
    declared = [name for name, *_ in spec.END_TO_END]
    for name in run.WORKLOAD_NAMES:
        values = run._end_to_end(name, [rep, rep], 100.0)
        assert list(values) == declared
        assert all(value > 0 for value, _ in values.values())


def test_timings_are_reported_at_the_reference_host_speed():
    rep = workloads.Rep(setup_s=0.1, wall_s=2.0, cpu_s=3.0, decisions=100,
                        attempted=3, failed=0, latency_p50_s=0.001,
                        latency_p99_s=0.002, ticks=50)
    slow = dataclasses.replace(rep, host_scale=0.5)
    for name in run.WORKLOAD_NAMES:
        plain = run._end_to_end(name, [rep], 100.0)
        scaled = run._end_to_end(name, [slow], 100.0)
        for metric in ("setup_s", "wall_s", "cpu_s", "decision_p50_ms"):
            assert scaled[metric][0] == pytest.approx(plain[metric][0] / 2)
        assert scaled["decisions_per_s"][0] == pytest.approx(
            2 * plain["decisions_per_s"][0])
        assert scaled["peak_rss_mb"] == plain["peak_rss_mb"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_host_probe_reaps_its_children(cpus):
    assert 0 < measure.host_probe_s(cpus) < 10
    assert measure._live_children() == []


# --------------------------------------------------------------------------- #
# Every workload at a tiny scale.
# --------------------------------------------------------------------------- #
TINY = dict(num_designs=3, num_seeds=2, train_epochs=4, checkpoint_interval=2,
            num_chunks=4)


@pytest.mark.parametrize("shape", [workloads.CAMPAIGN, workloads.SEARCH],
                         ids=["campaign", "search"])
def test_campaign_workloads_complete_at_tiny_scale(shape, tmp_path):
    workload = workloads.CampaignWorkload(
        dataclasses.replace(shape, **TINY), str(tmp_path), workers=2)
    rep = workload.rep(seed=3, index=0)
    assert rep.wall_s > 0 and rep.decisions > 0 and rep.attempted > 0
    assert rep.failed == 0
    assert workload.verify(3, [rep.output]) == ()
    metrics, bad, attempted, failed = workload.traced(seed=3)
    assert bad == () and failed == 0 and attempted == rep.attempted
    assert metrics["train.seed_epochs"] > 0
    assert metrics["scheduler.jobs"] == rep.attempted
    assert set(metrics) <= {name for name, *_ in spec.PER_LAYER}


def test_serve_workload_completes_at_tiny_scale():
    workload = workloads.ServeWorkload(dataclasses.replace(
        workloads.SERVE, sessions=6, num_chunks=4, dataset_scale=0.03))
    rep = workload.rep(seed=3, index=0)
    assert rep.failed == 0 and rep.decisions == 24 and rep.ticks > 0
    assert workload.verify(3, [rep.output]) == ()
    metrics, bad, _, _ = workload.traced(seed=3)
    assert bad == ()
    assert metrics["player.steps"] == 24
    assert set(metrics) <= {name for name, *_ in spec.PER_LAYER}


def test_campaign_check_names_the_differing_design():
    expected = {"fcc/original": ("score", "0x1p+0"),
                "fcc/0:state-abc": ("evaluated", "0x1p+0", 0)}
    got = dict(expected)
    got["fcc/0:state-abc"] = ("evaluated", "0x1.8p+0", 0)
    assert workloads.mismatches(got, expected) == ("fcc/0:state-abc",)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "nadabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "nadabench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
