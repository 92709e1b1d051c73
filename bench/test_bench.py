"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import bootstrap

bootstrap.use_checkout_sources()

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- percentile selection -------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"),
    (200, "95"), (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9"),
])
def test_highest_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert stats.highest_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(expected, n) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))[::-1]
    assert stats.percentile(values, "50") == 100
    assert stats.percentile(values, "95") == 190
    assert sum(v > stats.percentile(values, "95") for v in values) == 10


# --- spans and self time --------------------------------------------------------------


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "r")


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    calls, self_s = tracing.totals_by_name(spans + [span("b", 11.0, 12.5, -1)])
    assert calls["b"] == 2 and self_s["b"] == 5.5


def test_tracer_records_nesting_through_rebound_names():
    ticks = iter(range(100))
    tracer = tracing.Tracer("run-1", clock=lambda: float(next(ticks)))

    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    original = Module.inner
    tracer.patch(Module, "inner", counter=lambda counts, args, result: counts.update(n=args[0]))
    tracer.patch(Module, "outer", "top")
    assert Module.outer(3) == 8
    tracer.restore()
    assert Module.inner is original
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("top", -1, "run-1"), ("inner", 0, "run-1")]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]  # ticks 0..3
    assert tracer.counts["n"] == 3


def test_steps_run_from_one_adam_end_to_the_next_within_a_train_run():
    spans = [
        span("train_run", 0.0, 20.0, -1),
        span("adam_step", 2.0, 3.0, 0),
        span("adam_step", 6.0, 7.5, 0),
        span("train_run", 30.0, 40.0, -1),
        span("adam_step", 31.0, 32.0, 3),
        span("adam_step", 33.0, 35.0, 3),
    ]
    assert tracing.intervals_between_ends(spans, "adam_step", "train_run") == [4.5, 3.0]


# --- the declared metrics match what the workloads report ------------------------------


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.per_layer_units()


TINY = {
    "train-short": workloads.Workload(1, 2, 1, (1, 8), 4, 0.5),
    "train-long": workloads.Workload(1, 2, 1, (50, 70), 2, 0.5),
}


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_named_metric(name, trace, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(workloads, "MIN_DECODE_SAMPLES", 4)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    report = workloads.run(name, 7, 0.01, trace, None)
    assert report.correct, report.tally.problems
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: u for k, (_, u) in report.metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v) for v, _ in report.metrics.values())
    if trace:
        assert report.metrics["train_run.calls"][0] == 1
        assert report.metrics["conv2d.b2.calls"][0] > 0
        assert report.metrics["lstm_step_backward.linguistic.calls"][0] > 0
        assert report.tracer.spans and all(s.run == report.tracer.run_id
                                           for s in report.tracer.spans)


def test_inputs_repeat_for_a_seed_and_sweep_glyph_counts():
    cfg = dataclasses.replace(workloads.data.SynthConfig(), length_min=2, length_max=5)
    a = workloads.synth_lines(cfg, 8, 1.0, (3, 1))
    b = workloads.synth_lines(cfg, 8, 1.0, (3, 1))
    assert [len(s.transcript) for s in a] == [2, 2, 3, 3, 4, 4, 5, 5]
    assert all((x.image == y.image).all() and x.transcript == y.transcript
               for x, y in zip(a, b))


def test_fails_without_printing_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(bootstrap.ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "train-short",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
