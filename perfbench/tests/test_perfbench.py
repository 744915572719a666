"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, initial_states  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer("wl", "run-7", None, clock=clock)
    leaf = tracer.wrap("D", lambda: clock.tick(5))

    def b():
        clock.tick(10)
        leaf()
        clock.tick(10)

    def a():
        clock.tick(1)
        tracer.wrap("B", b)()
        tracer.wrap("C", lambda: clock.tick(7))()
        clock.tick(2)

    tracer.wrap("A", a)()
    # [calls, total, self, failed]
    assert tracer.agg == {
        "D": [1, 5, 5, 0],
        "B": [1, 25, 20, 0],
        "C": [1, 7, 7, 0],
        "A": [1, 35, 3, 0],
    }
    record = tracer.record()
    by_name = {span["name"]: span for span in record["spans"]}
    assert by_name["A"]["parent"] is None
    assert by_name["B"]["parent"] == by_name["A"]["id"]
    assert by_name["C"]["parent"] == by_name["A"]["id"]
    assert by_name["D"]["parent"] == by_name["B"]["id"]
    assert {(s["workload"], s["run"]) for s in record["spans"]} == {("wl", "run-7")}
    assert tracer.stack == [[35, None, 0]]


def test_hot_kernels_keep_only_aggregates():
    tracer = spans.Tracer("wl", "r", None)
    noop = tracer.wrap("k", lambda: None)
    for _ in range(spans.SPAN_LIMIT):
        noop()
    assert len(tracer.spans["k"]) == spans.SPAN_LIMIT
    for _ in range(5):
        noop()
    assert tracer.agg["k"][0] == spans.SPAN_LIMIT + 5
    assert tracer.spans["k"] == []


def test_failed_call_is_counted_and_stack_unwound():
    tracer = spans.Tracer("wl", "r", None)

    def boom():
        raise RuntimeError("diverged")

    with pytest.raises(RuntimeError):
        tracer.wrap("sim.run", boom)()
    assert tracer.agg["sim.run"][0] == 1
    assert tracer.agg["sim.run"][3] == 1
    assert len(tracer.stack) == 1


def test_absent_targets_do_not_crash(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", (("hrsync.sim", "no_such_kernel", "sim.rk4_step"),))
    restore, absent = spans.install(spans.Tracer("wl", "r", None))
    assert restore == []
    assert absent == ["hrsync.sim.no_such_kernel"]
    metrics = spans.layer_metrics(spans.merge([]), pool_size=2)
    assert metrics["sim.rk4_step.calls"] == 0
    assert metrics["model.make_field.per_rhs"] == 0.0
    assert metrics["analysis.pool.efficiency"] == 0.0


def test_worker_records_merge_into_pool_metrics():
    main = {"pid": 1, "worker": False, "agg": {"analysis.sweep_K": [1, 4_000_000_000, 10, 0]},
            "samples": 0, "busy_ns": 0, "spans": []}
    workers = [
        {"pid": p, "worker": True, "samples": 20001, "busy_ns": 3_000_000_000, "spans": [],
         "agg": {"analysis.task": [n, 1, 1, 0], "sim.rk4_step": [20000 * n, 1, 1, 0]}}
        for p, n in ((2, 3), (3, 2))
    ]
    metrics = spans.layer_metrics(spans.merge([main, *workers]), pool_size=2)
    assert metrics["analysis.pool.tasks"] == 5
    assert metrics["sim.rk4_step.calls"] == 100000
    assert metrics["sim.samples"] == 40002
    assert metrics["analysis.pool.busy_s"] == pytest.approx(6.0)
    assert metrics["analysis.pool.idle_s"] == pytest.approx(2.0)
    assert metrics["analysis.pool.efficiency"] == pytest.approx(0.75)


def test_seed_to_config_is_deterministic():
    for workload in WORKLOADS.values():
        for seed in (0, 1, 17, 12345):
            assert workload.config_text(seed) == workload.config_text(seed)
    texts = {WORKLOADS["pair_default"].config_text(seed) for seed in range(20)}
    assert len(texts) == 20
    assert initial_states(0) == ((0.1, 0.2, 0.3, 0.1), (0.0, 0.0, 0.0, 0.0))
    # pinned draw: a change to the generator changes every workload's inputs
    pre, post = initial_states(1)
    assert pre[0] == 0.1 + (-0.25 + 0.5 * 0.13436424411240122)
    with pytest.raises(ValueError):
        initial_states(-1)


def test_generated_config_is_what_the_cli_resolves(tmp_path):
    from hrsync.cli import RunConfig, read_config_file

    workload = WORKLOADS["pair_generic"]
    path = tmp_path / "run.cfg"
    path.write_text(workload.config_text(5))
    cfg = RunConfig()
    for key, raw in read_config_file(str(path)):
        cfg.apply_key(key, raw)
    pre, post = initial_states(5)
    assert cfg.initial_pre.as_tuple() == pre
    assert cfg.initial_post.as_tuple() == post
    assert (cfg.adapt_target, cfg.post_overrides, cfg.record_every) == ("f", {"f": 5.1}, 10)


def test_golden_check_catches_one_byte_change(tmp_path):
    workload = WORKLOADS["sweep5"]
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"K,preH\n0.0,1.25\n")
    golden = checks.hashes(workload, tmp_path)
    assert checks.golden_problems(checks.hashes(workload, tmp_path), golden) == []
    out.write_bytes(b"K,preH\n0.0,1.24\n")
    problems = checks.golden_problems(checks.hashes(workload, tmp_path), golden)
    assert len(problems) == 1 and "sha256" in problems[0]
    out.unlink()
    assert checks.golden_problems(checks.hashes(workload, tmp_path), golden) == ["sweep.csv: missing"]


def test_content_check_matches_the_program_and_catches_a_changed_digit(tmp_path, monkeypatch):
    from hrsync.cli import main

    workload = dataclasses.replace(WORKLOADS["pair_generic"], t_end=6.0)
    (tmp_path / "run.cfg").write_text(workload.config_text(3))
    monkeypatch.chdir(tmp_path)
    assert main([*workload.argv("run.cfg"), "--t-end", "6"]) == 0
    assert checks.content_problems(workload, 3, tmp_path) == []

    out = tmp_path / "pair.csv"
    lines = out.read_text().split("\n")
    fields = lines[30].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))
    lines[30] = ",".join(fields)
    out.write_text("\n".join(lines))
    problems = checks.content_problems(workload, 3, tmp_path)
    assert problems and "reference" in problems[0]


def test_reported_metrics_match_benchmark_json():
    import run

    spec = run.benchmark_spec()
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    traced = set(spans.layer_metrics(spans.merge([]), pool_size=1))
    traced |= {"cli.rows_written", "cli.bytes_written", "cli.write_MB_per_s",
               "trace.overhead_frac", "trace.wrapper_ns"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_diverged_sweep_cell_is_a_problem_not_a_crash(tmp_path):
    header = checks.HEADERS["sweep"]
    rows = [f"{k!r},1.0,2.0,3.0,4.0,0.5,0.25" for k in checks.K_LIST]
    rows[2] = "1.0,ERR:divergence,ERR:divergence,ERR:divergence,ERR:divergence,ERR:divergence,ERR:divergence"
    (tmp_path / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")
    assert checks.content_problems(WORKLOADS["sweep5"], 40, tmp_path) == [
        "sweep.csv: K=1.0: " + str(["ERR:divergence"] * 6)
    ]


def test_invariant_tripwires_must_match_the_recorded_counts():
    import run

    recorded = {name: 100 for name in run.TRIPWIRES}
    same = dict(recorded)
    assert run.tripwire_problems([same, same], recorded, seed=0) == []
    # a changed advisory count only has to repeat; bytes are recorded at seed 0 only
    moved = {**same, "model.field.calls": 7, "cli.bytes_written": 99}
    assert run.tripwire_problems([moved, moved], recorded, seed=3) == []
    assert run.tripwire_problems([moved, moved], recorded, seed=0) == [
        "tripwire cli.bytes_written = 99, recorded 100"
    ]
    assert run.tripwire_problems([same, {**same, "sim.samples": 101}], recorded, seed=0) == [
        "tripwire sim.samples differs between traced children: [100, 101]"
    ]
    # an entry point that is gone reads 0 and is not compared
    assert run.tripwire_problems([{**same, "sim.samples": 0}], recorded, seed=0) == []


def test_expectations_cover_every_metric_and_workload():
    import json

    import run

    expectations = json.loads((BENCH / "expectations.json").read_text())
    spec = run.benchmark_spec()
    mapped = [m for layer in expectations["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    values = expectations["tripwires"]["values"]
    assert set(values) == set(WORKLOADS)
    assert all(set(v) == set(run.TRIPWIRES) for v in values.values())
