"""Outside-in tracing of one ``hrsync`` CLI run.

The tracer wraps public names in the module namespaces where the program's
callers look them up (``hrsync.sim.rk4_step`` is what ``run_pair`` calls),
so nothing inside the package changes. Every wrapped call is a span: name,
start, end and the span that caused it, in a per-process stack. Self time is
the span's duration minus the time of its child spans, accumulated on exit.

Spans of a name are kept per call until the name passes ``SPAN_LIMIT`` calls
in a process; from then on it is a kernel and only its aggregate (calls,
total time, self time, failures) is kept, so hot kernels cost a counter and
two clock reads per call, not a record.

Pool workers forked by the sweep inherit the wrappers. After a fork the
tracer resets its records, and each time a worker's top-level span ends it
rewrites ``worker-<pid>.json`` in the trace directory; ``run.py`` merges
those files with the main process's ``main-<pid>.json``.

A target that no longer exists is listed as absent and otherwise ignored,
so entry points that later refactors remove read as 0, never as a crash.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time
from pathlib import Path

SPAN_LIMIT = 10_000

#: (module, attribute, span name). Names shared by several targets are one
#: layer reached through different callers.
TARGETS = (
    ("hrsync.cli", "run_pair", "sim.run"),
    ("hrsync.cli", "run_isolated", "sim.run"),
    ("hrsync.analysis", "run_pair", "analysis.task"),
    ("hrsync.cli", "sweep_K", "analysis.sweep_K"),
    ("hrsync.cli", "trajectory_arrays", "analysis.trajectory_arrays"),
    ("hrsync.analysis", "trajectory_arrays", "analysis.trajectory_arrays"),
    ("hrsync.cli", "windowed_average", "analysis.windowed_average"),
    ("hrsync.analysis", "sync_rms", "analysis.sync_rms"),
    ("hrsync.cli", "write_chart", "svgplot.write_chart"),
    ("hrsync.sim", "rk4_step", "sim.rk4_step"),
    ("hrsync.sim", "make_field", "model.make_field"),
    ("hrsync.sim", "param_sensitivity", "model.param_sensitivity"),
    ("hrsync.sim", "make_energy_eval", "energy.make_energy_eval"),
)

#: Factories whose returned kernels are traced under the second name.
KERNEL_OF = {"model.make_field": "model.field", "energy.make_energy_eval": "energy.eval"}

#: Spans whose result length counts as recorded samples.
SAMPLED = ("sim.run", "analysis.task")


class Tracer:
    """Span stack and per-name aggregates for one process."""

    def __init__(self, workload: str, run_id: str, out_dir: Path | None, clock=time.perf_counter_ns):
        self.workload = workload
        self.run_id = run_id
        self.out_dir = out_dir
        self.clock = clock
        # frames are [child_ns, span_id, start_ns]; the root sentinel has no id
        self.stack: list[list] = [[0, None, 0]]
        # name -> [calls, total_ns, self_ns, failed]; name -> kept spans.
        # Both are cleared in place after a fork: wrappers hold the lists.
        self.agg: dict[str, list[int]] = {}
        self.spans: dict[str, list[tuple]] = {}
        self._ids = [itertools.count(1)]
        self._root_depth = [-1]
        self._reset(worker=False)

    def _reset(self, worker: bool) -> None:
        self.pid = os.getpid()
        self.worker = worker
        self._ids[0] = itertools.count((self.pid << 32) + 1)
        self._root_depth[0] = len(self.stack) if worker else -1
        for values in self.agg.values():
            values[:] = [0, 0, 0, 0]
        for kept in self.spans.values():
            kept.clear()
        self.samples = 0
        self.busy_ns = 0

    def after_fork(self) -> None:
        """Start a fresh record in a forked worker; keep the inherited stack
        so the worker's top-level spans name their parent across processes."""
        self._reset(worker=True)

    def _worker_span_done(self, elapsed: int) -> None:
        self.busy_ns += elapsed
        self.flush()

    def wrap(self, name: str, fn):
        """Trace every call of ``fn`` as a span called ``name``."""
        agg = self.agg.setdefault(name, [0, 0, 0, 0])
        kept = self.spans.setdefault(name, [])
        stack, clock, ids, root_depth = self.stack, self.clock, self._ids, self._root_depth
        done = self._worker_span_done

        def traced(*args, **kwargs):
            frame = [0, next(ids[0]), clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                agg[3] += 1
                raise
            finally:
                end = clock()
                elapsed = end - frame[2]
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                calls = agg[0] = agg[0] + 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if calls <= SPAN_LIMIT:
                    kept.append((frame[1], parent[1], frame[2], end, elapsed - frame[0]))
                elif calls == SPAN_LIMIT + 1:
                    kept.clear()
                if len(stack) == root_depth[0]:
                    done(elapsed)

        return traced

    def wrap_target(self, name: str, fn):
        kernel = KERNEL_OF.get(name)
        traced = self.wrap(name, fn)
        if kernel is not None:
            inner = traced

            def traced(*args, **kwargs):
                return self.wrap(kernel, inner(*args, **kwargs))

        elif name in SAMPLED:
            inner = traced

            def traced(*args, **kwargs):
                result = inner(*args, **kwargs)
                try:
                    self.samples += len(result)
                except TypeError:
                    pass
                return result

        return functools.wraps(fn)(traced)

    def record(self) -> dict:
        spans = [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "self_ns": self_ns,
                "pid": self.pid,
                "workload": self.workload,
                "run": self.run_id,
            }
            for name, kept in self.spans.items()
            for sid, parent, start, end, self_ns in kept
        ]
        return {
            "pid": self.pid,
            "worker": self.worker,
            "workload": self.workload,
            "run": self.run_id,
            "agg": self.agg,
            "samples": self.samples,
            "busy_ns": self.busy_ns,
            "spans": spans,
        }

    def flush(self) -> None:
        if self.out_dir is None:
            return
        role = "worker" if self.worker else "main"
        path = Path(self.out_dir) / f"{role}-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.record()), encoding="utf-8")
        tmp.replace(path)


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every target; returns (restore list, absent target names)."""
    restore = []
    absent = []
    for module_name, attr, name in TARGETS:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap_target(name, original))
        restore.append((module, attr, original))
    os.register_at_fork(after_in_child=tracer.after_fork)
    return restore, absent


def uninstall(restore: list) -> None:
    for module, attr, original in restore:
        setattr(module, attr, original)


def wrapper_cost_ns(n: int = 100_000) -> float:
    """Per-call cost a span wrapper adds to a no-op call, measured here."""

    def noop():
        return None

    traced = Tracer("calibration", "calibration", None).wrap("noop", noop)
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in itertools.repeat(None, n):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in itertools.repeat(None, n):
        traced()
    wrapped = clock() - t0
    return (wrapped - bare) / n


def merge(records: list[dict]) -> dict:
    """Sum the aggregates of every process of one traced run."""
    agg: dict[str, list[int]] = {}
    for rec in records:
        for name, values in rec["agg"].items():
            total = agg.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(values):
                total[i] += v
    return {
        "agg": agg,
        "samples": sum(rec["samples"] for rec in records),
        "busy_ns": sum(rec["busy_ns"] for rec in records if rec["worker"]),
        "workers": len({rec["pid"] for rec in records if rec["worker"]}),
        "spans": [span for rec in records for span in rec["spans"]],
    }


def read_dir(trace_dir: Path) -> list[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(trace_dir).glob("*.json"))
    ]


def layer_metrics(merged: dict, pool_size: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its merged aggregates.

    A name that was absent or never called contributes zeros.
    """
    agg = merged["agg"]

    def get(*names):
        out = [0, 0, 0, 0]
        for name in names:
            for i, v in enumerate(agg.get(name, (0, 0, 0, 0))):
                out[i] += v
        return out

    def per_call(values, scale):
        return values[1] / values[0] / scale if values[0] else 0.0

    rk4 = get("sim.rk4_step")
    runs = get("sim.run", "analysis.task")
    field = get("model.field")
    make_field = get("model.make_field")
    energy = get("energy.eval")
    sweep_s = get("analysis.sweep_K")[1] / 1e9
    busy_s = merged["busy_ns"] / 1e9
    capacity = pool_size * sweep_s if merged["workers"] else 0.0
    return {
        "sim.rk4_step.calls": rk4[0],
        "sim.rk4_step.self_us": rk4[2] / rk4[0] / 1e3 if rk4[0] else 0.0,
        "sim.run.self_s": runs[2] / 1e9,
        "sim.samples": merged["samples"],
        "model.field.calls": field[0],
        "model.field.ns": per_call(field, 1),
        "model.make_field.calls": make_field[0],
        "model.make_field.per_rhs": make_field[0] / (4 * rk4[0]) if rk4[0] else 0.0,
        "model.param_sensitivity.calls": get("model.param_sensitivity")[0],
        "energy.eval.calls": energy[0],
        "energy.eval.ns": per_call(energy, 1),
        "energy.make_energy_eval.calls": get("energy.make_energy_eval")[0],
        "analysis.trajectory_arrays.s": get("analysis.trajectory_arrays")[1] / 1e9,
        "analysis.windowed_average.s": get("analysis.windowed_average")[1] / 1e9,
        "analysis.sync_rms.s": get("analysis.sync_rms")[1] / 1e9,
        "analysis.sweep_K.s": sweep_s,
        "analysis.pool.tasks": get("analysis.task")[0],
        "analysis.pool.busy_s": busy_s,
        "analysis.pool.idle_s": capacity - busy_s if capacity else 0.0,
        "analysis.pool.efficiency": busy_s / capacity if capacity else 0.0,
        "svgplot.write_chart.calls": get("svgplot.write_chart")[0],
        "svgplot.write_chart.s": get("svgplot.write_chart")[1] / 1e9,
        "cli.self_s": get("cli.main")[2] / 1e9,
    }
