"""hrsync benchmark runner.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each measured run is a fresh
``python`` child (``child.py``) calling ``hrsync.cli.main(argv)`` on a
config generated from the seed; children run one at a time in a closed loop
with one client, so the only concurrency is the sweep's own process pool.

``--trace 0`` measures the end-to-end metrics: repeated children for
``--seconds`` (at least ``MIN_CHILDREN``), medians reported. ``setup_s`` is
the median import time over ``SETUP_PROBES`` import-only children plus every
workload child. ``--trace 1`` alternates traced and plain children and
reports the per-layer metrics of :mod:`spans`, the tracing overhead and the
exact-count tripwires, which must repeat between traced children.

Every child's outputs are checked: exit code 0, every output present, the
sha256 equal to the golden one recorded for the seed (``golden.json``) and
to the run's first child, and on the first child the content checks of
:mod:`checks`. A child failing any of them is a failed run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

SETUP_PROBES = 5
MIN_CHILDREN = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120.0
#: No child starts once the run could no longer end inside this budget.
RUN_BUDGET_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Counts that must repeat exactly between traced children of one run.
TRIPWIRES = (
    "sim.rk4_step.calls",
    "model.field.calls",
    "energy.eval.calls",
    "sim.samples",
    "cli.rows_written",
    "cli.bytes_written",
)
#: Tripwires that must also equal the value recorded in expectations.json,
#: because every ROADMAP prediction keeps them. The byte count is recorded at
#: seed 0 only. A span count of 0 means its entry point is gone (absent
#: targets read 0) and is not compared.
INVARIANT = ("sim.samples", "cli.rows_written", "cli.bytes_written")
SEED0_ONLY = ("cli.bytes_written",)


@dataclass
class Child:
    """One finished child: its result record and output problems."""

    result: dict
    problems: list[str]
    hashes: dict
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(args: list[str], cwd: Path, result_path: Path) -> tuple[int, dict, str]:
    """Run ``child.py`` and wait for it and its process group to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(result_path), *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -1, {}, "timed out"
    result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    return proc.returncode, result, err.decode(errors="replace").strip()


class Runner:
    """Children of one workload and seed, sharing one work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True)
        self.config = self.out_dir / "run.cfg"
        self.config.write_text(workload.config_text(seed), encoding="utf-8")
        self.golden = checks.load_golden().get(workload.name, {}).get(str(seed))
        # hashes of the first complete output set and its content-check verdict
        self.reference: tuple[dict, list[str]] | None = None
        self.children: list[Child] = []
        self.traced = 0

    def probe(self) -> dict:
        code, result, err = run_child(["probe"], self.work, self.work / "probe.json")
        if code != 0:
            raise SystemExit(f"import of hrsync.cli failed: {err}")
        return result

    def run(self, trace: bool) -> Child:
        trace_dir = "-"
        if trace:
            self.traced += 1
            trace_dir = str(self.work / f"trace-{self.traced}")
            os.mkdir(trace_dir)
        argv = self.workload.argv(self.config.name)
        t0 = time.perf_counter()
        code, result, err = run_child(
            ["run", self.workload.name, trace_dir, *argv], self.out_dir, self.work / "child.json"
        )
        seconds = time.perf_counter() - t0
        problems = [] if code == 0 else [f"exit code {code}: {err[-500:]}"]
        found = checks.hashes(self.workload, self.out_dir)
        problems += checks.golden_problems(found, self.golden)
        if not problems:
            if self.reference is None:
                self.reference = (found, checks.content_problems(self.workload, self.seed, self.out_dir))
            reference, verdict = self.reference
            problems += verdict if found == reference else ["outputs differ from the run's first child"]
        if trace and not problems:
            result["files"] = self._output_counts()
            result["trace"] = spans.read_dir(Path(trace_dir))
        for name in self.workload.outputs:
            (self.out_dir / name).unlink(missing_ok=True)
        child = Child(result, problems, found, seconds)
        self.children.append(child)
        return child

    def _output_counts(self) -> tuple[int, int]:
        rows = bytes_ = 0
        for name in self.workload.outputs:
            data = (self.out_dir / name).read_bytes()
            bytes_ += len(data)
            if name.endswith(".csv"):
                rows += data.count(b"\n") - 1
        return rows, bytes_

    def keep_going(self, started: float, seconds: float, enough: bool) -> bool:
        elapsed = time.perf_counter() - started
        last = self.children[-1].seconds if self.children else 0.0
        if elapsed + 1.5 * last > RUN_BUDGET_S:
            return False
        return elapsed < seconds or not enough


def measure(runner: Runner, seconds: float, setup: list[float]) -> dict[str, float]:
    started = time.perf_counter()
    while runner.keep_going(started, seconds, len(runner.children) >= MIN_CHILDREN):
        child = runner.run(trace=False)
        if "setup_s" in child.result:
            setup.append(child.result["setup_s"])
    # timings of a child with wrong outputs are still timings; it counts as failed
    good = [c.result for c in runner.children if "wall_s" in c.result]
    if not good:
        return {}
    steps = runner.workload.steps
    return {
        "setup_s": median(setup),
        "wall_s": median([r["wall_s"] for r in good]),
        "cpu_s": median([r["cpu_s"] for r in good]),
        "steps_per_s": median([steps / r["wall_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
    }


def layer_metrics(child: Child) -> dict[str, float]:
    rows, bytes_ = child.result["files"]
    merged = spans.merge(child.result["trace"])
    metrics = spans.layer_metrics(merged, child.result["pool_size"])
    cli_s = metrics["cli.self_s"]
    metrics["cli.rows_written"] = rows
    metrics["cli.bytes_written"] = bytes_
    metrics["cli.write_MB_per_s"] = bytes_ / 1e6 / cli_s if cli_s else 0.0
    return metrics


def tripwire_problems(per_child: list[dict], recorded: dict, seed: int) -> list[str]:
    """Tripwires that differ between traced children or, for the invariant
    ones, from the recorded value."""
    problems = [
        f"tripwire {name} differs between traced children: {[m[name] for m in per_child]}"
        for name in TRIPWIRES
        if len({m[name] for m in per_child}) != 1
    ]
    problems += [
        f"tripwire {name} = {m[name]}, recorded {recorded[name]}"
        for m in per_child[:1]
        for name in INVARIANT
        if m[name] and m[name] != recorded[name] and (seed == 0 or name not in SEED0_ONLY)
    ]
    return problems


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    traced, plain = [], []
    while runner.keep_going(started, seconds, len(traced) >= MIN_TRACED and len(plain) >= 1):
        trace = len(traced) <= len(plain)
        child = runner.run(trace=trace)
        if child.ok:
            (traced if trace else plain).append(child)
    if not traced or not plain:
        return {}, ["no traced and plain child both succeeded"]
    per_child = [layer_metrics(c) for c in traced]
    expectations = json.loads((HERE / "expectations.json").read_text(encoding="utf-8"))
    recorded = expectations["tripwires"]["values"][runner.workload.name]
    problems = tripwire_problems(per_child, recorded, runner.seed)
    metrics = {name: median([m[name] for m in per_child]) for name in per_child[0]}
    plain_wall = median([c.result["wall_s"] for c in plain])
    traced_wall = median([c.result["wall_s"] for c in traced])
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    metrics["trace.wrapper_ns"] = median([c.result["wrapper_ns"] for c in traced])
    for name in TRIPWIRES:
        print(f"tripwire {name} = {metrics[name]:.0f} (recorded at seed 0: {recorded[name]})")
    absent = sorted({a for c in traced for a in c.result.get("absent", [])})
    if absent:
        print(f"absent trace targets (reported as 0): {', '.join(absent)}")
    return metrics, problems


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hrsync").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine()


def run_workload(workload: Workload, args, work: Path) -> dict:
    runner = Runner(workload, args.seed, work)
    warm = runner.probe()  # compiles bytecode and warms the file cache; not counted
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "steps": workload.steps,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": warm["python"],
        "numpy": warm["numpy"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "golden": runner.golden is not None,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    problems: list[str] = []
    if args.trace:
        metrics, problems = measure_traced(runner, args.seconds)
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    else:
        setup = [runner.probe()["setup_s"] for _ in range(SETUP_PROBES)]
        metrics = measure(runner, args.seconds, setup)
        units = END_TO_END_UNITS
    attempted = len(runner.children)
    failed = sum(not c.ok for c in runner.children)
    for i, child in enumerate(runner.children):
        for problem in child.problems:
            print(f"{workload.name} child {i}: FAILED {problem}")
    for problem in problems:
        print(f"{workload.name}: FAILED {problem}")

    print(f"# {json.dumps(stamp, sort_keys=True)}")
    walls = [c.result["wall_s"] for c in runner.children if "wall_s" in c.result]
    print(f"{workload.name}: {attempted} runs, {failed} failed "
          f"(failed_frac {failed / attempted if attempted else 0:.3f}), "
          f"wall_s per child {[round(w, 4) for w in walls]}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units.get(name, '')}")
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "hrsync" / "cli.py").is_file():
        print(f"error: no hrsync source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    if not summary["metrics"]:
        print("error: no run succeeded", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
