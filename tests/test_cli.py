import argparse
import dataclasses
import errno
import gc
import hashlib
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from pathlib import Path

import pytest

from hrsync import analysis, cli, fork, sim, svgplot
from hrsync.analysis import sweep_K
from hrsync.cli import RunConfig, build_parser, main, resolve_config
from hrsync.model import NeuronParams
from hrsync.sim import AdaptationSpec, PairConfig, SimSpec

ISOLATED_HEADER = "t,x,y,z,w,H,Hdot"
PAIR_HEADER = "t,x1,y1,z1,w1,x2,y2,z2,w2,I2,e_norm,H1,Hdot1,H2,Hdot2,avgH2_w10,avgHdot2_w5"
SWEEP_HEADER = "K,preH,preHdot,postH,postHdot,preSync,postSync"

#: sha256 of short outputs, each recorded before the change it guards, as
#: ``id: (argv, config file lines, sha256)``. Output is promised
#: byte-identical for a given config, so a change of arithmetic order or
#: float formatting anywhere on the path fails here. The last two adapt the
#: receiver's ``f``, and its current at gain 2.7 against a sender with
#: ``xi = 1.3``, where the adaptive law's products round.
PINNED_SHA256 = {
    "pair": (
        ("pair", "--t-end", "20"), (),
        "11724018b8e2a9ae4657c7c917dadee21ec947315f56883eb789cc85b7f2c089",
    ),
    "isolated": (
        ("isolated", "--t-end", "20"), (),
        "b4800c9fc2d3a21a7707dedcad9fb267fb56db9c2ea5ade2506465fabda3576e",
    ),
    "sweep": (
        ("sweep", "--K-list", "0,5"), (),
        "02d526457f4654cad9f93e05129e07751e23ccd9c1c20fc2fd4061f3670dc334",
    ),
    "pair_target_f": (
        ("pair", "--t-end", "20", "--adapt-at", "10"), ("adapt_target = f", "post.f = 5.1"),
        "d5d19031e3e390c87dd5c3b810709f28b77151c39026d5c85c0f5ec59decf1a6",
    ),
    "pair_gain_xi": (
        ("pair", "--t-end", "20", "--adapt-at", "10"), ("gain = 2.7", "pre.xi = 1.3"),
        "6763d1ca0fabb3756518b4df133dbd11e810fe9399df8f42d32e2e1766d602ac",
    ),
}


def read_lines(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert "\r" not in text
    return text.splitlines()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds):
    """Fail the block if it runs longer than ``seconds``, as a hang would."""

    def expired(*args):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestIsolated:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "iso.csv"
        assert main(["isolated", "--t-end", "2", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == ISOLATED_HEADER
        assert len(lines) == 1 + 201
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.1  # default start state
        assert float(lines[-1].split(",")[0]) == 2.0

    def test_floats_round_trip(self, tmp_path):
        out = tmp_path / "iso.csv"
        main(["isolated", "--t-end", "1", "--out", str(out)])
        for line in read_lines(out)[1:]:
            for cell in line.split(","):
                assert repr(float(cell)) == cell

    def test_validation_failure_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("transient = 300\n", encoding="utf-8")
        code = main(["isolated", "--config", str(config), "--t-end", "200",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_plot_emits_svg_and_projections(self, tmp_path):
        out = tmp_path / "iso.csv"
        assert main(["isolated", "--t-end", "5", "--out", str(out), "--plot"]) == 0
        svg = tmp_path / "iso.svg"
        assert svg.exists()
        body = svg.read_text(encoding="utf-8")
        assert body.startswith("<svg") and "polyline" in body
        for columns in ("xyz", "xyw", "xzw"):
            proj = tmp_path / f"iso_proj_{columns}.csv"
            assert read_lines(proj)[0] == ",".join(columns)

    def test_current_flag(self, tmp_path):
        out = tmp_path / "iso.csv"
        main(["isolated", "--t-end", "1", "--i1", "0.85", "--out", str(out)])
        # quiescent current: trajectory stays tame early on
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert all(abs(float(r[1])) < 5 for r in rows)


class TestPair:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["pair", "--t-end", "30", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == PAIR_HEADER
        assert len(lines) == 1 + 3001
        row0 = lines[1].split(",")
        assert len(row0) == 17
        assert float(row0[9]) == 0.85  # I2 before adaptation
        # averages stay empty until their windows fill
        assert row0[15] == "" and row0[16] == ""
        filled_hdot = next(r for r in (l.split(",") for l in lines[1:]) if r[16] != "")
        assert float(filled_hdot[0]) == pytest.approx(4.99, abs=1e-9)
        filled_h = next(r for r in (l.split(",") for l in lines[1:]) if r[15] != "")
        assert float(filled_h[0]) == pytest.approx(9.99, abs=1e-9)

    def test_short_run_leaves_averages_empty(self, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["pair", "--t-end", "2", "--out", str(out)]) == 0
        for line in read_lines(out)[1:]:
            cells = line.split(",")
            assert cells[15] == "" and cells[16] == ""

    def test_no_adapt_keeps_current_constant(self, tmp_path):
        # the law would start at t=1, well inside the run
        out = tmp_path / "pair.csv"
        main(["pair", "--t-end", "5", "--adapt-at", "1", "--no-adapt", "--out", str(out)])
        currents = {line.split(",")[9] for line in read_lines(out)[1:]}
        assert currents == {"0.85"}

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["pair", "--t-end", "20", "--out", str(a)])
        main(["pair", "--t-end", "20", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_divergence_exits_3(self, tmp_path):
        code = main(["pair", "--t-end", "10", "--K", "1e6",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["pair", "--t-end", "10", "--K", "1e6"],
        ["isolated", "--t-end", "10", "--i1", "1e6", "--plot"],
    ], ids=" ".join)
    def test_failed_run_leaves_existing_output_unchanged(self, tmp_path, argv):
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier result\n")
        assert main([*argv, "--out", str(out)]) == 3
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("argv", [["pair"], ["pair", "--plot"], ["isolated", "--plot"]],
                             ids=" ".join)
    def test_run_that_records_no_step_exits_2(self, tmp_path, capsys, argv):
        # the run has steps 0 to 10; the first multiple of 4 at or past t = 0.29 is 12
        config = tmp_path / "run.cfg"
        config.write_text("record_every = 4\ntransient = 0.29\n", encoding="utf-8")
        code = main([*argv, "--config", str(config), "--dt", "0.03", "--t-end", "0.3",
                     "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no step is recorded" in err and "transient" in err and "record_every" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [config]

    def test_unwritable_output_exits_4(self, tmp_path):
        code = main(["pair", "--t-end", "1",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 4

    def test_plot(self, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["pair", "--t-end", "30", "--out", str(out), "--plot"]) == 0
        assert (tmp_path / "pair.svg").exists()

    @pytest.mark.parametrize("t_end", ["8", "4"])
    def test_plot_of_run_shorter_than_the_average_windows(self, tmp_path, t_end):
        # 8 fills only the 5-unit window, 4 neither; the I2 panel always has data
        out = tmp_path / "pair.csv"
        assert main(["pair", "--t-end", t_end, "--out", str(out), "--plot"]) == 0
        body = (tmp_path / "pair.svg").read_text(encoding="utf-8")
        assert "adapted external current" in body
        assert ("5-unit average" in body) == (t_end == "8")
        assert "10-unit average" not in body


class TestSweep:
    def test_csv_contract_and_divergence_marker(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--K-list", "5,1e6", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == SWEEP_HEADER
        good = lines[1].split(",")
        assert float(good[0]) == 5.0
        assert all(cell not in ("", "ERR:divergence") for cell in good[1:])
        bad = lines[2].split(",")
        assert float(bad[0]) == 1e6
        assert bad[1] == "ERR:divergence"
        assert bad[2:] == [""] * 5

    def test_duplicate_k_rows_identical(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--K-list", "1,1", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[1] == lines[2]

    def test_plot(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--K-list", "0.5,2", "--out", str(out), "--plot"]) == 0
        assert (tmp_path / "sweep.svg").exists()

    def test_too_short_run_exits_2(self, tmp_path):
        code = main(["sweep", "--K-list", "1", "--t-end", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("argv", [["--t-end", "20"], ["--t-end", "100"], ["--adapt-at", "0"],
                                      ["--no-adapt", "--adapt-at", "nan"]], ids=" ".join)
    def test_windows_outside_the_run_name_both_settings(self, tmp_path, capsys, argv):
        code = main(["sweep", *argv, "--K-list", "1", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "adapt_at" in err and "t_end" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == []

    def test_output_that_is_a_directory_exits_4_before_any_run(self, tmp_path, monkeypatch,
                                                               capsys):
        runs = []

        def counted(*args):
            runs.append(args)
            return sim._drive(*args)

        monkeypatch.setattr(analysis, "_drive", counted)
        monkeypatch.setattr(fork, "cores", lambda: 1)  # runs in process, counted
        assert main(["sweep", "--K-list", "0,1", "--out", str(tmp_path)]) == 4
        assert "is a directory" in capsys.readouterr().err
        assert runs == []

    def test_empty_k_list_exits_2(self, tmp_path):
        code = main(["sweep", "--K-list", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("k_list, most_alive", [
        ("0", None),
        ("0,1,2,3,4,5,6,7,8", 4),
        ("0,1", 2),
    ])
    def test_pool_has_at_most_one_worker_per_run(self, tmp_path, monkeypatch,
                                                 k_list, most_alive):
        # on 4 cores the K values make min(4, len(K)) groups, each one forked
        # child, all alive at once; a single K runs in process
        real_fork, real_waitpid = os.fork, os.waitpid
        forks, alive, peak = [], set(), [0]

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
                alive.add(pid)
                peak[0] = max(peak[0], len(alive))
            return pid

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            alive.discard(pid)
            return reaped

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(fork, "cores", lambda: 4)
        argv = ["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", k_list,
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        assert len(forks) == peak[0] == (most_alive or 0)
        assert not alive

    def test_child_that_ends_without_a_result_exits_4(self, tmp_path, monkeypatch, capsys):
        caller = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() != caller:
                os._exit(7)
            raise AssertionError("ran in the caller")

        monkeypatch.setattr(analysis, "_sweep_group", die)
        monkeypatch.setattr(fork, "cores", lambda: 2)
        argv = ["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", "0,1,2",
                "--out", str(tmp_path / "sweep.csv")]
        with deadline(60):
            assert main(argv) == 4
        assert "ended before it sent its outcome" in capsys.readouterr().err
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == []

    def test_error_in_the_caller_kills_and_reaps_every_child(self, tmp_path, monkeypatch):
        caller = os.getpid()

        def hang(*args, **kwargs):
            if os.getpid() != caller:
                time.sleep(60)
            raise AssertionError("ran in the caller, or outlived its kill")

        def interrupted(self, hand=None):
            raise KeyboardInterrupt

        real_waitpid, statuses = os.waitpid, []

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(analysis, "_sweep_group", hang)
        monkeypatch.setattr(fork, "cores", lambda: 4)
        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(fork.Child, "result", interrupted)  # the caller's wait
        argv = ["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", "0,1,2,3,4,5",
                "--out", str(tmp_path / "sweep.csv")]
        with deadline(60), pytest.raises(KeyboardInterrupt):
            main(argv)
        assert [os.WIFSIGNALED(status) and os.WTERMSIG(status) for status in statuses] == (
            [signal.SIGKILL] * 4)
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == []

    def test_failed_fork_runs_in_process(self, tmp_path, monkeypatch):
        # a fork refused under a process limit runs that group here; the
        # other group forks
        argv = ["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", "0,1,2,3"]
        monkeypatch.setattr(fork, "cores", lambda: 1)
        assert main(argv + ["--out", str(tmp_path / "serial.csv")]) == 0
        real_fork, calls = os.fork, []

        def refusing_fork():
            calls.append(None)
            if len(calls) % 2:
                raise BlockingIOError("fork refused")
            return real_fork()

        monkeypatch.setattr(os, "fork", refusing_fork)
        monkeypatch.setattr(fork, "cores", lambda: 2)
        assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(calls) == 2  # one per group
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_children_are_read_above_fd_setsize(self, monkeypatch):
        # a descriptor from FD_SETSIZE (1024) on is one select() would refuse;
        # the children's pipes get the lowest free ones, so hold every one
        # below that first
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < 1200:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(1200, hard), hard))
        held = [os.open(os.devnull, os.O_RDONLY)]
        try:
            while held[-1] < 1030:
                held.append(os.open(os.devnull, os.O_RDONLY))
            config = PairConfig(pre=NeuronParams.canonical(I=3.024),
                                post=NeuronParams.canonical(I=0.85),
                                adaptation=AdaptationSpec(start_time=1.0))
            spec = SimSpec(dt=0.01, t_end=2.0)
            run = lambda: sweep_K([0.0, 1.0, 2.0], spec, config, pre_window=(0.5, 1.0),
                                  post_window=(1.5, 2.0))
            monkeypatch.setattr(fork, "cores", lambda: 2)
            with deadline(60):
                forked = run()
        finally:
            for fd in held:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        monkeypatch.setattr(fork, "cores", lambda: 1)
        assert forked == run()

    def test_windows_follow_the_run(self, tmp_path):
        # pre: second half of [0, adapt_at]; post: second half of [adapt_at, t_end]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--t-end", "20", "--adapt-at", "10", "--K-list", "1",
                     "--out", str(out)]) == 0
        config = PairConfig(pre=NeuronParams.canonical(I=3.024),
                            post=NeuronParams.canonical(I=0.85),
                            adaptation=AdaptationSpec(start_time=10.0))
        (s,) = sweep_K([1.0], SimSpec(dt=0.01, t_end=20.0), config,
                       pre_window=(5.0, 10.0), post_window=(15.0, 20.0))
        want = (s.K, s.pre_adapt_avg_H, s.pre_adapt_avg_Hdot, s.post_adapt_avg_H,
                s.post_adapt_avg_Hdot, s.pre_adapt_sync_rms, s.post_adapt_sync_rms)
        assert read_lines(out)[1] == ",".join(repr(v) for v in want)


#: short plotting runs, and every file each writes with ``--out x.csv``, in
#: the order of its ``wrote`` lines
PLOT_RUNS = {
    "isolated": (["isolated", "--t-end", "2"],
                 ["x.csv", "x.svg", "x_proj_xyz.csv", "x_proj_xyw.csv", "x_proj_xzw.csv"]),
    "pair": (["pair", "--t-end", "2"], ["x.csv", "x.svg"]),
    "sweep": (["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", "1"], ["x.csv", "x.svg"]),
}


class TestOutputSet:
    """A command's files, SVG included, appear together or not at all."""

    @pytest.mark.parametrize("command", list(PLOT_RUNS))
    def test_every_file_is_written_and_reported_in_order(self, tmp_path, capsys, command):
        argv, names = PLOT_RUNS[command]
        assert main([*argv, "--plot", "--out", str(tmp_path / "x.csv")]) == 0
        wrote = capsys.readouterr().out.splitlines()
        assert wrote == [f"wrote {tmp_path / name}" for name in names]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize("error, code", [(OSError("disk full"), 4), (ValueError("no data"), 2)],
                             ids=["OSError", "ValueError"])
    @pytest.mark.parametrize("command", list(PLOT_RUNS))
    def test_failed_chart_leaves_every_earlier_file(self, tmp_path, monkeypatch, command,
                                                    error, code):
        argv, names = PLOT_RUNS[command]
        earlier = {name: f"earlier {name}\n".encode() for name in names}
        for name, body in earlier.items():
            (tmp_path / name).write_bytes(body)

        def fail(handle, panels):
            raise error

        monkeypatch.setattr(cli, "write_chart", fail)
        assert main([*argv, "--plot", "--out", str(tmp_path / "x.csv")]) == code
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == earlier

    @pytest.mark.parametrize("command", list(PLOT_RUNS))
    def test_chart_path_that_is_a_directory_exits_4(self, tmp_path, capsys, command):
        argv, _ = PLOT_RUNS[command]
        (tmp_path / "x.csv").write_bytes(b"earlier result\n")
        (tmp_path / "x.svg").mkdir()
        assert main([*argv, "--plot", "--out", str(tmp_path / "x.csv")]) == 4
        assert "is a directory" in capsys.readouterr().err
        assert (tmp_path / "x.csv").read_bytes() == b"earlier result\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x.csv", "x.svg"]
        assert list((tmp_path / "x.svg").iterdir()) == []

    def test_failed_rename_exits_4_and_leaves_no_part(self, tmp_path, monkeypatch):
        # the CSV is renamed first; the chart's rename fails
        replace = cli.os.replace

        def replace_all_but_charts(part, path):
            if path.suffix == ".svg":
                raise PermissionError(f"cannot replace {path}")
            replace(part, path)

        monkeypatch.setattr(cli.os, "replace", replace_all_but_charts)
        assert main(["pair", "--t-end", "2", "--plot", "--out", str(tmp_path / "x.csv")]) == 4
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x.csv"]

    @pytest.mark.parametrize("command", list(PLOT_RUNS))
    def test_output_that_is_also_the_chart_exits_2(self, tmp_path, capsys, command):
        argv, _ = PLOT_RUNS[command]
        assert main([*argv, "--plot", "--out", str(tmp_path / "x.svg")]) == 2
        assert "share the path" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []


POLE_LINES = "adapt_target = m\npost.m = 0.0005\nadapt_at = 0\n"  # diverges at t = 0.38


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files on Linux")
@pytest.mark.parametrize("argv, forks", [
    (["pair", "--t-end", "20", "--plot"], 1),
    (["isolated", "--t-end", "20", "--plot"], 1),
    (["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", "0,1,2,3"], 2),
], ids=["pair", "isolated", "sweep"])
def test_refused_fork_runs_in_process(tmp_path, monkeypatch, argv, forks):
    # under a process limit no child starts: on two cores each command then
    # runs in one process, with the bytes of a one-CPU run, and leaves no
    # pipe open
    def outputs(name):
        out = tmp_path / name / "out.csv"
        out.parent.mkdir()
        assert main([*argv, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.parent.iterdir()}

    monkeypatch.setattr(fork, "cores", lambda: 1)
    alone, refused = outputs("alone"), []

    def refused_fork():
        refused.append(None)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", refused_fork)
    monkeypatch.setattr(fork, "cores", lambda: 2)
    before = sorted(os.listdir("/proc/self/fd"))
    assert outputs("refused") == alone
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(refused) == forks
    assert_no_child_left()


class TestIntegratingChild:
    """On two cores ``isolated`` and ``pair`` integrate in a forked child. It
    never runs the caller's code, and no exit path of ``main`` leaves it
    behind."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(fork, "cores", lambda: 2)
        monkeypatch.setattr(sim, "BLOCK_ROWS", 10)

    @pytest.mark.parametrize("command", ["isolated", "pair"])
    def test_success_reports_each_file_once(self, tmp_path, capfd, command):
        # capfd sees the child's writes to the inherited descriptors too
        argv, names = PLOT_RUNS[command]
        assert main([*argv, "--plot", "--out", str(tmp_path / "x.csv")]) == 0
        assert_no_child_left()
        assert capfd.readouterr() == (
            "".join(f"wrote {tmp_path / name}\n" for name in names), "")
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)

    def test_divergence_exits_3_as_in_process(self, tmp_path, monkeypatch, capfd):
        (tmp_path / "run.cfg").write_text(POLE_LINES, encoding="utf-8")
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier result\n")
        argv = ["pair", "--t-end", "50", "--plot", "--config", str(tmp_path / "run.cfg"),
                "--out", str(out)]
        assert main(argv) == 3
        assert_no_child_left()
        overlapped = capfd.readouterr()
        monkeypatch.setattr(fork, "cores", lambda: 1)
        assert main(argv) == 3
        assert capfd.readouterr() == overlapped
        assert overlapped.out == "" and "'m' reached zero" in overlapped.err
        assert out.read_bytes() == b"earlier result\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg", "x.csv"]

    @pytest.mark.parametrize("error, code", [
        (OSError("disk full"), 4), (ValueError("bad row"), 2), (KeyboardInterrupt(), None),
    ], ids=["OSError", "ValueError", "KeyboardInterrupt"])
    @pytest.mark.parametrize("command", ["isolated", "pair"])
    def test_failing_writer_leaves_no_child(self, tmp_path, monkeypatch, command, error, code):
        # fails at the sixth of 2000 blocks, while the child still integrates
        writer = {"isolated": cli._ColumnWriter, "pair": cli._PairWriter}[command]
        put = writer.put

        def put_then_fail(self, block, *text):
            if len(self) > 50:
                raise error
            put(self, block, *text)

        monkeypatch.setattr(writer, "put", put_then_fail)
        argv = [command, "--t-end", "200", "--out", str(tmp_path / "x.csv")]
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == code
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == []


#: the forked child's choice forced, whatever the timing, as ``id: (rule,
#: whether the writer gets the text of block i)``; a rule keeps its count in
#: the child
FORCED = {
    "always": (lambda: lambda unread: True, lambda i: True),
    "never": (lambda: lambda unread: False, lambda i: False),
    "every-other": (lambda: lambda unread, calls=itertools.count(): next(calls) % 2 == 1,
                    lambda i: i % 2 == 1),
}


def outputs(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestChildFormats:
    """On two cores the forked child formats the blocks its writer falls
    behind on, and the writer writes their text: the bytes are those of one
    core whichever blocks the child takes."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sim, "BLOCK_ROWS", 50)

    @staticmethod
    def texts_handed(monkeypatch, command) -> list:
        """Whether each block reached the writer with its text, logged."""
        writer = {"isolated": cli._ColumnWriter, "pair": cli._PairWriter}[command]
        put, handed = writer.put, []

        def logged(self, block, *texts):
            handed.append(bool(texts))
            put(self, block, *texts)

        monkeypatch.setattr(writer, "put", logged)
        return handed

    @pytest.mark.parametrize("rule", list(FORCED))
    @pytest.mark.parametrize("command", ["isolated", "pair"])
    def test_bytes_are_those_of_one_core(self, tmp_path, monkeypatch, command, rule):
        # 2001 rows in 41 blocks; both of the pair's averages fill
        argv = [command, "--t-end", "20", "--plot"]
        monkeypatch.setattr(fork, "cores", lambda: 1)
        (tmp_path / "one").mkdir()
        assert main([*argv, "--out", str(tmp_path / "one" / "x.csv")]) == 0
        make_rule, stolen = FORCED[rule]
        monkeypatch.setattr(fork, "cores", lambda: 2)
        monkeypatch.setattr(sim, "_behind", make_rule())
        handed = self.texts_handed(monkeypatch, command)
        (tmp_path / "two").mkdir()
        assert main([*argv, "--out", str(tmp_path / "two" / "x.csv")]) == 0
        assert_no_child_left()
        assert handed == [stolen(i) for i in range(41)]
        assert len(outputs(tmp_path / "two")) == {"isolated": 5, "pair": 2}[command]
        assert outputs(tmp_path / "two") == outputs(tmp_path / "one")

    @pytest.mark.parametrize("rule", list(FORCED))
    def test_divergence_mid_run_exits_3_as_on_one_core(self, tmp_path, monkeypatch, capfd, rule):
        # the adapted m reaches zero after 38 rows: three blocks of 10 are handed over
        monkeypatch.setattr(sim, "BLOCK_ROWS", 10)
        (tmp_path / "run.cfg").write_text(POLE_LINES, encoding="utf-8")
        argv = ["pair", "--t-end", "50", "--plot", "--config", str(tmp_path / "run.cfg"),
                "--out", str(tmp_path / "x.csv")]
        monkeypatch.setattr(fork, "cores", lambda: 1)
        assert main(argv) == 3
        in_process = capfd.readouterr()
        make_rule, stolen = FORCED[rule]
        monkeypatch.setattr(fork, "cores", lambda: 2)
        monkeypatch.setattr(sim, "_behind", make_rule())
        handed = self.texts_handed(monkeypatch, "pair")
        assert main(argv) == 3
        assert_no_child_left()
        assert capfd.readouterr() == in_process
        assert "'m' reached zero" in in_process.err
        assert handed == [stolen(i) for i in range(3)]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="waits for a child without reaping it")
    @pytest.mark.parametrize("probe", ["works", "fails"])
    def test_child_that_cannot_count_the_pipe_never_formats(self, tmp_path, monkeypatch, probe):
        # the writer reads nothing until the child has sent every block and
        # ended, so from the third block on the child finds it two blocks
        # behind; 11 blocks of 10 rows fit a 64 KiB pipe with their text
        import fcntl

        monkeypatch.setattr(sim, "BLOCK_ROWS", 10)
        monkeypatch.setattr(fork, "cores", lambda: 2)
        result = fork.Child.result

        def after_the_child_ends(self, hand=None):
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
            return result(self, hand)

        monkeypatch.setattr(fork.Child, "result", after_the_child_ends)
        if probe == "fails":
            def no_fionread(*args):
                raise OSError("FIONREAD refused")

            monkeypatch.setattr(fcntl, "ioctl", no_fionread)
        handed = self.texts_handed(monkeypatch, "pair")
        with deadline(60):
            assert main(["pair", "--t-end", "1", "--out", str(tmp_path / "x.csv")]) == 0
        assert handed == [False, False, *[probe == "works"] * 9]


class TestConfigFile:
    def test_config_drives_run(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# experiment setup\n"
            "dt = 0.02\n"
            "t_end = 2\n"
            "i2 = 1.5\n"
            "record_every = 2\n"
            "\n"
            "initial_post = 0.5, 0, 0, 0\n",
            encoding="utf-8",
        )
        out = tmp_path / "pair.csv"
        assert main(["pair", "--config", str(config), "--out", str(out)]) == 0
        lines = read_lines(out)
        assert len(lines) == 1 + 51  # 100 steps, every 2nd recorded
        row0 = lines[1].split(",")
        assert float(row0[9]) == 1.5
        assert float(row0[5]) == 0.5

    def test_flags_beat_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("t_end = 2\npre.I = 1.0\n", encoding="utf-8")
        out = tmp_path / "iso.csv"
        assert main(["isolated", "--config", str(config), "--i1", "2.5",
                     "--out", str(out)]) == 0
        # the isolated command reports the sending neuron; check via Hdot at
        # the origin-free first row is not needed, the param shows in dx
        lines = read_lines(out)
        assert lines[0] == ISOLATED_HEADER

    def test_param_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("t_end = 1\npost.I = 2.0\n", encoding="utf-8")
        out = tmp_path / "pair.csv"
        assert main(["pair", "--config", str(config), "--out", str(out)]) == 0
        assert float(read_lines(out)[1].split(",")[9]) == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("speed = 11\n", encoding="utf-8")
        assert main(["pair", "--config", str(config)]) == 2

    def test_unknown_param_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("pre.q = 11\n", encoding="utf-8")
        assert main(["pair", "--config", str(config)]) == 2

    def test_bad_value_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("dt = fast\n", encoding="utf-8")
        assert main(["pair", "--config", str(config)]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("dt 0.01\n", encoding="utf-8")
        assert main(["pair", "--config", str(config)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["pair", "--config", str(tmp_path / "nope.cfg")]) == 2


def subcommands():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def flags_of(command):
    """Long flags of one subcommand that set a config key."""
    return [flag for action in command._actions for flag in action.option_strings
            if flag.startswith("--") and flag not in ("--help", "--config")]


def resolve(tmp_path, argv, config_lines=()):
    config = tmp_path / "run.cfg"
    config.write_text("".join(line + "\n" for line in config_lines), encoding="utf-8")
    return resolve_config(build_parser().parse_args([*argv, "--config", str(config)]))


#: (command, flag argv, config line) for every flag that sets a config key
FLAG_AND_FILE_FORMS = [
    ("pair", ["--out", "run.csv"], "out = run.csv"),
    ("pair", ["--plot"], "plot = true"),
    ("pair", ["--dt", "0.02"], "dt = 0.02"),
    ("pair", ["--t-end", "30"], "t_end = 30"),
    ("pair", ["--i1", "2.5"], "i1 = 2.5"),
    ("pair", ["--i2", "1.5"], "i2 = 1.5"),
    ("pair", ["--adapt-at", "20"], "adapt_at = 20"),
    ("pair", ["--no-adapt"], "adapt = false"),
    ("pair", ["--gain", "2.7"], "gain = 2.7"),
    ("pair", ["--K", "3"], "k = 3"),
    ("sweep", ["--K-list", "1,2.5"], "k_list = 1,2.5"),
]


class TestResolution:
    def test_grid_defaults_are_the_sim_spec_defaults(self):
        assert RunConfig().sim_spec() == SimSpec()

    def test_current_flag_beats_file_override_beats_file_current(self, tmp_path):
        file_lines = ["i1 = 2.0", "pre.I = 1.0", "i2 = 0.5", "post.I = 0.7"]
        by_file = resolve(tmp_path, ["pair"], file_lines).pair_config()
        assert (by_file.pre.I, by_file.post.I) == (1.0, 0.7)
        by_flag = resolve(tmp_path, ["pair", "--i1", "2.5", "--i2", "0.9"], file_lines)
        assert (by_flag.pair_config().pre.I, by_flag.pair_config().post.I) == (2.5, 0.9)

    def test_file_switches_survive_absent_flags(self, tmp_path):
        cfg = resolve(tmp_path, ["pair"], ["plot = true", "adapt = false"])
        assert cfg.plot is True and cfg.adapt is False
        assert cfg.pair_config().adaptation is None

    def test_coupling_flags(self, tmp_path):
        assert resolve(tmp_path, ["pair", "--K", "3"]).k == 3.0
        assert resolve(tmp_path, ["sweep", "--K-list", "1,2.5"]).k_list == (1.0, 2.5)

    def test_every_flag_has_a_case(self):
        declared = {flag for command in subcommands().values() for flag in flags_of(command)}
        assert declared == {case[1][0] for case in FLAG_AND_FILE_FORMS}

    @pytest.mark.parametrize("command, flag_argv, line", FLAG_AND_FILE_FORMS,
                             ids=[case[1][0] for case in FLAG_AND_FILE_FORMS])
    def test_flag_and_file_forms_agree(self, tmp_path, command, flag_argv, line):
        by_flag = resolve(tmp_path, [command, *flag_argv])
        by_file = resolve(tmp_path, [command], [line])
        assert by_flag == by_file
        assert by_flag != resolve(tmp_path, [command])

    def test_bad_flag_value_is_a_usage_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hrsync", "pair", "--dt", "fast",
             "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "dt" in proc.stderr
        assert not (tmp_path / "x.csv").exists()


def pinned_digest(tmp_path, name):
    argv, config_lines, _ = PINNED_SHA256[name]
    config = tmp_path / "run.cfg"
    config.write_text("".join(line + "\n" for line in config_lines), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_SHA256))
def test_output_bytes_are_pinned(tmp_path, name):
    assert pinned_digest(tmp_path, name) == PINNED_SHA256[name][2]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


CORES = {1: "one-core", 2: "two-cores"}


def on_cores(cases, usual):
    """Each case on one core, where a run integrates in process, and on two,
    where it integrates in a forked child. The ``usual`` count keeps the
    case's own id; the other count's name is appended to it."""
    return [
        pytest.param(*values, cores, id=case if cores == usual else f"{case}-{CORES[cores]}")
        for case, values in cases.items()
        for cores in (usual, 3 - usual)
    ]


@pytest.mark.parametrize("name, seed, cores", on_cores({
    f"{name}-{seed}": (name, seed)
    for name, seed in [("pair_default", 0), ("pair_generic", 0), ("isolated_long", 0),
                       ("sweep5", 0), ("pair_default", 7), ("pair_generic", 7), ("sweep5", 7)]
}, usual=2))
def test_benchmark_workload_bytes(tmp_path, monkeypatch, name, seed, cores):
    # every output of a benchmark run, SVG included, against its recorded sha256
    monkeypatch.setattr(fork, "cores", lambda: cores)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(workload.config_text(seed), encoding="utf-8")
    assert main(workload.argv("run.cfg")) == 0
    digests = {output: hashlib.sha256(Path(output).read_bytes()).hexdigest()
               for output in workload.outputs}
    assert digests == golden[name][str(seed)]


#: sha256 of the charts that no benchmark workload writes, as ``id: (argv,
#: sha256)``, recorded before a rewrite of the chart writer that keeps the bytes
PINNED_SVG_SHA256 = {
    "isolated": (
        ("isolated", "--t-end", "20", "--plot"),
        "ef3f0642609c6cc547e1944535f0c42f207fdc74d6a36141d6275ae41692d4bf",
    ),
    "sweep": (
        ("sweep", "--K-list", "0,5", "--plot"),
        "9b4cc646eafdbc1a4d41300d413bb776d32a6b622739457a2e6ed216bfe1c9f7",
    ),
}


@pytest.mark.parametrize("name, cores", on_cores({name: (name,) for name in PINNED_SVG_SHA256},
                                                 usual=2))
def test_chart_bytes_are_pinned(tmp_path, monkeypatch, name, cores):
    monkeypatch.setattr(fork, "cores", lambda: cores)
    argv, digest = PINNED_SVG_SHA256[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.with_suffix(".svg").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("rows, cores", on_cores(
    {str(rows): (rows,) for rows in (1, 7, 499, 500, 999, 1000, 1001)}, usual=2))
def test_output_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, rows, cores):
    # the averaging windows span 500 and 1000 rows at dt = 0.01
    monkeypatch.setattr(fork, "cores", lambda: cores)
    monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
    for name, (_, _, digest) in PINNED_SHA256.items():
        assert pinned_digest(tmp_path, name) == digest, name


def test_sampled_pair_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    # every 3rd step from t = 5.52: windows of 334 and 167 rows
    argv = ["pair", "--t-end", "40", "--plot", "--config", str(tmp_path / "run.cfg")]
    (tmp_path / "run.cfg").write_text("record_every = 3\ntransient = 5.5\n", encoding="utf-8")

    def output(rows):
        monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
        out = tmp_path / f"rows{rows}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes(), out.with_suffix(".svg").read_bytes()

    default = output(sim.BLOCK_ROWS)
    assert len(default[0].splitlines()) == 1 + 1150
    for rows in (1, 166, 167, 333, 334, 335):
        assert output(rows) == default


def traced_peak(argv) -> int:
    gc.collect()  # no cyclic garbage of an earlier run counts
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class UntracedChild(fork.Child):
    """A forked child that stops ``tracemalloc`` before its work: tracing
    survives the fork, and it would slow the child's integration some
    20-fold, although only this process's allocations are measured."""

    def __init__(self, work):
        def untraced(send, read):
            tracemalloc.stop()
            return work(send, read)

        super().__init__(untraced)


@pytest.mark.parametrize("argv, cores", on_cores({
    "isolated": (["isolated"],),
    "pair": (["pair"],),
    "isolated-plot": (["isolated", "--plot"],),
    "pair-plot": (["pair", "--plot"],),
}, usual=1))
def test_memory_does_not_grow_with_the_run(tmp_path, monkeypatch, argv, cores):
    # tracing every allocation slows a run some 20-fold, so small blocks let
    # short runs stand for long ones: 10 blocks against 100, and a chart of
    # at most 100 points a series lets both runs reach that bound. tracemalloc
    # sees only this process: on one core it holds the integration and the
    # writer, on two only the writer. Short averaging windows fill in both
    # runs, so both carry the pair's trailing sums and only growth per row
    # tells them apart. Every few dozen runs the interpreter rebuilds a table
    # of its own (interned names), some 0.4 MB at once, inside whichever run
    # fills it; that never happens in two runs in a row, so each length takes
    # the smaller peak of two. Compiling a run's integration loop peaks above
    # the rest of the run (about 0.76 MB for a pair, 0.40 MB for a lone
    # neuron), so each peak is taken from the moment the loop is generated.
    # The long run's 4500 more rows may add 12 bytes a row: a writer that
    # keeps each block (56 or 112 bytes a row), or 16 bytes a row, fails
    # every case, and these writers add 0 to 4.
    monkeypatch.setattr(fork, "cores", lambda: cores)
    monkeypatch.setattr(fork, "Child", UntracedChild)
    # the untraced child would format most blocks itself; here this process
    # formats them all, so the memory of formatting is measured
    monkeypatch.setattr(sim, "_behind", lambda unread: False)
    monkeypatch.setattr(sim, "BLOCK_ROWS", 50)
    generate = sim._kernels

    def generated(*args):
        loop = generate(*args)
        # for every allocation tracemalloc looks up the current line, which
        # walks the big loop's line table; without one the loop runs the same
        # bytecode, allocates the same and gives the same bits, only faster
        loop.__code__ = loop.__code__.replace(co_linetable=b"")
        tracemalloc.reset_peak()
        return loop

    monkeypatch.setattr(sim, "_kernels", generated)
    monkeypatch.setattr(svgplot, "_MAX_POINTS_PER_SERIES", 100)
    monkeypatch.setattr(cli, "H_WINDOW", 2.0)
    monkeypatch.setattr(cli, "HDOT_WINDOW", 1.0)
    out = str(tmp_path / "out.csv")
    main([*argv, "--t-end", "5", "--out", out])  # one-time costs
    short, long = (min(traced_peak([*argv, "--t-end", t_end, "--out", out]) for _ in range(2))
                   for t_end in ("5", "50"))
    assert long - short < 12 * 4500, (short, long)


#: rows in the block of the test below, larger than the blocks a run hands
#: its sinks: the pair writer carries a window of running sums from block to
#: block, which would outweigh a twentieth of a small block's ``tolist()``
FORMATTED_ROWS = 4096


@pytest.mark.parametrize("command", ["isolated", "pair"])
def test_writers_hold_a_row_not_the_block(tmp_path, command):
    # ``tolist()`` of a block makes an object of every float in it; the
    # writers format from one row at a time
    width = {"isolated": 7, "pair": 14}[command]
    spec = SimSpec(dt=0.01, t_end=(FORMATTED_ROWS - 1) * 0.01)
    assert len(spec.recorded_steps) == FORMATTED_ROWS
    data = array("d", (math.sin(i) for i in range(FORMATTED_ROWS * width)))
    block = memoryview(data).toreadonly().cast("B").cast("d", (FORMATTED_ROWS, width))
    with open(os.devnull, "w", encoding="utf-8") as handle:
        if command == "isolated":
            writer = cli._ColumnWriter([(handle, range(7)), (handle, (1, 2, 3))], spec)
        else:
            writer = cli._PairWriter(handle, spec, plot=False)
        tracemalloc.start()
        try:
            rows = block.tolist()
            listed = tracemalloc.get_traced_memory()[0]
            del rows
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            writer.put(block)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < listed / 20, (peak, listed)


@pytest.mark.parametrize("command", ["isolated", "pair"])
def test_text_step_holds_one_block(command):
    # a forked child builds a block's text in one buffer: its peak does not
    # grow with the blocks fed, and stays under two copies of the block's
    # text plus the pair's carried sums, which keeping the block's lines to
    # join them would not
    width, rows = {"isolated": 7, "pair": 14}[command], sim.BLOCK_ROWS
    spec = SimSpec(dt=0.01, t_end=(101 * rows - 1) * 0.01)
    data = array("d", (math.sin(i) for i in range(rows * width)))
    block = memoryview(data).toreadonly().cast("B").cast("d", (rows, width))

    def text_peak(blocks):
        with open(os.devnull, "w", encoding="utf-8") as handle:
            if command == "isolated":
                writer = cli._ColumnWriter([(handle, range(7)), (handle, (1, 2, 3))], spec)
            else:
                writer = cli._PairWriter(handle, spec, plot=False)
            writer.text(block)  # the pair's averages start in the second block
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for _ in range(blocks):
                    writer.text(block)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            text = sum(map(len, writer.text(block)))
            carried = sum(sys.getsizeof(mean._sums) + len(mean._sums) * sys.getsizeof(0.0)
                          for mean in getattr(writer, "means", ()))
        return peak, text, carried

    (short, _, _), (long, text, carried) = text_peak(10), text_peak(100)
    assert abs(long - short) < 0.1 * short, (short, long)
    assert long < 2 * text + carried, (long, text, carried)


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--t-end", "inf"],
        ["pair", "--adapt-at", "nan"],
        ["pair", "--K", "inf"],
        ["sweep", "--K-list", "0,nan"],
        ["pair", "--gain", "inf"],
        # finite settings whose step count t_end/dt overflows a float
        ["pair", "--t-end", "1e308"],
        ["pair", "--dt", "1e-320", "--t-end", "1"],
    ],
    ids=" ".join,
)
def test_non_finite_input_is_a_usage_error(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hrsync", *argv, "--out", str(tmp_path / "x.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "finite" in proc.stderr


@pytest.mark.parametrize(
    "name, config_lines",
    [
        ("a", ["adapt_target = a", "post.a = 0.05", "gain = 5", "adapt_at = 0"]),
        ("m", ["adapt_target = m", "post.m = 0.0005", "adapt_at = 0"]),
    ],
)
def test_adapted_pole_is_a_divergence(tmp_path, name, config_lines):
    # the energy divides by a and m*s; adapting either through zero stops the run
    config = tmp_path / "run.cfg"
    config.write_text("".join(line + "\n" for line in config_lines), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "hrsync", "pair", "--t-end", "50", "--config", str(config),
         "--out", str(tmp_path / "x.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"adapted parameter {name!r}" in proc.stderr
    assert "t=" in proc.stderr


class TestInvocation:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["pair", "--bogus"])
        assert err.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "iso.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "hrsync", "isolated", "--t-end", "1",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()


class TestReadme:
    """README's options section lists every config key and every flag."""

    @pytest.fixture(scope="class")
    def section(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return readme.split("### Options and config files", 1)[1].split("\n### ", 1)[0]

    def test_every_key_is_in_the_key_table(self, section):
        key_column = " ".join(re.findall(r"^\|([^|]*)\|", section, re.M))
        keys = [f.name for f in dataclasses.fields(RunConfig) if not f.name.endswith("_overrides")]
        missing = [key for key in keys + ["pre.<name>", "post.<name>"] if f"`{key}`" not in key_column]
        assert missing == []

    def test_every_flag_is_in_the_flag_list(self, section):
        flag_list = section.strip().split("\n\n", 1)[0]
        listed = set(re.findall(r"`(--[\w-]+)", flag_list))
        declared = {flag for command in subcommands().values() for flag in flags_of(command)}
        assert declared | {"--config"} <= listed


#: Runs ``hrsync.cli.main(argv)`` as on two cores, logging from every process
#: that integrates or reduces a window whether numpy is imported there, then
#: prints the caller's pid, exit code, and whether numpy, ``multiprocessing``
#: and ``concurrent.futures`` are imported, as JSON.
NO_NUMPY_SCRIPT = """
import json, os, sys
import hrsync
from hrsync import analysis, cli, fork, sim, svgplot

log, argv = sys.argv[1], sys.argv[2:]

def logged(fn):
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps([os.getpid(), "numpy" in sys.modules]) + "\\n")
    return call

sim._integrate = logged(sim._integrate)
analysis.sync_rms = logged(analysis.sync_rms)
fork.cores = lambda: 2
code = cli.main(argv)
print(json.dumps([os.getpid(), code, *(name in sys.modules for name in
                                        ("numpy", "multiprocessing", "concurrent.futures"))]))
"""


@pytest.mark.parametrize("argv, forks", [
    (("isolated", "--t-end", "5", "--plot"), False),
    (("pair", "--t-end", "50", "--plot"), True),  # 5001 rows: the child integrates
    (("sweep", "--K-list", "0,1", "--t-end", "20", "--adapt-at", "10"), True),  # a child per group
])
def test_cli_never_imports_numpy(tmp_path, argv, forks):
    log = tmp_path / "log.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, str(log), *argv, "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    caller, code, numpy_loaded, *pool_modules = json.loads(proc.stdout.splitlines()[-1])
    assert (code, numpy_loaded) == (0, False)
    # forked runs and the sweep's children use a bare pipe, with no pool
    assert pool_modules == [False, False]
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert records and not any(loaded for _, loaded in records)
    assert any(pid != caller for pid, _ in records) == forks
