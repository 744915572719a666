import hashlib
import subprocess
import sys

import pytest

from hrsync import analysis
from hrsync.analysis import sweep_K
from hrsync.cli import main
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
        out = tmp_path / "pair.csv"
        main(["pair", "--t-end", "5", "--no-adapt", "--out", str(out)])
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

    def test_unwritable_output_exits_4(self, tmp_path):
        code = main(["pair", "--t-end", "1",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 4

    def test_plot(self, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["pair", "--t-end", "30", "--out", str(out), "--plot"]) == 0
        assert (tmp_path / "pair.svg").exists()


class TestSweep:
    def test_csv_contract_and_divergence_marker(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--K-list", "5,1e6", "--out", str(out),
                     "--jobs", "2"]) == 0
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
        assert main(["sweep", "--K-list", "1,1", "--out", str(out),
                     "--jobs", "1"]) == 0
        lines = read_lines(out)
        assert lines[1] == lines[2]

    def test_plot(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--K-list", "0.5,2", "--out", str(out),
                     "--jobs", "2", "--plot"]) == 0
        assert (tmp_path / "sweep.svg").exists()

    def test_too_short_run_exits_2(self, tmp_path):
        code = main(["sweep", "--K-list", "1", "--t-end", "100",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_empty_k_list_exits_2(self, tmp_path):
        code = main(["sweep", "--K-list", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("jobs, k_list, pool_size", [
        ("64", "0,1", 2),
        ("5000", "0", None),
        (None, "0,1,2,3,4,5,6,7,8", 4),
        (None, "0,1", 2),
    ])
    def test_pool_has_at_most_one_worker_per_run(self, tmp_path, monkeypatch,
                                                 jobs, k_list, pool_size):
        # a forked pool starts every worker up front; count what is asked for
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 4)
        argv = ["sweep", "--t-end", "2", "--adapt-at", "1", "--K-list", k_list,
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv + (["--jobs", jobs] if jobs else [])) == 0
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_windows_follow_the_run(self, tmp_path):
        # pre: second half of [0, adapt_at]; post: second half of [adapt_at, t_end]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--t-end", "20", "--adapt-at", "10", "--K-list", "1",
                     "--jobs", "1", "--out", str(out)]) == 0
        config = PairConfig(pre=NeuronParams.canonical(I=3.024),
                            post=NeuronParams.canonical(I=0.85),
                            adaptation=AdaptationSpec(start_time=10.0))
        (s,) = sweep_K([1.0], SimSpec(dt=0.01, t_end=20.0), config,
                       pre_window=(5.0, 10.0), post_window=(15.0, 20.0), max_workers=1)
        want = (s.K, s.pre_adapt_avg_H, s.pre_adapt_avg_Hdot, s.post_adapt_avg_H,
                s.post_adapt_avg_Hdot, s.pre_adapt_sync_rms, s.post_adapt_sync_rms)
        assert read_lines(out)[1] == ",".join(repr(v) for v in want)


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


@pytest.mark.parametrize("name", list(PINNED_SHA256))
def test_output_bytes_are_pinned(tmp_path, name):
    argv, config_lines, digest = PINNED_SHA256[name]
    config = tmp_path / "run.cfg"
    config.write_text("".join(line + "\n" for line in config_lines), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--t-end", "inf"],
        ["pair", "--adapt-at", "nan"],
        ["pair", "--K", "inf"],
        ["sweep", "--K-list", "0,nan"],
        ["pair", "--gain", "inf"],
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
