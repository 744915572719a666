"""Command-line front end: deterministic CSV (and optional SVG) emission.

Three subcommands map onto the reference experiments:

* ``isolated`` - one free neuron; time series of state, energy and energy
  derivative (chaotic spiking-bursting at the default current).
* ``pair``     - drive-response pair with electrical coupling and adaptive
  tuning of the receiving neuron's external current from t=100.
* ``sweep``    - the pair experiment repeated across coupling strengths,
  summarized per run before and after adaptation.

Options come from an optional flat ``key = value`` config file plus command
line flags; flags win. Unknown config keys are rejected. All data output is
CSV (UTF-8, LF line endings, shortest round-trip float formatting) and is
byte-identical across repeated invocations of the same configuration on a
given platform. ``pair``'s ``e_norm`` and ``sweep``'s ``preSync`` and
``postSync`` square with Python's ``**``, which calls libm ``pow``, so their
bytes hold for a given libm build.

Exit codes: 0 success, 2 usage or config error, 3 numerical divergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from .analysis import sweep_K, windowed_average
from .model import NeuronParams, NeuronState
from .sim import AdaptationSpec, DivergenceError, PairConfig, SimSpec, run_isolated, run_pair
from .svgplot import Panel, write_chart

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

DIVERGENCE_MARKER = "ERR:divergence"

#: Trailing window lengths (time units) for the averaged pair columns.
H_WINDOW = 10.0
HDOT_WINDOW = 5.0

#: Rows formatted per write, so the text held in memory stays bounded.
CSV_CHUNK_ROWS = 4096


class ConfigError(ValueError):
    """Bad config file: unreadable, unparsable, or unknown/invalid keys."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def _parse_state(text: str) -> NeuronState:
    values = _parse_float_list(text)
    if len(values) != 4:
        raise ConfigError(f"expected 4 comma-separated floats, got {text!r}")
    return NeuronState(*values)


_PARAM_FIELDS = tuple(f.name for f in dc_fields(NeuronParams))


@dataclass
class RunConfig:
    """Resolved settings for one invocation (defaults < config file < flags)."""

    dt: float = 0.01
    t_end: float = 200.0
    record_every: int = 1
    transient: float = 0.0
    initial_pre: NeuronState = NeuronState(0.1, 0.2, 0.3, 0.1)
    initial_post: NeuronState = NeuronState(0.0, 0.0, 0.0, 0.0)
    i1: float = 3.024
    i2: float = 0.85
    k: float = 5.0
    k_list: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    adapt: bool = True
    adapt_at: float = 100.0
    gain: float = 1.0
    adapt_target: str = "I"
    out: str | None = None
    plot: bool = False
    pre_overrides: dict[str, float] = field(default_factory=dict)
    post_overrides: dict[str, float] = field(default_factory=dict)

    def apply_key(self, key: str, raw: str) -> None:
        simple = {
            "dt": ("dt", float),
            "t_end": ("t_end", float),
            "record_every": ("record_every", int),
            "transient": ("transient", float),
            "initial_pre": ("initial_pre", _parse_state),
            "initial_post": ("initial_post", _parse_state),
            "i1": ("i1", float),
            "i2": ("i2", float),
            "k": ("k", float),
            "k_list": ("k_list", _parse_float_list),
            "adapt": ("adapt", _parse_bool),
            "adapt_at": ("adapt_at", float),
            "gain": ("gain", float),
            "adapt_target": ("adapt_target", str.strip),
            "out": ("out", str.strip),
            "plot": ("plot", _parse_bool),
        }
        if key in simple:
            attr, convert = simple[key]
            try:
                setattr(self, attr, convert(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
            return
        for prefix, overrides in (("pre.", self.pre_overrides), ("post.", self.post_overrides)):
            if key.startswith(prefix):
                name = key[len(prefix):]
                if name not in _PARAM_FIELDS:
                    raise ConfigError(f"unknown neuron parameter in key {key!r}")
                try:
                    overrides[name] = float(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
                return
        raise ConfigError(f"unknown config key {key!r}")

    def pre_params(self) -> NeuronParams:
        params = NeuronParams.canonical(I=self.i1)
        if self.pre_overrides:
            params = _override(params, self.pre_overrides)
        return params

    def post_params(self) -> NeuronParams:
        params = NeuronParams.canonical(I=self.i2)
        if self.post_overrides:
            params = _override(params, self.post_overrides)
        return params

    def sim_spec(self) -> SimSpec:
        return SimSpec(
            dt=self.dt,
            t_end=self.t_end,
            record_every=self.record_every,
            initial_pre=self.initial_pre,
            initial_post=self.initial_post,
            transient=self.transient,
        )

    def pair_config(self) -> PairConfig:
        adaptation = None
        if self.adapt:
            adaptation = AdaptationSpec(
                target=self.adapt_target, gain=self.gain, start_time=self.adapt_at
            )
        return PairConfig(
            pre=self.pre_params(),
            post=self.post_params(),
            K=self.k,
            adaptation=adaptation,
        )


def _override(params: NeuronParams, values: dict[str, float]) -> NeuronParams:
    return replace(params, **values)


def read_config_file(path: str) -> list[tuple[str, str]]:
    """Parse a flat ``key = value`` file; full-line ``#`` comments allowed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    items: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        items.append((key.strip(), raw.strip()))
    return items


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, raw in read_config_file(args.config):
            cfg.apply_key(key, raw)
    # flags win over the file; --i1/--i2 also beat file-level pre.I/post.I
    if getattr(args, "dt", None) is not None:
        cfg.dt = args.dt
    if getattr(args, "t_end", None) is not None:
        cfg.t_end = args.t_end
    if getattr(args, "i1", None) is not None:
        cfg.i1 = args.i1
        cfg.pre_overrides.pop("I", None)
    if getattr(args, "i2", None) is not None:
        cfg.i2 = args.i2
        cfg.post_overrides.pop("I", None)
    if getattr(args, "K", None) is not None:
        cfg.k = args.K
    if getattr(args, "K_list", None) is not None:
        cfg.k_list = _parse_float_list(args.K_list)
    if getattr(args, "adapt_at", None) is not None:
        cfg.adapt_at = args.adapt_at
    if getattr(args, "gain", None) is not None:
        cfg.gain = args.gain
    if getattr(args, "no_adapt", False):
        cfg.adapt = False
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if getattr(args, "plot", False):
        cfg.plot = True
    return cfg


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: str, lines) -> None:
    """Write ``header`` and an iterable of newline-terminated rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        handle.writelines(lines)


def _float_lines(*columns):
    """CSV rows of float columns (1-d, or 2-d for several at once), formatted
    ``CSV_CHUNK_ROWS`` rows at a time."""
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = np.column_stack([c[lo : lo + CSV_CHUNK_ROWS] for c in columns]).tolist()
        yield from [",".join(map(repr, row)) + "\n" for row in rows]


def _aligned_average(t, values, window: float) -> list[str]:
    """Trailing average formatted per row; empty until the window fills."""
    try:
        series = windowed_average(t, values, window)
    except ValueError:
        # run shorter than the window (or sampling coarser): all cells empty
        return [""] * len(t)
    offset = len(t) - len(series.values)
    return [""] * offset + [_fmt(v) for v in series.values]


def cmd_isolated(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    params = cfg.pre_params()
    run = run_isolated(cfg.sim_spec(), params)
    out = Path(cfg.out or "isolated.csv")

    _write_csv(out, "t,x,y,z,w,H,Hdot", _float_lines(run.t, run.pre, run.H_pre, run.Hdot_pre))
    written = [out]

    if cfg.plot:
        t = run.t
        state = run.pre
        chart = out.with_suffix(".svg")
        write_chart(
            chart,
            [
                Panel("action potential", "t", "x").add("x", t, state[:, 0]),
                Panel("energy", "t", "H").add("H", t, run.H_pre),
                Panel("energy derivative", "t", "Hdot").add("Hdot", t, run.Hdot_pre),
            ],
        )
        written.append(chart)
        # attractor projections as flat data files, not rendered 3D
        for columns in ("xyz", "xyw", "xzw"):
            picks = ["xyzw".index(c) for c in columns]
            proj_path = out.with_name(f"{out.stem}_proj_{columns}.csv")
            _write_csv(proj_path, ",".join(columns), _float_lines(state[:, picks]))
            written.append(proj_path)

    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_pair(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    run = run_pair(cfg.sim_spec(), cfg.pair_config())
    out = Path(cfg.out or "pair.csv")

    t = run.t
    avg_H2 = _aligned_average(t, run.H_post, H_WINDOW)
    avg_Hdot2 = _aligned_average(t, run.Hdot_post, HDOT_WINDOW)

    def lines():
        for lo in range(0, len(run), CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            rows = np.column_stack((
                t[lo:hi], run.pre[lo:hi], run.post[lo:hi], run.q[lo:hi],
                run.H_pre[lo:hi], run.Hdot_pre[lo:hi], run.H_post[lo:hi], run.Hdot_post[lo:hi],
            )).tolist()
            for (ti, x1, y1, z1, w1, x2, y2, z2, w2, q, H1, Hd1, H2, Hd2), aH, aHd in zip(
                rows, avg_H2[lo:hi], avg_Hdot2[lo:hi]
            ):
                e_norm = math.sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2 + (z2 - z1) ** 2 + (w2 - w1) ** 2)
                yield (
                    f"{ti!r},{x1!r},{y1!r},{z1!r},{w1!r},{x2!r},{y2!r},{z2!r},{w2!r},{q!r},"
                    f"{e_norm!r},{H1!r},{Hd1!r},{H2!r},{Hd2!r},{aH},{aHd}\n"
                )

    _write_csv(
        out,
        "t,x1,y1,z1,w1,x2,y2,z2,w2,I2,e_norm,H1,Hdot1,H2,Hdot2,avgH2_w10,avgHdot2_w5",
        lines(),
    )
    written = [out]

    if cfg.plot:
        chart = out.with_suffix(".svg")
        filled_H = [(tt, float(v)) for tt, v in zip(t, avg_H2) if v]
        filled_Hd = [(tt, float(v)) for tt, v in zip(t, avg_Hdot2) if v]
        write_chart(
            chart,
            [
                Panel("receiving-neuron energy, 10-unit average", "t", "H2")
                .add("avgH2_w10", [p[0] for p in filled_H], [p[1] for p in filled_H]),
                Panel("receiving-neuron energy derivative, 5-unit average", "t", "Hdot2")
                .add("avgHdot2_w5", [p[0] for p in filled_Hd], [p[1] for p in filled_Hd]),
                Panel("adapted external current", "t", "I2")
                .add("I2", t, run.q),
            ],
        )
        written.append(chart)

    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if not cfg.k_list:
        raise ValueError("sweep needs at least one coupling strength")
    # windows: the second half of the run before the switch, and of the rest
    summaries = sweep_K(
        cfg.k_list,
        cfg.sim_spec(),
        cfg.pair_config(),
        pre_window=(cfg.adapt_at / 2, cfg.adapt_at),
        post_window=((cfg.t_end + cfg.adapt_at) / 2, cfg.t_end),
        max_workers=getattr(args, "jobs", None),
    )
    out = Path(cfg.out or "sweep.csv")

    def rows():
        for s in summaries:
            if s.error is not None:
                yield (_fmt(s.K), DIVERGENCE_MARKER, "", "", "", "", "")
            else:
                yield (
                    _fmt(s.K),
                    _fmt(s.pre_adapt_avg_H),
                    _fmt(s.pre_adapt_avg_Hdot),
                    _fmt(s.post_adapt_avg_H),
                    _fmt(s.post_adapt_avg_Hdot),
                    _fmt(s.pre_adapt_sync_rms),
                    _fmt(s.post_adapt_sync_rms),
                )

    _write_csv(
        out,
        "K,preH,preHdot,postH,postHdot,preSync,postSync",
        (",".join(row) + "\n" for row in rows()),
    )
    written = [out]

    if cfg.plot:
        good = [s for s in summaries if s.error is None]
        if good:
            chart = out.with_suffix(".svg")
            panel = Panel(
                "receiving-neuron average energy derivative vs coupling",
                "K",
                "mean Hdot",
            )
            panel.add("before adaptation", [s.K for s in good], [s.pre_adapt_avg_Hdot for s in good])
            panel.add("after adaptation", [s.K for s in good], [s.post_adapt_avg_Hdot for s in good])
            write_chart(chart, [panel])
            written.append(chart)

    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--plot", action="store_true", help="also write SVG charts")
    parser.add_argument("--dt", type=float, help="integration step (default 0.01)")
    parser.add_argument("--t-end", dest="t_end", type=float, help="final time (default 200)")
    parser.add_argument("--i1", type=float, help="sending-neuron external current (default 3.024)")


def _add_pair_like(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--i2", type=float, help="receiving-neuron external current (default 0.85)")
    parser.add_argument("--adapt-at", dest="adapt_at", type=float,
                        help="adaptation start time (default 100)")
    parser.add_argument("--no-adapt", dest="no_adapt", action="store_true",
                        help="disable the adaptive law")
    parser.add_argument("--gain", type=float, help="adaptation gain (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrsync",
        description="Energy accounting for coupled Hindmarsh-Rose neurons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iso = sub.add_parser("isolated", help="one free neuron: state, energy, energy derivative")
    _add_common(p_iso)
    p_iso.set_defaults(func=cmd_isolated)

    p_pair = sub.add_parser("pair", help="coupled pair with adaptive current tuning")
    _add_common(p_pair)
    _add_pair_like(p_pair)
    p_pair.add_argument("--K", type=float, help="coupling strength (default 5)")
    p_pair.set_defaults(func=cmd_pair)

    p_sweep = sub.add_parser("sweep", help="pair experiment across coupling strengths")
    _add_common(p_sweep)
    _add_pair_like(p_sweep)
    p_sweep.add_argument("--K-list", dest="K_list", metavar="K1,K2,...",
                         help="coupling strengths (default 0,0.5,1,1.5,2)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the sweep (default: all cores; "
                              "never more than one per K)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
