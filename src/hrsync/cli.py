"""Command-line front end: deterministic CSV (and optional SVG) emission.

Three subcommands map onto the reference experiments:

* ``isolated`` - one free neuron; time series of state, energy and energy
  derivative (chaotic spiking-bursting at the default current).
* ``pair``     - drive-response pair with electrical coupling and adaptive
  tuning of the receiving neuron's external current from t=100.
* ``sweep``    - the pair experiment repeated across coupling strengths,
  summarized per run before and after adaptation.

Each setting is declared once, as a field of :class:`RunConfig`: the field
name is its config key and the field type picks the parser of its text.
Options come from an optional flat ``key = value`` config file plus command
line flags; flags win. A flag is one ``(flag, key, help)`` row of a table and
hands its text to the same :meth:`RunConfig.apply_key` as a file line, so
both forms parse and fail alike; its help shows the default of
``RunConfig()``. Unknown config keys are rejected. All data output is CSV
(UTF-8, LF line endings, shortest round-trip float formatting) and is
byte-identical across repeated invocations of the same configuration on a
given platform. ``pair``'s ``e_norm`` and ``sweep``'s ``preSync`` and
``postSync`` square with Python's ``**`` in one function,
``analysis._squared_errors``. It calls libm ``pow``, so their bytes hold for
a given libm build; sums run left to right, so they do not depend on the
Python version. ``sweep.csv``'s window means add in the order of numpy's
pairwise sum, so they keep the bits ``np.mean`` gave, but no command
imports numpy. ``isolated`` and ``pair`` format each block of rows as it
arrives, one row at a time (:meth:`hrsync.sim.Sink.rows`), and keep of
each charted series only the points the chart draws
(:class:`hrsync.svgplot.Thinned`), so their memory does not grow with the
run. A forked run's child formats the blocks this process falls behind on
with its copy of the writer, one block's text at a time (the writers'
``text``), and this process writes that text in place of formatting the
block, with the same bytes. Every file, SVG included, is written as
``<path>.part``, renamed into place if the command succeeds, else deleted.

Exit codes: 0 success, 2 usage or config error, 3 numerical divergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from array import array
from contextlib import ExitStack
from dataclasses import astuple, dataclass, field, fields as dc_fields, replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import TextIO, get_type_hints

from .analysis import TrailingMean, _squared_errors, sweep_K
from .model import PARAM_INDEX, NeuronParams, NeuronState
from .sim import AdaptationSpec, DivergenceError, PairConfig, SimSpec, Sink, run_isolated, run_pair
from .svgplot import Panel, Thinned, write_chart

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

DIVERGENCE_MARKER = "ERR:divergence"

#: Trailing window lengths (time units) for the averaged pair columns.
H_WINDOW = 10.0
HDOT_WINDOW = 5.0

class ConfigError(ValueError):
    """Bad setting: unreadable or unparsable config file, unknown key, or a
    value of a key or flag that its parser rejects."""


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


def _neuron_params(current: float, overrides: dict[str, float]) -> NeuronParams:
    return replace(NeuronParams.canonical(I=current), **overrides)


@dataclass
class RunConfig:
    """Resolved settings for one invocation (defaults < config file < flags)."""

    dt: float = SimSpec.dt
    t_end: float = SimSpec.t_end
    record_every: int = SimSpec.record_every
    transient: float = SimSpec.transient
    initial_pre: NeuronState = SimSpec.initial_pre
    initial_post: NeuronState = SimSpec.initial_post
    i1: float = 3.024
    i2: float = 0.85
    k: float = 5.0
    k_list: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    adapt: bool = True
    adapt_at: float = 100.0
    gain: float = 1.0
    adapt_target: str = "I"
    out: str = ""
    plot: bool = False
    pre_overrides: dict[str, float] = field(default_factory=dict)
    post_overrides: dict[str, float] = field(default_factory=dict)

    def apply_key(self, key: str, raw: str) -> None:
        """Set one setting from its text, as a config line or a flag gives it."""
        side, dot, name = key.partition(".")
        if dot and side in ("pre", "post"):
            if name not in PARAM_INDEX:
                raise ConfigError(f"unknown neuron parameter in key {key!r}")
            convert = float
        elif key in _KEY_PARSERS:
            convert = _KEY_PARSERS[key]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = convert(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        if dot:
            getattr(self, f"{side}_overrides")[name] = value
        else:
            setattr(self, key, value)

    def sim_spec(self) -> SimSpec:
        spec = SimSpec(**{f.name: getattr(self, f.name) for f in dc_fields(SimSpec)})
        if not spec.recorded_steps:
            raise ConfigError(
                f"no step is recorded: with record_every = {spec.record_every}, no recorded"
                f" step falls between transient = {spec.transient:g} and t_end = {spec.t_end:g}"
            )
        return spec

    def pair_config(self) -> PairConfig:
        adaptation = None
        if self.adapt:
            adaptation = AdaptationSpec(
                target=self.adapt_target, gain=self.gain, start_time=self.adapt_at
            )
        return PairConfig(
            pre=_neuron_params(self.i1, self.pre_overrides),
            post=_neuron_params(self.i2, self.post_overrides),
            K=self.k,
            adaptation=adaptation,
        )


#: config key -> parser of its text, from the field's type; the per-neuron
#: override dicts are set through ``pre.<name>``/``post.<name>`` keys instead
_TYPE_PARSERS = {
    float: float,
    int: int,
    bool: _parse_bool,
    str: str.strip,
    NeuronState: _parse_state,
    tuple[float, ...]: _parse_float_list,
}
_KEY_PARSERS = {
    name: _TYPE_PARSERS[hint]
    for name, hint in get_type_hints(RunConfig).items()
    if hint in _TYPE_PARSERS
}


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
    if args.config:
        for key, raw in read_config_file(args.config):
            cfg.apply_key(key, raw)
    # flags win over the file; --i1/--i2 also beat file-level pre.I/post.I
    for key in _KEY_PARSERS:
        raw = getattr(args, key, None)
        if raw is not None:
            cfg.apply_key(key, raw)
    for key, overrides in (("i1", cfg.pre_overrides), ("i2", cfg.post_overrides)):
        if getattr(args, key, None) is not None:
            overrides.pop("I", None)
    return cfg


class _Outputs(ExitStack):
    """The files of one command: ``parts`` maps each path, in the order
    opened, to the ``<path>.part`` its handle writes. A normal exit renames
    every part into place in that order; any failure, a failed rename
    included, deletes every part not yet renamed."""

    def __init__(self):
        super().__init__()
        self.parts: dict[Path, Path] = {}

    def open(self, path: Path, header: str | None = None) -> TextIO:
        """A handle on ``path``'s part, starting with the ``header`` line."""
        if path in self.parts:
            raise ConfigError(f"two outputs of the command share the path {str(path)!r}")
        if path.is_dir():
            raise IsADirectoryError(f"output path {str(path)!r} is a directory")
        part = path.with_name(path.name + ".part")
        handle = self.enter_context(open(part, "w", encoding="utf-8", newline="\n"))
        self.parts[path] = part
        if header is not None:
            handle.write(header + "\n")
        return handle

    def __exit__(self, *exc_info) -> None:
        renamed = 0
        try:
            super().__exit__(*exc_info)  # closes every handle
            if exc_info[0] is None:
                for path, part in self.parts.items():
                    os.replace(part, path)
                    renamed += 1
        finally:
            for part in list(self.parts.values())[renamed:]:
                part.unlink(missing_ok=True)


def _text(write, *args) -> memoryview:
    """The bytes ``write(*args, handle)`` writes to a text handle that
    encodes as the CSV handles do."""
    buffer = io.BytesIO()
    handle = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n", write_through=True)
    write(*args, handle)
    handle.detach()  # flushes, and leaves the buffer open
    return buffer.getbuffer()


class _ColumnWriter(Sink):
    """Writes picked columns of each block of rows to CSV handles, and keeps
    the drawn points of each ``(x, y)`` pair of columns in ``plotted``."""

    def __init__(self, outputs, spec: SimSpec, plotted=()):
        self.outputs = [(handle, tuple(picks)) for handle, picks in outputs]
        n = len(spec.recorded_steps)
        self.plotted = [(Thinned(n), columns) for columns in plotted]

    @staticmethod
    def _write(block: memoryview, picks, handle) -> None:
        # row by row: a block's rows or text at once would hold many times
        # the memory of the block; only a forked child, when this process
        # falls behind, holds one block's text (``text``)
        write = handle.write
        for row in map(itemgetter(*picks), Sink.rows(block)):
            write(",".join(map(repr, row)) + "\n")

    def text(self, block: memoryview) -> list:
        return [_text(self._write, block, picks) for _, picks in self.outputs]

    def put(self, block: memoryview, *texts) -> None:
        for (handle, picks), text in zip(self.outputs, texts or repeat(None)):
            if text is None:
                self._write(block, picks, handle)
            else:
                handle.flush()  # the bytes a child made follow what the handle holds
                handle.buffer.write(text)
        for series, (x, y) in self.plotted:
            series.extend(Sink.column(block, x), Sink.column(block, y))


def _trailing_mean(spec: SimSpec, window: float) -> TrailingMean | None:
    """The trailing mean over ``window`` on the run's recorded grid, or None
    when the window never fills (its cells then stay empty)."""
    steps = spec.recorded_steps
    if len(steps) < 2:
        return None
    # the spacing windowed_average takes from the first and last sample time
    spacing = (steps[-1] * spec.dt - steps[0] * spec.dt) / (len(steps) - 1)
    try:
        return TrailingMean(window, spacing, len(steps))
    except ValueError:
        return None


class _PairWriter(Sink):
    """Writes each block of pair rows as CSV with the state error norm and
    the trailing averages of the receiver's energy and its derivative; with
    ``plot`` it keeps the drawn points of the current and of each average
    against time. An average starts once its window is full, so it belongs
    to the last times."""

    def __init__(self, handle, spec: SimSpec, plot: bool):
        self.handle = handle
        self.means = [_trailing_mean(spec, window) for window in (H_WINDOW, HDOT_WINDOW)]
        n = len(spec.recorded_steps)
        self.plotted = [Thinned(n), *(Thinned(mean.count(n)) if mean else None
                                      for mean in self.means)] if plot else []

    def carry(self, block: memoryview) -> list:
        """Push the block into each average; returns each average's means of
        the block, lazily, and how many it has: the means belong to the last
        rows."""
        n = len(block)
        return [(mean.push(Sink.column(block, c)), min(n, max(0, mean.count(mean.fed))))
                if mean else ((), 0) for mean, c in zip(self.means, (12, 13))]

    def text(self, block: memoryview) -> list:
        return [_text(self._write, block, self.carry(block))]

    def put(self, block: memoryview, *texts) -> None:
        n, column = len(block), Sink.column
        averages = self.carry(block)
        if self.plotted:
            t = column(block, 0)
            current, *means = self.plotted
            current.extend(t, column(block, 9))
            # the chart slices the means, so this block's are kept for it
            averages = [(array("d", new), count) for new, count in averages]
            for series, (new, count) in zip(means, averages):
                if series:
                    series.extend(t[n - count:], new)
        if texts:
            self.handle.flush()  # the bytes a child made follow what the handle holds
            self.handle.buffer.write(*texts)
        else:
            self._write(block, averages, self.handle)

    @staticmethod
    def _write(block: memoryview, averages, handle) -> None:
        n, column = len(block), Sink.column
        cells = [chain(repeat("", n - count), map(repr, new)) for new, count in averages]
        norms = map(math.sqrt, _squared_errors(*(column(block, c) for c in range(1, 9))))
        write = handle.write
        for (ti, x1, y1, z1, w1, x2, y2, z2, w2, q, H1, Hd1, H2, Hd2), e_norm, aH, aHd in zip(
            Sink.rows(block), norms, *cells
        ):
            write(
                f"{ti!r},{x1!r},{y1!r},{z1!r},{w1!r},{x2!r},{y2!r},{z2!r},{w2!r},{q!r},"
                f"{e_norm!r},{H1!r},{Hd1!r},{H2!r},{Hd2!r},{aH},{aHd}\n"
            )


def cmd_isolated(cfg: RunConfig, outputs: _Outputs) -> None:
    spec = cfg.sim_spec()
    params = _neuron_params(cfg.i1, cfg.pre_overrides)
    out = Path(cfg.out or "isolated.csv")
    handles = [(outputs.open(out, "t,x,y,z,w,H,Hdot"), range(7))]
    if cfg.plot:
        # opened before the run, as in ``pair``, so that a bad chart path fails early
        chart = outputs.open(out.with_suffix(".svg"))
        # attractor projections as flat data files, not rendered 3D
        handles += [
            (outputs.open(out.with_name(f"{out.stem}_proj_{columns}.csv"), ",".join(columns)),
             [1 + "xyzw".index(c) for c in columns])
            for columns in ("xyz", "xyw", "xzw")
        ]
    plotted = ((0, 1), (0, 5), (0, 6)) if cfg.plot else ()
    writer = run_isolated(spec, params, _ColumnWriter(handles, spec, plotted))

    if cfg.plot:
        x, H, Hdot = (series for series, _ in writer.plotted)
        write_chart(chart, [
            Panel("action potential", "t", "x").add_thinned("x", x),
            Panel("energy", "t", "H").add_thinned("H", H),
            Panel("energy derivative", "t", "Hdot").add_thinned("Hdot", Hdot),
        ])


def cmd_pair(cfg: RunConfig, outputs: _Outputs) -> None:
    spec, config = cfg.sim_spec(), cfg.pair_config()
    out = Path(cfg.out or "pair.csv")
    header = "t,x1,y1,z1,w1,x2,y2,z2,w2,I2,e_norm,H1,Hdot1,H2,Hdot2,avgH2_w10,avgHdot2_w5"
    handle = outputs.open(out, header)
    chart = outputs.open(out.with_suffix(".svg")) if cfg.plot else None
    writer = run_pair(spec, config, _PairWriter(handle, spec, cfg.plot))

    if cfg.plot:
        current, *averages = writer.plotted
        panels = [
            Panel(title, "t", ylabel).add_thinned(label, series)
            for (title, ylabel, label), series in zip(
                (
                    ("receiving-neuron energy, 10-unit average", "H2", "avgH2_w10"),
                    ("receiving-neuron energy derivative, 5-unit average", "Hdot2", "avgHdot2_w5"),
                ),
                averages,
            )
            # an average whose window never filled has no panel
            if series
        ]
        panels.append(Panel("adapted external current", "t", "I2").add_thinned("I2", current))
        write_chart(chart, panels)


def cmd_sweep(cfg: RunConfig, outputs: _Outputs) -> None:
    spec, config = cfg.sim_spec(), cfg.pair_config()
    if not 0 < cfg.adapt_at < cfg.t_end:
        raise ConfigError(f"sweep needs 0 < adapt_at < t_end, got adapt_at = {cfg.adapt_at:g}"
                          f" and t_end = {cfg.t_end:g}")
    # opened before the runs, so that a bad output path fails early; the chart
    # is opened after them, since none is written when every run diverged
    out = Path(cfg.out or "sweep.csv")
    handle = outputs.open(out, "K,preH,preHdot,postH,postHdot,preSync,postSync")
    # windows: the second half of the run before the switch, and of the rest
    summaries = sweep_K(
        cfg.k_list,
        spec,
        config,
        pre_window=(cfg.adapt_at / 2, cfg.adapt_at),
        post_window=((cfg.t_end + cfg.adapt_at) / 2, cfg.t_end),
    )
    for s in summaries:
        # the fields but ``error`` are the columns, in order
        cells = [repr(float(v)) for v in astuple(s)[:-1]]
        if s.error is not None:
            cells[1:] = [DIVERGENCE_MARKER] + [""] * (len(cells) - 2)
        handle.write(",".join(cells) + "\n")

    good = [s for s in summaries if s.error is None]
    if cfg.plot and good:
        panel = Panel("receiving-neuron average energy derivative vs coupling", "K", "mean Hdot")
        panel.add("before adaptation", [s.K for s in good], [s.pre_adapt_avg_Hdot for s in good])
        panel.add("after adaptation", [s.K for s in good], [s.post_adapt_avg_Hdot for s in good])
        write_chart(outputs.open(out.with_suffix(".svg")), [panel])


#: ``(flag, config key, help)`` per group of subcommands. A flag stores its
#: text under its key; on a boolean key it is a switch that stores "false"
#: when spelled ``--no-...`` and "true" otherwise.
_COMMON_FLAGS = (
    ("--out", "out", "output CSV path"),
    ("--plot", "plot", "also write SVG charts"),
    ("--dt", "dt", "integration step"),
    ("--t-end", "t_end", "final time"),
    ("--i1", "i1", "sending-neuron external current"),
)
_PAIR_LIKE_FLAGS = _COMMON_FLAGS + (
    ("--i2", "i2", "receiving-neuron external current"),
    ("--adapt-at", "adapt_at", "adaptation start time"),
    ("--no-adapt", "adapt", "disable the adaptive law"),
    ("--gain", "gain", "adaptation gain"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrsync",
        description="Energy accounting for coupled Hindmarsh-Rose neurons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for name, func, summary, flags in (
        ("isolated", cmd_isolated, "one free neuron: state, energy, energy derivative",
         _COMMON_FLAGS),
        ("pair", cmd_pair, "coupled pair with adaptive current tuning",
         _PAIR_LIKE_FLAGS + (("--K", "k", "coupling strength"),)),
        ("sweep", cmd_sweep, "pair experiment across coupling strengths",
         _PAIR_LIKE_FLAGS + (("--K-list", "k_list", "coupling strengths"),)),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", metavar="PATH", help="flat key=value config file")
        for flag, key, text in flags:
            default = getattr(defaults, key)
            if isinstance(default, bool):
                const = "false" if flag.startswith("--no-") else "true"
                command.add_argument(flag, dest=key, action="store_const", const=const, help=text)
                continue
            if isinstance(default, tuple):
                text += f" (default {','.join(f'{v:g}' for v in default)})"
            elif isinstance(default, float):
                text += f" (default {default:g})"
            command.add_argument(flag, dest=key, help=text)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _Outputs() as outputs:
            args.func(resolve_config(args), outputs)
        for path in outputs.parts:
            print(f"wrote {path}")
        return EXIT_OK
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
