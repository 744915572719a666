"""The benchmark's workloads and the seed-to-config generator.

Each workload is one ``hrsync`` CLI invocation. The seed draws the initial
states of the two neurons, the only free input of the experiment; everything
else is fixed per workload. Seed 0 gives the documented defaults. The
program receives only the generated ``--config`` file (and the subcommand's
fixed flags), never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_PRE = (0.1, 0.2, 0.3, 0.1)
DEFAULT_POST = (0.0, 0.0, 0.0, 0.0)
#: Half-width of the uniform perturbation added to each start component.
#: Small enough that every drawn start stays on the bounded attractor basin.
SPREAD = 0.25

DT = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    config: tuple[tuple[str, str], ...]
    outputs: tuple[str, ...]
    t_end: float
    record_every: int
    k_count: int

    @property
    def steps(self) -> int:
        """RK4 steps the program integrates, summed over the sweep's K values."""
        return round(self.t_end / DT) * self.k_count

    def argv(self, config_path: str) -> list[str]:
        return [self.command, *self.flags, "--config", config_path]

    def config_text(self, seed: int) -> str:
        pre, post = initial_states(seed)
        lines = [f"# perfbench workload {self.name}, seed {seed}"]
        lines.append(f"out = {self.outputs[0]}")
        lines.append("initial_pre = " + ",".join(repr(v) for v in pre))
        if self.command != "isolated":
            lines.append("initial_post = " + ",".join(repr(v) for v in post))
        lines.extend(f"{key} = {value}" for key, value in self.config)
        return "\n".join(lines) + "\n"


def initial_states(seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Start states of the sender and receiver drawn from ``seed``."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed == 0:
        return DEFAULT_PRE, DEFAULT_POST
    rng = random.Random(seed)
    pre = tuple(v + rng.uniform(-SPREAD, SPREAD) for v in DEFAULT_PRE)
    post = tuple(v + rng.uniform(-SPREAD, SPREAD) for v in DEFAULT_POST)
    return pre, post


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pair_default",
            command="pair",
            flags=("--plot",),
            config=(),
            outputs=("pair.csv", "pair.svg"),
            t_end=200.0,
            record_every=1,
            k_count=1,
        ),
        Workload(
            name="pair_generic",
            command="pair",
            flags=(),
            config=(("adapt_target", "f"), ("post.f", "5.1"), ("record_every", "10")),
            outputs=("pair.csv",),
            t_end=200.0,
            record_every=10,
            k_count=1,
        ),
        Workload(
            name="isolated_long",
            command="isolated",
            flags=("--t-end", "2000"),
            config=(),
            outputs=("isolated.csv",),
            t_end=2000.0,
            record_every=1,
            k_count=1,
        ),
        Workload(
            name="sweep5",
            command="sweep",
            flags=(),
            config=(),
            outputs=("sweep.csv",),
            t_end=200.0,
            record_every=1,
            k_count=5,
        ),
    )
}
