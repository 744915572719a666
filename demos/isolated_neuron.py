"""A single free Hindmarsh-Rose neuron: chaotic bursting and its energy budget.

Runs the canonical neuron at the chaotic external current, prints the
long-run balance of its energy derivative (zero net exchange with the
environment on the free attractor), and writes the traces plus attractor
projections under ./demo_output/.
"""

from pathlib import Path

import numpy as np

from hrsync import NeuronParams, SimSpec, run_isolated
from hrsync.svgplot import Panel, write_chart

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

params = NeuronParams.canonical(I=3.024)

# long run for the energy balance; drop the settling transient
print("integrating 2000 time units (dt=0.01) ...")
long_run = run_isolated(SimSpec(dt=0.01, t_end=2000.0, record_every=10,
                                transient=500.0), params)
mean_hdot = np.mean(long_run.Hdot_pre)
print(f"free-attractor mean energy derivative over t in [500, 2000]: {mean_hdot:+.4f}")
print("(a free neuron exchanges as much energy as it receives: the average is ~0)")

# short, densely sampled run for the traces
trace = run_isolated(SimSpec(dt=0.01, t_end=700.0, record_every=2,
                             transient=500.0), params)
t, state = trace.t, trace.pre

with open(out_dir / "isolated_traces.svg", "w", encoding="utf-8", newline="\n") as handle:
    write_chart(
        handle,
        [
            Panel("membrane potential", "t", "x").add("x", t, state[:, 0]),
            Panel("energy", "t", "H").add("H", t, trace.H_pre),
            Panel("energy derivative", "t", "Hdot").add("Hdot", t, trace.Hdot_pre),
        ],
    )

# 2D projections of the four-dimensional attractor
for columns in ("xyz", "xyw", "xzw"):
    picks = ["xyzw".index(c) for c in columns]
    rows = state[:, picks]
    path = out_dir / f"isolated_proj_{columns}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")

# spike-phase bookkeeping: depolarization dissipates, repolarization demands
x = state[:, 0]
hdot = trace.Hdot_pre
dx = np.gradient(x, t[1] - t[0])
print(f"while x rises fast, Hdot < 0 in {(hdot[dx > 2] < 0).mean():.0%} of samples")
print(f"while x falls fast, Hdot > 0 in {(hdot[dx < -2] > 0).mean():.0%} of samples")
print(f"wrote {out_dir}/isolated_traces.svg and three projection CSVs")
