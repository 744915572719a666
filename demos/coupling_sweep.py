"""Synchronization cost as a function of the coupling strength.

Repeats the drive-response experiment for K from 0 to 2 and summarizes the
receiving neuron's energy bookkeeping in a window before the adaptation
starts and one after it has acted. Stronger coupling forces the receiver
deeper into the sender's regime and costs more energy; once the receiver's
current adapts, the net flow drops toward zero at every coupling strength.

Each run lasts 2000 units with adaptation from t=1000, and each window spans
the last 500 units before or after the switch: long enough for the slow
currents to relax (~1/m = 465) and to cover more than a burst spacing (~300).
This is the protocol of acceptance criterion 7.
"""

from pathlib import Path

from hrsync import AdaptationSpec, NeuronParams, PairConfig, SimSpec, sweep_K
from hrsync.svgplot import Panel, write_chart

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

config = PairConfig(
    pre=NeuronParams.canonical(I=3.024),
    post=NeuronParams.canonical(I=0.85),
    K=0.0,  # replaced per sweep point
    adaptation=AdaptationSpec(start_time=1000.0),
)
k_values = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
print(f"sweeping K over {k_values} (one 2000-unit run each, in parallel) ...")
summaries = sweep_K(k_values, SimSpec(dt=0.01, t_end=2000.0, record_every=10), config,
                    pre_window=(500.0, 1000.0), post_window=(1500.0, 2000.0))

print(f"{'K':>5} {'preHdot':>9} {'postHdot':>9} {'preSync':>8} {'postSync':>9}")
for s in summaries:
    print(f"{s.K:5.2f} {s.pre_adapt_avg_Hdot:9.3f} {s.post_adapt_avg_Hdot:9.3f} "
          f"{s.pre_adapt_sync_rms:8.3f} {s.post_adapt_sync_rms:9.3f}")

panel = Panel("receiving-neuron mean energy derivative vs coupling", "K", "mean Hdot")
panel.add("before adaptation", [s.K for s in summaries],
          [s.pre_adapt_avg_Hdot for s in summaries])
panel.add("after adaptation", [s.K for s in summaries],
          [s.post_adapt_avg_Hdot for s in summaries])
with open(out_dir / "coupling_sweep.svg", "w", encoding="utf-8", newline="\n") as handle:
    write_chart(handle, [panel])
print(f"wrote {out_dir}/coupling_sweep.svg")
