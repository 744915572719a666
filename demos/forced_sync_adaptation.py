"""Forced synchronization and its energy cost, then adaptive structural tuning.

A chaotic sender (I1=3.024) drives a nonidentical receiver (I2=0.85) through an
electrical coupling of strength K=5. Holding the receiver on the sender's
regime costs energy: the receiver's averaged energy derivative is far from
zero. An adaptive law steers the receiver's external current toward the
sender's; the net energy flow collapses to zero while the current climbs
from 0.85 to 3.024.

Both effects live on the model's slow time scales. The receiver starts cold
and its slow currents relax on ~1/m = 465 (z) and ~1/(n*k) = 1160 (w), and the
forced regime bursts about every 300 units. So the forced run discards its
first 500 units and averages over 1000, and the adapted run (law on from
t=100) is read over the last 1000 units of 3000, when the current gap and the
state error have both decayed. This is the protocol of acceptance criteria
5 and 6.
"""

from pathlib import Path

from hrsync import (
    AdaptationSpec,
    NeuronParams,
    PairConfig,
    SimSpec,
    run_pair,
    sync_rms,
    windowed_average,
)
from hrsync.svgplot import Panel, write_chart

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

sender = NeuronParams.canonical(I=3.024)
receiver = NeuronParams.canonical(I=0.85)


def window_mean(series, lo, hi):
    mask = (series.times >= lo) & (series.times <= hi)
    return series.values[mask].mean()


print("forced regime: K=5, no adaptation, t in [0, 1500] ...")
forced = run_pair(SimSpec(dt=0.01, t_end=1500.0, record_every=10),
                  PairConfig(pre=sender, post=receiver, K=5.0))
forced_h2 = windowed_average(forced.t, forced.H_post, 10.0)
forced_hdot2 = windowed_average(forced.t, forced.Hdot_post, 5.0)
print("receiving neuron, forced (t in [500, 1500]):")
print(f"  10-unit averaged energy      : {window_mean(forced_h2, 500, 1500):+8.2f}")
print(f"  5-unit averaged energy deriv.: {window_mean(forced_hdot2, 500, 1500):+8.3f}  <- the coupling pays this")
print(f"  full-state sync error (RMS)  : {sync_rms(forced, 500, 1500):8.3f}")

print("adapted: K=5, current adaptation from t=100, t in [0, 3000] ...")
config = PairConfig(
    pre=sender,
    post=receiver,
    K=5.0,
    adaptation=AdaptationSpec(target="I", gain=1.0, start_time=100.0),
)
adapted = run_pair(SimSpec(dt=0.01, t_end=3000.0, record_every=10), config)
adapted_hdot2 = windowed_average(adapted.t, adapted.Hdot_post, 5.0)
print("receiving neuron, adapted (t in [2000, 3000]):")
print(f"  5-unit averaged energy deriv.: {window_mean(adapted_hdot2, 2000, 3000):+8.4f}  <- balanced again")
print(f"  full-state sync error (RMS)  : {sync_rms(adapted, 2990, 3000):8.4f}  (t in [2990, 3000])")
print(f"adapted current: 0.85 -> {adapted.q[-1]:.4f} (sender at 3.024)")

with open(out_dir / "forced_sync_adaptation.svg", "w", encoding="utf-8", newline="\n") as handle:
    write_chart(
        handle,
        [
            Panel("receiving-neuron energy derivative, 5-unit average, no adaptation",
                  "t", "Hdot2")
            .add("avgHdot2", forced_hdot2.times, forced_hdot2.values),
            Panel("receiving-neuron energy derivative, 5-unit average, adaptation from t=100",
                  "t", "Hdot2")
            .add("avgHdot2", adapted_hdot2.times, adapted_hdot2.values),
            Panel("adapted external current", "t", "I2").add("I2", adapted.t, adapted.q),
        ],
    )
print(f"wrote {out_dir}/forced_sync_adaptation.svg")
