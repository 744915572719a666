"""Energy accounting for the synchronization of electrically coupled
Hindmarsh-Rose neurons.

A four-variable neuron model carries an energy function whose trajectory
derivative measures the net flow of energy the neuron exchanges with its
environment. On its free attractor that flow averages to zero; a neuron
forced to follow a structurally different one dissipates energy that the
coupling must supply. An adaptive law on the receiving neuron's external
current removes the mismatch and with it the synchronization cost.

The package is organized as:

* :mod:`hrsync.model`    - parameters, states, the expression tables of the
  vector field, its conservative part, the sensitivities and the pair's
  terms, and the per-point kernels ``field`` and ``conservative``.
* :mod:`hrsync.energy`   - the energy table and its per-point kernel
  ``energy_terms``: energy, gradient, dissipative part, energy derivative.
* :mod:`hrsync.sim`      - fixed-step integration of one sender that
  drives no receiver (a lone neuron), one (the coupled pair) or several,
  with the adaptive law.
* :mod:`hrsync.fork`     - a forked child that streams its output back
  over a pipe.
* :mod:`hrsync.analysis` - windowed averages, sync error, coupling sweeps.
* :mod:`hrsync.cli`      - ``hrsync`` command line tool (CSV/SVG emission).
"""

from .analysis import SweepSummary, WindowedSeries, sweep_K, sync_rms, windowed_average
from .energy import energy_terms
from .model import ADAPTABLE_PARAMS, NeuronParams, NeuronState, conservative, field
from .sim import (
    AdaptationSpec,
    DivergenceError,
    PairConfig,
    SimSpec,
    Trajectory,
    run_isolated,
    run_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ADAPTABLE_PARAMS",
    "AdaptationSpec",
    "DivergenceError",
    "NeuronParams",
    "NeuronState",
    "PairConfig",
    "SimSpec",
    "SweepSummary",
    "Trajectory",
    "WindowedSeries",
    "conservative",
    "energy_terms",
    "field",
    "run_isolated",
    "run_pair",
    "sweep_K",
    "sync_rms",
    "windowed_average",
]
