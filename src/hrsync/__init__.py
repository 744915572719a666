"""Energy accounting for the synchronization of electrically coupled
Hindmarsh-Rose neurons.

A four-variable neuron model carries an energy function whose trajectory
derivative measures the net flow of energy the neuron exchanges with its
environment. On its free attractor that flow averages to zero; a neuron
forced to follow a structurally different one dissipates energy that the
coupling must supply. An adaptive law on the receiving neuron's external
current removes the mismatch and with it the synchronization cost.

The package is organized as:

* :mod:`hrsync.model`    - parameters, states, vector field and its
  conservative/dissipative split, parameter sensitivities.
* :mod:`hrsync.energy`   - energy function, gradient, energy derivative.
* :mod:`hrsync.sim`      - fixed-step integration of one neuron or the
  coupled pair, with the adaptive law.
* :mod:`hrsync.analysis` - windowed averages, sync error, coupling sweeps.
* :mod:`hrsync.cli`      - ``hrsync`` command line tool (CSV/SVG emission).
"""

from .analysis import SweepSummary, WindowedSeries, sweep_K, sync_rms, windowed_average
from .energy import EnergyReport, energy, energy_derivative, energy_gradient, energy_report
from .model import (
    ADAPTABLE_PARAMS,
    NeuronParams,
    NeuronState,
    StateDerivative,
    conservative_field,
    dissipative_field,
    param_sensitivity,
    vector_field,
)
from .sim import (
    AdaptationSpec,
    DivergenceError,
    PairConfig,
    SimSpec,
    Trajectory,
    coupled_derivative,
    rk4_step,
    run_isolated,
    run_pair,
)

__version__ = "0.1.0"

__all__ = [
    "ADAPTABLE_PARAMS",
    "AdaptationSpec",
    "DivergenceError",
    "EnergyReport",
    "NeuronParams",
    "NeuronState",
    "PairConfig",
    "SimSpec",
    "StateDerivative",
    "SweepSummary",
    "Trajectory",
    "WindowedSeries",
    "conservative_field",
    "coupled_derivative",
    "dissipative_field",
    "energy",
    "energy_derivative",
    "energy_gradient",
    "energy_report",
    "param_sensitivity",
    "rk4_step",
    "run_isolated",
    "run_pair",
    "sweep_K",
    "sync_rms",
    "vector_field",
    "windowed_average",
]
