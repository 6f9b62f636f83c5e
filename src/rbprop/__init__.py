"""Probe beam propagation through a warm Raman vapor structured by a
vortex control beam: analytic susceptibility, thermal averaging, and a
split-step paraxial solver."""

__version__ = "0.1.0"

from .analysis import (RunDiagnostics, beam_width, index_contrast,
                       peak_positions, transmission)
from .beams import ControlBeamSpec, ProbeSpec, control_field, make_probe
from .config import SimulationConfig, parse_config, serialize_config
from .params import (ConfigurationError, GridSpec, PhysicalParams,
                     dipole_prefactor, prefactor_over_gamma, validate)
from .solver import (ComplexField2D, NumericsError, StepPlan,
                     diffraction_step, propagate)
from .susceptibility import (ChiTable, FieldPoint, build_chi_table,
                             chi_doppler_averaged, chi_stationary,
                             steady_state_oracle)

__all__ = [
    "ChiTable", "ComplexField2D", "ConfigurationError", "ControlBeamSpec",
    "FieldPoint", "GridSpec", "NumericsError", "PhysicalParams", "ProbeSpec",
    "RunDiagnostics", "SimulationConfig",
    "StepPlan", "beam_width", "build_chi_table", "chi_doppler_averaged", "chi_stationary", "control_field",
    "diffraction_step", "dipole_prefactor", "index_contrast", "make_probe",
    "parse_config", "peak_positions", "prefactor_over_gamma", "propagate",
    "serialize_config", "steady_state_oracle",
    "transmission", "validate",
]
