"""Probe beam propagation through a warm Raman vapor structured by a
vortex control beam: analytic susceptibility, thermal averaging, and a
split-step paraxial solver."""

__version__ = "0.1.0"
