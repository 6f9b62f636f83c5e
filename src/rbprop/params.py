"""Physical and numerical parameters for the Raman vapor beam propagation model.

All frequency-like quantities except ``gamma`` itself are stored dimensionless,
in units of the spontaneous decay rate gamma. Lengths are in cm (Gaussian-CGS
conventions throughout, so the refractive index is n = 1 + 2*pi*chi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rb D1 wavelength in cm; fixed by consistency of a 120 um control waist with
# a 5.7 cm Rayleigh range (z_R = pi w^2 / lambda).
DEFAULT_WAVELENGTH_CM = 794.98e-7

# Default gamma in rad/s; the natural unit of every other frequency here.
DEFAULT_GAMMA_RAD_S = 3.0e6 * np.pi


class ConfigurationError(ValueError):
    """A parameter set violates one or more invariants.

    Carries the complete list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class PhysicalParams:
    """Atomic, field and medium constants.

    Attributes
    ----------
    gamma : float
        Spontaneous decay rate on each arm of the Lambda system, rad/s.
        Both arms decay at this same rate.
    big_gamma : float
        Ground-state coherence decay rate, in units of gamma.
    delta_p : float
        Probe one-photon detuning (atomic minus laser), in units of gamma.
    delta_R : float
        Two-photon (Raman) detuning delta_R = delta_p - delta_c, in units
        of gamma.  The control detuning is derived: delta_c = delta_p - delta_R.
    doppler_width : float
        1-sigma width of the Maxwellian distribution of k*v, in units of gamma.
    density : float
        Atomic number density, atoms/cm^3.
    wavelength : float
        Optical wavelength in cm (probe and control assumed equal).
    """

    gamma: float = DEFAULT_GAMMA_RAD_S
    big_gamma: float = 1.0e-3
    delta_p: float = -170.0
    delta_R: float = -0.015
    doppler_width: float = 70.0
    density: float = 1.0e12
    wavelength: float = DEFAULT_WAVELENGTH_CM

    @property
    def delta_c(self) -> float:
        """Control one-photon detuning in units of gamma."""
        return self.delta_p - self.delta_R

    @property
    def wavenumber(self) -> float:
        """k = 2*pi/lambda in 1/cm."""
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform transverse grid: one plane of the field.

    A square of full width ``extent`` (cm) sampled at nx x ny points (powers
    of two, for transform efficiency).
    """

    nx: int = 256
    ny: int = 256
    extent: float = 0.24

    @property
    def dx(self) -> float:
        return self.extent / self.nx

    @property
    def dy(self) -> float:
        return self.extent / self.ny

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-centered x and y coordinate arrays (cm), origin at the center."""
        x = (np.arange(self.nx) - self.nx // 2) * self.dx
        y = (np.arange(self.ny) - self.ny // 2) * self.dy
        return x, y

    def spatial_frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Angular spatial frequencies (kx, ky) in rad/cm, FFT ordering."""
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, self.dy)
        return kx, ky


@dataclass(frozen=True)
class GridSpec:
    """The transverse grid and the march through the cell.

    ``dz`` is the split-step size and ``cell_length`` the vapor cell length,
    both in cm.
    """

    transverse: TransverseGrid = TransverseGrid()
    dz: float = 50.0e-4
    cell_length: float = 5.0

    @property
    def n_steps(self) -> int:
        return int(round(self.cell_length / self.dz))


def prefactor_over_gamma(params: PhysicalParams) -> float:
    """Dimensionless susceptibility scale N |d|^2 / (hbar gamma).

    The dipole moment is eliminated through the radiative-decay relation
    |d|^2 = 3 hbar gamma lambda^3 / (32 pi^3) (Gaussian units), so gamma
    cancels and the scale is 3 N lambda^3 / (32 pi^3).
    """
    return 3.0 * params.density * params.wavelength**3 / (32.0 * np.pi**3)
