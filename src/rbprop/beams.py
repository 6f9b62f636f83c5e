"""Analytic field generators: the vortex control beam and the probe profiles."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .field import ComplexField2D
from .params import DEFAULT_WAVELENGTH_CM, TransverseGrid

# each probe kind's centers (cm) when a config file gives none
DEFAULT_CENTERS = {"gaussian": (), "double_gaussian": (-70.0e-4, 70.0e-4),
                   "sech_multi": (-120.0e-4, 0.0, 120.0e-4)}
PROBE_KINDS = tuple(DEFAULT_CENTERS)


@dataclass(frozen=True)
class ControlBeamSpec:
    """Doughnut-mode control beam (unit orbital charge, no radial nodes).

    G0 is the Rabi amplitude scale in gamma units, waist_wc the beam waist in
    cm and waist_position_z0 the location of the waist measured from the cell
    entry plane (typically the cell length: the control is focused at the back
    of the cell).
    """

    G0: float = 1.0
    waist_wc: float = 120.0e-4
    waist_position_z0: float = 5.0
    wavelength: float = DEFAULT_WAVELENGTH_CM

    def __post_init__(self):
        if not np.all(np.isfinite((self.G0, self.waist_wc,
                                   self.waist_position_z0))):
            raise ValueError("G0, waist_wc and waist_position_z0 must be finite")
        if self.G0 < 0:
            raise ValueError("G0 must be non-negative")
        if not self.waist_wc > 0:
            raise ValueError("waist_wc must be positive")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")

    @property
    def rayleigh_range(self) -> float:
        return np.pi * self.waist_wc**2 / self.wavelength

    def width_at(self, z: float) -> float:
        """Beam radius w(z) = w_c sqrt(1 + ((z - z0)/z_R)^2); the ring of
        maximal intensity has radius w(z)/sqrt(2)."""
        return self.waist_wc * np.sqrt(
            1.0 + ((z - self.waist_position_z0) / self.rayleigh_range) ** 2)

    def peak_intensity(self, z: float) -> float:
        """Maximum of |G|^2 over the transverse plane at z."""
        wz = self.width_at(z)
        return (self.G0 * self.waist_wc / wz) ** 2 * 0.5 * np.exp(-1.0)


@dataclass(frozen=True)
class ProbeSpec:
    """Initial probe profile: single/double Gaussian or sech multi-peak.

    ``width`` is the 1/e amplitude radius in cm.  ``centers`` holds the
    x offsets of the constituent peaks: empty for a single centered Gaussian,
    two entries for the double Gaussian, one or more for the sech comb.
    """

    kind: str = "gaussian"
    g0: float = 0.2
    width: float = 48.0e-4
    centers: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind {self.kind!r}; "
                             f"expected one of {PROBE_KINDS}")
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        if not np.all(np.isfinite((self.g0, self.width, *self.centers))):
            raise ValueError("g0, width and centers must be finite")
        if self.g0 < 0:
            raise ValueError("g0 must be non-negative")
        if not self.width > 0:
            raise ValueError("width must be positive")
        problems = center_problems(self.kind, self.centers)
        if problems:
            raise ValueError("; ".join(problems))


def center_problems(kind: str, centers: tuple[float, ...]) -> list[str]:
    """Every structural problem of a probe's centers for its kind."""
    out = []
    if len(set(centers)) != len(centers):
        out.append("probe centers must be distinct")
    if kind == "gaussian" and centers:
        out.append("a single Gaussian probe takes no centers")
    if kind == "double_gaussian" and len(centers) != 2:
        out.append("a double Gaussian probe takes exactly two centers")
    if kind == "sech_multi" and len(centers) < 1:
        out.append("a sech multi-peak probe needs at least one center")
    return out


@functools.lru_cache(maxsize=8)
def _mesh(grid: TransverseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only X of shape (nx, 1) and Y of shape (1, ny), computed once
    per transverse grid (a run's fields and the snapshots read back from
    them share one): the "ij" meshgrid of ``grid.axes()`` as broadcasting
    views, so an expression in X and Y gives the full mesh's values and the
    mesh itself holds only the two axes."""
    X, Y = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    X.flags.writeable = False
    Y.flags.writeable = False
    return X, Y


@functools.lru_cache(maxsize=8)
def _radial_mesh(grid: TransverseGrid) -> np.ndarray:
    """Read-only r^2 on the grid, from its cached mesh."""
    X, Y = _mesh(grid)
    r2 = X * X + Y * Y
    r2.flags.writeable = False
    return r2


def _radial_intensity(spec: ControlBeamSpec, r2, z: float, out=None):
    """|G|^2 at squared radius r2 and height z; the one radial formula.

    |G|^2 = (G0 w_c / w(z)^2)^2 r^2 exp(-2 r^2 / w(z)^2), formed from r^2
    alone in one result array, ``out`` when given (exactly 0 on the axis).
    """
    wz2 = spec.width_at(z) ** 2
    out = np.multiply(r2, -2.0 / wz2, out=out)
    np.exp(out, out=out)
    out *= r2
    out *= (spec.G0 * spec.waist_wc / wz2) ** 2
    return out


def control_intensity(spec: ControlBeamSpec, grid: TransverseGrid, z: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """|G|^2 sampled on the grid at height z (cheaper than the complex field),
    written into ``out`` (a float array of the grid's shape) when given."""
    return _radial_intensity(spec, _radial_mesh(grid), z, out=out)


def make_probe(spec: ProbeSpec, grid: TransverseGrid) -> ComplexField2D:
    """Entry-plane probe g0 * sum_i f(x - x_i, y) for any probe kind.

    The sum runs over ``spec.centers``, or the origin alone for a single
    Gaussian.  The radial profile f is exp(-r^2 / w^2) for the Gaussian
    kinds and sech(r / w) for the sech multi-peak probe.
    """
    X, Y = _mesh(grid)
    total = np.zeros((grid.nx, grid.ny))
    for xi in spec.centers or (0.0,):
        r2 = (X - xi) ** 2 + Y * Y
        if spec.kind == "sech_multi":
            total += 1.0 / np.cosh(np.sqrt(r2) / spec.width)
        else:
            total += np.exp(-r2 / spec.width**2)
    return ComplexField2D(spec.g0 * total, grid, 0.0)
