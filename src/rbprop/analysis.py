"""Observables extracted from propagated fields: widths, powers and peaks,
and the radial susceptibility map written by the control beam."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .beams import ControlBeamSpec, _mesh, _radial_intensity
from .field import ComplexField2D
from .params import PhysicalParams
from . import susceptibility


@dataclass(frozen=True)
class DiagnosticsRecord:
    """The observables of one snapshot; a run's diagnostics are a list of
    these, in increasing z."""

    z: float
    width: float
    total_power: float
    peak_positions: tuple[float, ...]


def beam_width(field: ComplexField2D) -> float:
    """Beam width sqrt(2 <r^2>) in cm, <r^2> the intensity-weighted second
    central moment; an exact Gaussian g0 exp(-r^2/w^2) returns w."""
    intensity = np.abs(field.values) ** 2
    total = intensity.sum()
    if total <= 0.0:
        raise ValueError("beam width is undefined for a zero-power field")
    X, Y = _mesh(field.grid)
    xc = float((intensity * X).sum() / total)
    yc = float((intensity * Y).sum() / total)
    r2 = (X - xc) ** 2 + (Y - yc) ** 2
    r2 *= intensity  # in place: the moment holds at most two grid arrays
    return float(np.sqrt(2.0 * r2.sum() / total))


# a local maximum at or below this fraction of its row's maximum is no peak
PEAK_THRESHOLD = 0.05


def peak_positions(field: ComplexField2D) -> list[float]:
    """x locations of local intensity maxima along the row y = 0.

    Maxima at or below PEAK_THRESHOLD times the row maximum are discarded;
    surviving positions are refined by three-point parabolic interpolation.
    """
    x = field.grid.axes()[0]
    row = np.abs(field.values[:, field.grid.ny // 2]) ** 2
    row_max = row.max()
    if row_max <= 0.0:
        return []
    out = []
    dx = field.grid.dx
    for i in range(1, row.size - 1):
        if row[i] > row[i - 1] and row[i] >= row[i + 1] and row[i] > PEAK_THRESHOLD * row_max:
            denom = row[i - 1] - 2.0 * row[i] + row[i + 1]
            shift = 0.0 if denom == 0.0 else 0.5 * (row[i - 1] - row[i + 1]) / denom
            out.append(float(x[i] + shift * dx))
    return out


def radial_chi_map(params: PhysicalParams, control: ControlBeamSpec,
                   z: float, probe_level: float, r, delta_R) -> np.ndarray:
    """Averaged susceptibility along a radial cut at fixed z for each Raman
    detuning: the complex (len(delta_R), len(r)) map, with the probe
    intensity held uniformly at probe_level^2.

    Each row is one average over the cut, looked up on the susceptibility
    module at the call, so a profiler that rebinds it there sees each one.
    """
    r = np.asarray(r, dtype=float)
    point = susceptibility.FieldPoint(probe_level**2,
                                      _radial_intensity(control, r * r, z))
    chi = np.empty((len(delta_R), r.size), dtype=complex)
    for i, d in enumerate(delta_R):
        susceptibility.chi_doppler_averaged(
            point, replace(params, delta_R=float(d)), out=chi[i])
    return chi


def diagnose(field: ComplexField2D) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        z=field.z,
        width=beam_width(field),
        total_power=field.power(),
        peak_positions=tuple(peak_positions(field)),
    )
