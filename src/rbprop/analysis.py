"""Observables extracted from propagated fields: widths, transmission, peaks,
and the refractive-index contrast written by the control beam."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beams import ControlBeamSpec, _radial_intensity
from .field import ComplexField2D
from .params import PhysicalParams
from .susceptibility import FieldPoint, chi_doppler_averaged


@dataclass(frozen=True)
class DiagnosticsRecord:
    z: float
    width: float
    total_power: float
    peak_positions: tuple[float, ...]


@dataclass
class RunDiagnostics:
    """Per-snapshot observables; z must be strictly increasing."""

    input_power: float
    records: list[DiagnosticsRecord] = field(default_factory=list)

    def append(self, record: DiagnosticsRecord):
        if self.records and record.z <= self.records[-1].z:
            raise ValueError("diagnostic records must have strictly increasing z")
        if record.total_power < 0:
            raise ValueError("total power cannot be negative")
        self.records.append(record)


def beam_width(field: ComplexField2D, method: str = "moment") -> float:
    """Beam width in cm, calibrated so an exact Gaussian g0 exp(-r^2/w^2)
    returns w.

    ``moment`` (default): sqrt(2 <r^2>) with <r^2> the intensity-weighted
    second central moment.  ``e2fit``: least-squares fit of log intensity
    against r^2 (centered, intensity-weighted), i.e. the radius where a
    fitted Gaussian intensity profile falls to 1/e^2 of its peak; useful as a
    cross-check when a faint pedestal inflates the moments.
    """
    intensity = np.abs(field.values) ** 2
    total = intensity.sum()
    if total <= 0.0:
        raise ValueError("beam width is undefined for a zero-power field")
    X, Y = field.grid.mesh()
    xc = float((intensity * X).sum() / total)
    yc = float((intensity * Y).sum() / total)
    r2 = (X - xc) ** 2 + (Y - yc) ** 2
    if method == "moment":
        return float(np.sqrt(2.0 * (intensity * r2).sum() / total))
    if method == "e2fit":
        peak = intensity.max()
        mask = intensity > peak * np.exp(-4.0)
        w = intensity[mask]
        a = r2[mask]
        b = np.log(intensity[mask] / peak)
        # weighted LSQ for log I = c - 2 r^2 / w^2
        sw = w.sum()
        abar = (w * a).sum() / sw
        bbar = (w * b).sum() / sw
        slope = ((w * (a - abar) * (b - bbar)).sum()
                 / (w * (a - abar) ** 2).sum())
        if slope >= 0:
            raise ValueError("intensity does not decay radially; fit failed")
        return float(np.sqrt(-2.0 / slope))
    raise ValueError(f"unknown width method {method!r}")


def transmission(field_in: ComplexField2D, field_out: ComplexField2D) -> float:
    """Ratio of integrated output to input intensity."""
    p_in = np.sum(np.abs(field_in.values) ** 2)
    if p_in <= 0.0:
        raise ValueError("transmission is undefined for a zero-power input")
    return float(np.sum(np.abs(field_out.values) ** 2) / p_in)


def peak_positions(field: ComplexField2D, axis_y: float = 0.0,
                   threshold: float = 0.05) -> list[float]:
    """x locations of local intensity maxima along the row nearest axis_y.

    Maxima below ``threshold`` times the row maximum are discarded; surviving
    positions are refined by three-point parabolic interpolation.
    """
    x, y = field.grid.axes()
    iy = int(np.argmin(np.abs(y - axis_y)))
    row = np.abs(field.values[:, iy]) ** 2
    row_max = row.max()
    if row_max <= 0.0:
        return []
    out = []
    dx = field.grid.dx
    for i in range(1, row.size - 1):
        if row[i] > row[i - 1] and row[i] >= row[i + 1] and row[i] > threshold * row_max:
            denom = row[i - 1] - 2.0 * row[i] + row[i + 1]
            shift = 0.0 if denom == 0.0 else 0.5 * (row[i - 1] - row[i + 1]) / denom
            out.append(float(x[i] + shift * dx))
    return out


def index_contrast(params: PhysicalParams, control: ControlBeamSpec, z: float,
                   probe_level: float, n_radii: int = 400) -> float:
    """Peak-to-trough refractive index difference 2 pi (max - min) Re<chi>.

    Sampled radially out to five beam radii at the given z, with the probe
    intensity held uniformly at probe_level^2.
    """
    wz = control.width_at(z)
    r = np.linspace(0.0, 5.0 * wz, n_radii)
    G2 = _radial_intensity(control, r * r, z)
    chi = chi_doppler_averaged(
        FieldPoint(np.full_like(r, probe_level**2), G2), params)
    return float(2.0 * np.pi * (chi.real.max() - chi.real.min()))


def radial_chi_profile(params: PhysicalParams, control: ControlBeamSpec,
                       z: float, probe_level: float,
                       r: np.ndarray) -> np.ndarray:
    """Averaged susceptibility along a radial cut at fixed z."""
    r = np.asarray(r, dtype=float)
    G2 = _radial_intensity(control, r * r, z)
    return chi_doppler_averaged(
        FieldPoint(np.full_like(r, probe_level**2), G2), params)


def normalized_profile_distance(field_a: ComplexField2D,
                                field_b: ComplexField2D) -> float:
    """L2 distance between unit-norm intensity profiles (shape distortion)."""
    ia = np.abs(field_a.values) ** 2
    ib = np.abs(field_b.values) ** 2
    na = np.sqrt((ia ** 2).sum())
    nb = np.sqrt((ib ** 2).sum())
    if na == 0.0 or nb == 0.0:
        raise ValueError("profile distance undefined for zero fields")
    return float(np.sqrt(((ia / na - ib / nb) ** 2).sum()))


def diagnose(field: ComplexField2D) -> DiagnosticsRecord:
    return DiagnosticsRecord(
        z=field.z,
        width=beam_width(field),
        total_power=field.power(),
        peak_positions=tuple(peak_positions(field)),
    )
