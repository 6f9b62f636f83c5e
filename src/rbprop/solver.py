"""Symmetric split-step spectral propagation of the probe envelope.

The paraxial envelope obeys dg/dz = (i c / 2 omega) laplace_perp g
+ 2 i pi k <chi> g.  Free-space diffraction is applied exactly in the spatial
frequency domain; the medium action is integrated pointwise with the
thermally averaged susceptibility following the local control and probe
intensities.  Second-order Strang splitting is the default; a fourth-order
triple-jump composition of Strang steps is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .beams import ControlBeamSpec, control_intensity
from .field import ComplexField2D
from .params import GridSpec, PhysicalParams
from .susceptibility import ChiTable, FieldPoint, build_chi_table, \
    chi_doppler_averaged

# Triple-jump composition coefficients for the fourth-order scheme.
_TJ = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
ORDER4_COEFFS = (_TJ, 1.0 - 2.0 * _TJ, _TJ)

# The chi table's |g|^2 axis tops out at this multiple of the input peak
# probe intensity.  The control's index profile focuses the probe: over the
# test-suite runs with the control on, the probe peaked at 2.97x its input
# peak on the guided presets and 4.12x on the sech multi-peak preset.
PROBE_PEAK_HEADROOM = 12.0


class NumericsError(RuntimeError):
    """The propagation failed numerically (non-finite values, range blowout)."""

    def __init__(self, z: float, message: str = ""):
        self.z = z
        super().__init__(message or f"non-finite field values at z = {z:.6g} cm")


@dataclass
class StepPlan:
    """Splitting order, step size, and cached spectral phase factors."""

    grid: GridSpec
    dz: float
    order: int = 2
    _phase_cache: dict = field(default_factory=dict, repr=False)
    _k2: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("splitting order must be 2 or 4")
        kx, ky = self.grid.spatial_frequencies()
        self._k2 = kx[:, None] ** 2 + ky[None, :] ** 2

    def diffraction_phase(self, distance: float, k: float) -> np.ndarray:
        """exp(-i (kx^2 + ky^2) d / (2 k)), cached per distance."""
        key = (round(distance, 15), round(k, 6))
        phase = self._phase_cache.get(key)
        if phase is None:
            phase = np.exp(-1j * self._k2 * distance / (2.0 * k))
            self._phase_cache[key] = phase
        return phase

    def substeps(self) -> tuple[float, ...]:
        """Fractions of dz for the composed Strang sub-steps."""
        if self.order == 2:
            return (1.0,)
        return ORDER4_COEFFS


def diffraction_step(field: ComplexField2D, distance: float, k: float,
                     plan: StepPlan | None = None) -> ComplexField2D:
    """Exact free-space paraxial propagation over ``distance``.

    Each spatial-frequency component is multiplied by
    exp(-i (kx^2 + ky^2) c d / (2 omega)) = exp(-i k_perp^2 d / (2 k)),
    with periodic boundaries from the discrete transform.
    """
    if plan is None:
        plan = StepPlan(field.grid, dz=distance if distance else 1.0)
    # one worker: on two cores a second one made 256^2 transforms slower
    spectrum = scipy.fft.fft2(field.values, workers=1)
    spectrum *= plan.diffraction_phase(distance, k)
    values = scipy.fft.ifft2(spectrum, overwrite_x=True, workers=1)
    return ComplexField2D(values, field.grid, field.z + distance)


def medium_step(field: ComplexField2D, chi_field: np.ndarray,
                distance: float, k: float) -> ComplexField2D:
    """Pointwise medium factor exp(2 i pi k chi(x, y) d)."""
    values = field.values * np.exp(2j * np.pi * k * chi_field * distance)
    return ComplexField2D(values, field.grid, field.z)


def edge_window(grid: GridSpec, fraction: float = 0.1) -> np.ndarray:
    """Raised-cosine absorber over the outer ``fraction`` of each axis."""
    def axis_window(n: int) -> np.ndarray:
        w = np.ones(n)
        m = int(round(fraction * n))
        if m > 0:
            # falls from cos(pi/m) scale to exactly 0 at the outermost cell
            ramp = 0.5 * (1.0 + np.cos(np.pi * np.arange(1, m + 1) / m))
            w[:m] = ramp[::-1]
            w[n - m:] = ramp
        return w
    return axis_window(grid.nx)[:, None] * axis_window(grid.ny)[None, :]


@dataclass
class PropagationResult:
    field: ComplexField2D
    snapshots: list[ComplexField2D]
    snapshot_steps: list[int]
    table: ChiTable | None


def _chi_lookup(table, params, control_I, probe_I):
    if table is not None:
        return table(control_I, probe_I)
    return chi_doppler_averaged(FieldPoint(probe_I, control_I), params)


def _medium_subflow(values: np.ndarray, chi_of, distance: float,
                    k: float) -> np.ndarray:
    """Fourth-order step of dg/dz = 2 i pi k chi(|g|^2) g at fixed control.

    The susceptibility follows the instantaneous probe intensity, so the
    medium sub-flow is a pointwise nonlinear ODE; a classical RK4 stage keeps
    its local error far below the splitting error, preserving the design
    order of the composed scheme.  For intensity-independent chi this reduces
    to the exponential factor to machine accuracy at practical step sizes.
    """
    c = 2j * np.pi * k

    def f(v):
        return c * chi_of(v.real * v.real + v.imag * v.imag) * v

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(values)
        k2 = f(values + 0.5 * distance * k1)
        k3 = f(values + 0.5 * distance * k2)
        k4 = f(values + distance * k3)
        return values + (distance / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(probe: ComplexField2D, control: ControlBeamSpec,
              params: PhysicalParams, grid: GridSpec, plan: StepPlan,
              snapshot_every: int = 100,
              use_table: bool = True,
              table_target_error: float = 1.0e-4,
              absorbing_boundary: bool = False,
              table_seed: int = 0) -> PropagationResult:
    """March the probe from z = 0 to z = cell_length.

    Per step: half diffraction, one medium sub-flow with the control field
    held at the step midpoint and the susceptibility following the local
    probe intensity, half diffraction.  The fourth-order plan composes three
    such Strang sub-steps with triple-jump coefficients.

    The susceptibility is looked up from an interpolation table over
    (|G|^2, |g|^2) built once to cover the whole run: |G|^2 up to the
    analytic maximum over z, |g|^2 up to PROBE_PEAK_HEADROOM times the input
    maximum.  A probe that focuses past the table's |g|^2 range is a
    NumericsError naming the step, z, the largest queried |g|^2 and the
    table top.  ``use_table=False`` evaluates the velocity average directly
    at every grid point instead.

    With the control off (G0 = 0) chi is identically zero and the medium
    sub-flow is the identity, so each sub-step is just its two diffraction
    half-steps.
    """
    k = params.wavenumber
    dz = plan.dz
    n_steps = int(round(grid.cell_length / dz))

    table = None
    if use_table:
        z_samples = np.linspace(0.0, grid.cell_length, 101)
        G2_max = float(max(control.peak_intensity(z) for z in z_samples))
        g2_max = PROBE_PEAK_HEADROOM * float(np.max(np.abs(probe.values) ** 2))
        table = build_chi_table(G2_max, g2_max, params,
                                target_error=table_target_error, seed=table_seed)

    window = edge_window(grid) if absorbing_boundary else None
    dark = control.G0 == 0.0

    field = probe.copy()
    field.z = 0.0
    snapshots = [field.copy()]
    snapshot_steps = [0]

    for step in range(n_steps):
        z0 = step * dz
        for frac in plan.substeps():
            sub = frac * dz
            z_mid = z0 + 0.5 * sub
            field = diffraction_step(field, 0.5 * sub, k, plan)
            if not dark:
                control_I = control_intensity(control, grid, z_mid)

                def chi_of(g2, _cI=control_I):
                    return _chi_lookup(table, params, _cI, g2)

                try:
                    stepped = _medium_subflow(field.values, chi_of, sub, k)
                except ValueError as exc:
                    # the table rejects queries beyond its range
                    raise NumericsError(
                        z_mid, f"medium step failed in step {step + 1} at "
                        f"z = {z_mid:.6g} cm ({exc})") from exc
                field = ComplexField2D(stepped, field.grid, field.z)
            field = diffraction_step(field, 0.5 * sub, k, plan)
            z0 += sub
        field.z = (step + 1) * dz
        if window is not None:
            field.values *= window
        if not np.all(np.isfinite(field.values)):
            raise NumericsError(field.z)
        if (step + 1) % snapshot_every == 0 or step == n_steps - 1:
            snapshots.append(field.copy())
            snapshot_steps.append(step + 1)

    return PropagationResult(field=field, snapshots=snapshots,
                             snapshot_steps=snapshot_steps, table=table)
