"""Symmetric split-step spectral propagation of the probe envelope.

The paraxial envelope obeys dg/dz = (i c / 2 omega) laplace_perp g
+ 2 i pi k <chi> g.  Free-space diffraction is applied exactly in the spatial
frequency domain; the medium action is integrated pointwise with the
thermally averaged susceptibility following the local control and probe
intensities.  Second-order Strang splitting is the default; a fourth-order
triple-jump composition of Strang steps is available.

A lit sub-step costs two diffraction half-steps, one control intensity and
one medium RK4 sub-flow with four chi lookups.  Stage 1 of the sub-flow looks
chi up on the whole grid.  A point where |2 pi k dz chi| <= eps / 4 keeps its
value, which is within ~eps/4 |g| of its full RK4 update.  Where at least a
tenth of the grid keeps its value, the last three stages run on the other
points alone, gathered once (``_medium_subflow``).

With the control off chi is identically zero and the medium sub-flow is the
identity, so the split-step chain collapses to diffraction alone, and
exp(-i k_perp^2 a / 2k) exp(-i k_perp^2 b / 2k) = exp(-i k_perp^2 (a + b) / 2k)
merges it exactly.  A dark run makes one diffraction per segment, a segment
running up to the next snapshot or the end of the cell; with the absorbing
window every step is a segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beams import ControlBeamSpec, control_intensity
from .field import ComplexField2D
from .params import GridSpec, PhysicalParams
from .susceptibility import FieldPoint, build_chi_table, chi_doppler_averaged

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

    def __init__(self, z: float, message: str):
        self.z = z
        super().__init__(message)


@dataclass
class StepPlan:
    """Splitting order and cached spectral phase factors.

    The step size is the grid's own ``dz``: a plan steps through the cell
    as its ``GridSpec`` lays it out.
    """

    grid: GridSpec
    order: int = 2
    _phase_cache: dict = field(default_factory=dict, repr=False)
    _k2: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("splitting order must be 2 or 4")
        kx, ky = self.grid.spatial_frequencies()
        self._k2 = kx[:, None] ** 2 + ky[None, :] ** 2

    @property
    def dz(self) -> float:
        return self.grid.dz

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
        plan = StepPlan(field.grid)
    # one axis at a time into one array: at 256^2 this measured faster than
    # np.fft.fft2 and about as fast as scipy.fft.fft2 on one worker
    spectrum = np.fft.fft(field.values, axis=1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    spectrum *= plan.diffraction_phase(distance, k)
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    return ComplexField2D(spectrum, field.grid, field.z + distance)


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


# a point whose stage-1 |2 pi k dz chi| is at most this keeps its value
SKIP_INCREMENT = np.finfo(float).eps / 4
# a finite stage-1 |2 pi k dz chi| above this is refused: classical RK4 is
# stable out to 2 sqrt(2) on the imaginary axis and 2.785 on the negative
# real one, and past that its update grows without bound
RK4_STABLE_INCREMENT = 2.5
# the later RK4 stages run on a gathered subset only when at least this
# share of the grid keeps its value; below it the gather and scatter cost
# more than the lookups they save (break-even between 5% and 14% kept on a
# 128^2 double-Gaussian run, 2-vCPU machine)
GATHER_MIN_SKIPPED = 0.1


def _medium_subflow(values: np.ndarray, control_I: np.ndarray, lookup,
                    distance: float, k: float) -> np.ndarray:
    """Fourth-order step of dg/dz = 2 i pi k chi(|G|^2, |g|^2) g.

    The susceptibility follows the instantaneous probe intensity, so the
    medium sub-flow is a pointwise nonlinear ODE; a classical RK4 stage keeps
    its local error far below the splitting error, preserving the design
    order of the composed scheme.  For intensity-independent chi this reduces
    to the exponential factor to machine accuracy at practical step sizes.

    ``lookup(G2, g2)`` returns chi at control intensities ``G2`` (entries of
    ``control_I``, which has the shape of ``values``) and probe intensities
    ``g2``; its result is only read, whatever its dtype.  Stage 1 looks up
    chi on the whole grid.  A finite |2 pi k distance chi| above
    RK4_STABLE_INCREMENT anywhere is a ValueError: the update would grow
    without bound.  A point where |2 pi k distance chi| <=
    SKIP_INCREMENT = eps / 4 keeps its value, which is within ~eps/4 |v| of
    its full RK4 update.  The other points, NaN and inf chi included, are
    live.  When at least GATHER_MIN_SKIPPED of the grid keeps its value, the
    live points are gathered once and stages 2-4 run on them alone, each
    lookup taking the control and probe intensities at those points.
    Otherwise stages 2-4 run on the whole grid and the kept points are
    written back, because there the gather and scatter would cost more than
    the lookups they save.  Every call makes four lookups and returns a new
    array.
    """
    weight = 2j * np.pi * k * distance
    G2, start = control_I.ravel(), values.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        chi = lookup(G2, start.real * start.real + start.imag * start.imag)
        increment = np.abs(chi) * abs(weight)
        # NaN and inf increments are left to the caller's non-finite check
        peak = np.max(increment, where=increment < np.inf, initial=0.0)
        if peak > RK4_STABLE_INCREMENT:
            raise ValueError(
                f"|2 pi k dz chi| = {peak:.6g} is above RK4's stability "
                f"bound {RK4_STABLE_INCREMENT:g}")
        # NaN and inf chi compare false, so they stay live
        kept = increment <= SKIP_INCREMENT
        n_kept = np.count_nonzero(kept)
        gather = n_kept >= GATHER_MIN_SKIPPED * start.size
        if gather:
            live = np.flatnonzero(~kept)
            G2, chi, start = G2[live], chi[live], start[live]

        def rate(v):
            return lookup(G2, v.real * v.real + v.imag * v.imag) * v

        # r1..r4 are the RK4 slopes without their common factor 2 i pi k
        r1 = chi * start
        r2 = rate(start + 0.5 * weight * r1)
        r3 = rate(start + 0.5 * weight * r2)
        r4 = rate(start + weight * r3)
        stepped = start + weight / 6.0 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
    if gather:
        out = values.copy()
        out.ravel()[live] = stepped
    else:
        out = stepped.reshape(values.shape)
        if n_kept:
            np.copyto(out, values, where=kept.reshape(values.shape))
    return out


def propagate(probe: ComplexField2D, control: ControlBeamSpec,
              params: PhysicalParams, grid: GridSpec, plan: StepPlan,
              snapshot_every: int = 100,
              use_table: bool = True,
              table_target_error: float = 1.0e-4,
              absorbing_boundary: bool = False) -> PropagationResult:
    """March the probe from z = 0 to z = cell_length.

    Per step: half diffraction, one medium sub-flow with the control field
    held at the step midpoint and the susceptibility following the local
    probe intensity, half diffraction.  The fourth-order plan composes three
    such Strang sub-steps with triple-jump coefficients.

    The step size and step count are the grid's (``grid.dz``,
    ``grid.n_steps``).  The susceptibility is looked up from an
    interpolation table over (|G|^2, |g|^2) built once to cover the whole
    run: |G|^2 up to the control's analytic maximum over the cell, its peak
    intensity at the waist or at the cell face nearest it, and |g|^2 up to
    PROBE_PEAK_HEADROOM times the input maximum; a |G|^2 top that is zero or
    not finite is a ChiTableError.  A probe that focuses past
    the table's |g|^2 range is a NumericsError naming the step, z, the
    largest queried |g|^2 and the table top; so is a sub-step whose
    |2 pi k dz chi| passes RK4_STABLE_INCREMENT, naming the value.
    ``use_table=False`` evaluates the velocity average directly at every
    point the medium sub-flow looks up instead.

    With the control off (G0 = 0) chi is identically zero, so no table is
    built and the medium is never stepped.  The diffraction half-steps then
    compose exactly, whatever the order: the run makes one
    ``diffraction_step`` of a whole number of steps times dz up to each
    snapshot and the end of the cell, or one of dz per step when
    ``absorbing_boundary`` applies the window after every step.  Each
    segment end is checked as a step end.  An input probe whose peak |g|^2
    is not finite (an inf or NaN value, or an amplitude whose square
    overflows) is a NumericsError at z = 0, whatever the run.
    """
    k = params.wavenumber
    dz = grid.dz
    n_steps = grid.n_steps
    dark = control.G0 == 0.0
    with np.errstate(over="ignore"):  # a finite amplitude can square to inf
        g2_peak = float(np.max(np.abs(probe.values) ** 2))
    if not np.isfinite(g2_peak):
        raise NumericsError(
            0.0, f"input probe peak |g|^2 = {g2_peak:.6g} is not finite "
            "at z = 0 cm")

    if dark:
        lookup = None  # chi is identically zero: the medium is never stepped
    elif use_table:
        # the ring is brightest at the waist or the cell face nearest it
        z_peak = np.clip(control.waist_position_z0, 0.0, grid.cell_length)
        # build_chi_table refuses a control peak that overflows to inf
        with np.errstate(over="ignore"):
            G2_max = float(control.peak_intensity(z_peak))
            g2_max = PROBE_PEAK_HEADROOM * g2_peak
        lookup = build_chi_table(G2_max, g2_max, params,
                                 target_error=table_target_error)
    else:
        def lookup(G2, g2):
            return chi_doppler_averaged(FieldPoint(g2, G2), params)

    window = edge_window(grid) if absorbing_boundary else None

    field = probe.copy()
    field.z = 0.0
    snapshots = [field.copy()]
    snapshot_steps = [0]
    segment_start = 0  # first step of the dark run's pending diffraction

    for step in range(n_steps):
        snapshot = (step + 1) % snapshot_every == 0 or step == n_steps - 1
        if dark:
            if not snapshot and window is None:
                continue
            # diffraction phases compose exactly: one transform pair spans
            # the segment, whose length is a step count times dz so that
            # equal segments share a cached phase
            field = diffraction_step(field, (step + 1 - segment_start) * dz,
                                     k, plan)
            segment_start = step + 1
        else:
            z0 = step * dz
            for frac in plan.substeps():
                sub = frac * dz
                z_mid = z0 + 0.5 * sub
                field = diffraction_step(field, 0.5 * sub, k, plan)
                control_I = control_intensity(control, grid, z_mid)
                try:
                    stepped = _medium_subflow(field.values, control_I, lookup,
                                              sub, k)
                except ValueError as exc:
                    # the table rejects queries beyond its range, the
                    # sub-flow a step past RK4's stability bound
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
            raise NumericsError(
                field.z, f"non-finite field values in step {step + 1} at "
                f"z = {field.z:.6g} cm")
        if snapshot:
            snapshots.append(field.copy())
            snapshot_steps.append(step + 1)

    return PropagationResult(field=field, snapshots=snapshots,
                             snapshot_steps=snapshot_steps)
