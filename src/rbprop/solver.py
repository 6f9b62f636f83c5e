"""Symmetric split-step spectral propagation of the probe envelope.

The paraxial envelope obeys dg/dz = (i c / 2 omega) laplace_perp g
+ 2 i pi k <chi> g.  Free-space diffraction is applied exactly in the spatial
frequency domain, with one cached phase per transverse grid and distance
(``_diffraction_phase``); the medium action is integrated pointwise with the
thermally averaged susceptibility following the local control and probe
intensities.  Second-order Strang splitting is the default; a fourth-order
triple-jump composition of Strang steps is available.

A lit sub-step costs two diffraction half-steps, one control intensity and
one medium RK4 sub-flow with four chi lookups.  A point where
|2 pi k dz chi| <= eps / 4 keeps its value, which is within ~eps/4 |g| of its
full RK4 update.  The table states a |G|^2 at or below which every lookup is
that small (``ChiTable.inert_G2``), so stage 1 looks chi up only at the
points above it, where the control can move the probe; the last three stages
run on the points stage 1 finds live, gathered once (``_medium_subflow``).
The sub-step runs in arrays the run owns: both diffractions and the sub-flow
write into the field's own array, and the control intensity and the
sub-flow's arrays (``_SubflowWork``) are made once per run, so a sub-step
allocates little more than its lookups' temporaries.  ``propagate`` keeps no
snapshots: it hands each one to its caller's ``on_snapshot`` as it is taken.
Between sub-steps, where no medium acts, the field waits as its spectrum: a
half-step makes one 2-D transform, except next to a snapshot or the end.

With the control off chi is identically zero and the medium sub-flow is the
identity, so the split-step chain collapses to diffraction alone, and
exp(-i k_perp^2 a / 2k) exp(-i k_perp^2 b / 2k) = exp(-i k_perp^2 (a + b) / 2k)
merges it exactly.  A dark run makes one diffraction per snapshot interval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .beams import ControlBeamSpec, control_intensity
from .field import ComplexField2D
from .params import GridSpec, PhysicalParams, TransverseGrid
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


@dataclass(frozen=True)
class StepPlan:
    """Splitting order of a march through the grid's cell.

    The step size is the grid's own ``dz``: a plan steps through the cell
    as its ``GridSpec`` lays it out.
    """

    grid: GridSpec
    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError("splitting order must be 2 or 4")

    @property
    def dz(self) -> float:
        return self.grid.dz

    def substeps(self) -> tuple[float, ...]:
        """Fractions of dz for the composed Strang sub-steps."""
        if self.order == 2:
            return (1.0,)
        return ORDER4_COEFFS


@functools.lru_cache(maxsize=8)
def _diffraction_phase(grid: TransverseGrid, distance: float,
                       k: float) -> np.ndarray:
    """Read-only exp(-i (kx^2 + ky^2) d / (2 k)) on the plane, computed once
    per (grid, distance, k) and shared like ``beams._mesh``.  The key is the
    exact distance, from which the phase is computed."""
    kx, ky = grid.spatial_frequencies()
    k2 = kx[:, None] ** 2 + ky[None, :] ** 2
    phase = np.exp(-1j * k2 * distance / (2.0 * k))
    phase.flags.writeable = False
    return phase


def diffraction_step(field: ComplexField2D, distance: float, k: float, *,
                     out: np.ndarray | None = None,
                     from_spectrum: bool = False,
                     to_spectrum: bool = False) -> ComplexField2D:
    """Exact free-space paraxial propagation over ``distance``.

    Each spatial-frequency component is multiplied by
    exp(-i (kx^2 + ky^2) c d / (2 omega)) = exp(-i k_perp^2 d / (2 k)),
    with periodic boundaries from the discrete transform; the phase depends
    on the field's transverse grid alone and is shared by every step over
    the same distance.  The result is written into ``out``, a complex array
    of the field's shape, when given (``field.values`` itself steps the
    field in place, with the same bits); otherwise into a new array.
    ``from_spectrum`` takes ``field.values`` as the spectrum, and
    ``to_spectrum`` leaves the result as one: each skips one 2-D transform.
    """
    if from_spectrum:
        spectrum = np.multiply(field.values, _diffraction_phase(
            field.grid, distance, k), out=out)
    else:
        # one axis at a time into one array: at 256^2 this measured faster
        # than np.fft.fft2 (README, Numerical notes)
        spectrum = np.fft.fft(field.values, axis=1, out=out)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum *= _diffraction_phase(field.grid, distance, k)
    if not to_spectrum:
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        np.fft.ifft(spectrum, axis=1, out=spectrum)
    return ComplexField2D(spectrum, field.grid, field.z + distance)


# a point whose stage-1 |2 pi k dz chi| is at most this keeps its value
SKIP_INCREMENT = np.finfo(float).eps / 4
# a finite stage-1 |2 pi k dz chi| above this is refused: classical RK4 is
# stable out to 2 sqrt(2) on the imaginary axis and 2.785 on the negative
# real one, and past that its update grows without bound
RK4_STABLE_INCREMENT = 2.5


class _SubflowWork:
    """The arrays of one medium sub-flow, reused from call to call.

    ``mask`` picks the stage-1 candidates on the whole grid.  Every other
    use is of the leading part of an array, as long as the points it
    serves.  Stage 1 gathers the candidates' field into ``v``, their |g|^2
    and then |2 pi k dz chi| into ``g2``, their chi into ``chi`` and their
    skip test into ``mask``.  Stages 2-4 hold the gathered live field in
    ``start``, the running RK4 sum in ``total``, the stage value and slope
    in ``v`` and ``r``, their |g|^2 in ``g2`` and chi in ``chi``.  Each
    |g|^2 is formed with the real parts of ``chi`` as scratch, before the
    lookup fills it.  Pages that are never written are never resident, so
    the gathered stages cost memory for the points they step only.
    """

    def __init__(self, size: int):
        self.g2 = np.empty(size)
        self.mask = np.empty(size, dtype=bool)
        self.chi, self.start, self.total, self.v, self.r = (
            np.empty(size, dtype=complex) for _ in range(5))


def _abs2(v: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """v.real * v.real + v.imag * v.imag, with its roundings, into out."""
    np.multiply(v.real, v.real, out=out)
    np.multiply(v.imag, v.imag, out=scratch)
    return np.add(out, scratch, out=out)


def _medium_subflow(values: np.ndarray, control_I: np.ndarray, lookup,
                    distance: float, k: float,
                    work: _SubflowWork | None = None,
                    inert: tuple[float, float] = (-np.inf, np.inf)
                    ) -> np.ndarray:
    """Fourth-order step of dg/dz = 2 i pi k chi(|G|^2, |g|^2) g, in place.

    The susceptibility follows the instantaneous probe intensity, so the
    medium sub-flow is a pointwise nonlinear ODE; a classical RK4 stage keeps
    its local error far below the splitting error, preserving the design
    order of the composed scheme.  For intensity-independent chi this reduces
    to the exponential factor to machine accuracy at practical step sizes.

    ``lookup(G2, g2, out=None)`` returns chi at control intensities ``G2``
    (entries of ``control_I``, which has the shape of ``values``) and probe
    intensities ``g2``, written into ``out`` if it chooses; its result is
    only read, whatever its dtype.  ``inert`` is a pair (cut, top): the
    lookup returns |2 pi k distance chi| <= SKIP_INCREMENT at every point
    with |G|^2 <= cut and |g|^2 <= top (``ChiTable.inert_G2``).  Stage 1
    runs on the candidates, the points not at or below the cut (NaN |G|^2
    included), or on every point when twice the square of the largest
    real or imaginary part of ``values`` in magnitude passes ``top``, so
    that a lookup that refuses a |g|^2 refuses it as on the whole grid.
    The default leaves no point out.

    Stage 1 looks chi up at the candidates.  A finite
    |2 pi k distance chi| above RK4_STABLE_INCREMENT there is a
    ValueError: the update would grow without bound.  A candidate where
    |2 pi k distance chi| <= SKIP_INCREMENT = eps / 4 keeps its value,
    which is within ~eps/4 |v| of its full RK4 update, as does every point
    left out.  The other candidates, NaN and inf chi included, are live:
    they are gathered once, however few points are kept, and stages 2-4
    run on them alone, each lookup taking the control and probe
    intensities at those points.  Every call makes four lookups and then
    writes the live points' update into ``values`` (a C-contiguous complex
    array; any other is a ValueError), which it returns; a ValueError
    leaves ``values`` as it was, and the kept points are never written.
    ``work`` holds the arrays the call steps in, made for this call when
    not given.
    """
    if not values.flags.c_contiguous:
        raise ValueError("the sub-flow steps a C-contiguous array in place")
    if work is None:
        work = _SubflowWork(values.size)
    weight = 2j * np.pi * k * distance
    G2, start = control_I.ravel(), values.ravel()
    cut, top = inert
    with np.errstate(over="ignore", invalid="ignore"):
        # |g|^2 <= 2 m^2 at every point, from two NaN-ignoring reductions
        parts = start.view(float)
        m = max(np.fmax.reduce(parts), -np.fmin.reduce(parts))
        if not 2.0 * m * m <= top:
            cut = -np.inf
        # NaN |G|^2 compares false, so it is a candidate
        inert_at = np.less_equal(G2, cut, out=work.mask)
        candidates = np.flatnonzero(np.logical_not(inert_at, out=inert_at))
        n = candidates.size
        G2 = G2.take(candidates)
        # the indices are in range: "clip" only spares take's buffered
        # copy into out
        field = start.take(candidates, out=work.v[:n], mode="clip")
        # complex, so that it gathers into a complex array whatever the
        # lookup's dtype
        chi = np.asarray(lookup(G2, _abs2(field, work.g2[:n],
                                          work.chi.real[:n]),
                                out=work.chi[:n]), dtype=complex)
        increment = np.abs(chi, out=work.g2[:n])
        increment *= abs(weight)
        # NaN and inf increments are left to the caller's non-finite check
        peak = np.max(increment, initial=0.0,
                      where=np.less(increment, np.inf, out=work.mask[:n]))
        if peak > RK4_STABLE_INCREMENT:
            raise ValueError(
                f"|2 pi k dz chi| = {peak:.6g} is above RK4's stability "
                f"bound {RK4_STABLE_INCREMENT:g}")
        # NaN and inf chi compare false, so they stay live
        kept = np.less_equal(increment, SKIP_INCREMENT, out=work.mask[:n])
        steps = np.flatnonzero(np.logical_not(kept, out=kept))
        live = candidates.take(steps)
        n = live.size
        G2 = G2.take(steps)
        start = field.take(steps, out=work.start[:n], mode="clip")
        chi = chi.take(steps, out=work.total[:n], mode="clip")
        g2, chi_n = work.g2[:n], work.chi[:n]

        def rate(v, out):
            """chi(|v|^2) v into out."""
            return np.multiply(lookup(G2, _abs2(v, g2, chi_n.real),
                                      out=chi_n), v, out=out)

        # the slopes r1..r4 lack their common factor 2 i pi k; total sums
        # r1 + 2 r2 + 2 r3 + r4 in that order as they come, and each stage
        # value v = start + c r is formed as c r, then start added
        total = np.multiply(chi, start, out=work.total[:n])
        v = np.multiply(0.5 * weight, total, out=work.v[:n])
        v += start
        r = work.r[:n]
        for c_weight in (0.5 * weight, weight):  # stages 2 and 3
            rate(v, r)
            np.multiply(c_weight, r, out=v)
            v += start
            r *= 2.0
            total += r
        total += rate(v, r)
        total *= weight / 6.0
        total += start
    values.reshape(-1)[live] = total  # a view: values is C-contiguous
    return values


def propagate(probe: ComplexField2D, control: ControlBeamSpec,
              params: PhysicalParams, grid: GridSpec, plan: StepPlan, *,
              on_snapshot, snapshot_every: int = 100,
              use_table: bool = True,
              table_target_error: float = 1.0e-4) -> ComplexField2D:
    """March the probe from z = 0 to z = cell_length; return the end field.

    Per step: half diffraction, one medium sub-flow with the control field
    held at the step midpoint and the susceptibility following the local
    probe intensity, half diffraction.  The fourth-order plan composes three
    such Strang sub-steps with triple-jump coefficients.  Between sub-steps
    the field is held as its spectrum, but never across a snapshot.

    The step size and step count are the grid's (``grid.dz``,
    ``grid.n_steps``), which must be the plan's, and the probe must sample
    the grid's transverse plane (``probe.grid == grid.transverse``): a plan
    made for another grid, or a probe on another transverse grid, is a
    ValueError before any work.  The susceptibility is looked up from an
    interpolation table over (|G|^2, |g|^2) built once to cover the whole
    run: |G|^2 up to the control's analytic maximum over the cell, its peak
    intensity at the waist or at the cell face nearest it, and |g|^2 up to
    PROBE_PEAK_HEADROOM times the input maximum; a |G|^2 top that is zero
    or not finite is a ChiTableError.  A probe that focuses
    past the table's |g|^2 range is a NumericsError naming the step, z, the
    largest queried |g|^2 and the table top; so is a sub-step whose
    |2 pi k dz chi| passes RK4_STABLE_INCREMENT, naming the value.
    ``use_table=False`` evaluates the velocity average directly at every
    point the medium sub-flow looks up instead.

    With the control off (G0 = 0) chi is identically zero, so no table is
    built and the medium is never stepped.  The diffraction half-steps then
    compose exactly, whatever the order: the run makes one
    ``diffraction_step`` per snapshot interval, a whole number of steps
    times dz, and checks its end as a step end.  An input probe whose peak
    |g|^2 is not finite (an inf or NaN value, or an amplitude whose square
    overflows) is a NumericsError at z = 0, whatever the run.

    The run steps one array of its own in place (the probe is copied once),
    and a lit run reuses one control-intensity buffer and one
    ``_SubflowWork``, so its memory is the same whatever its snapshot
    count.  A snapshot is taken at z = 0 (after the table is built, so a
    refusal at z = 0 takes none), every ``snapshot_every`` steps and at the
    cell end: ``on_snapshot(step, field)`` is called with the run's own
    field, which is valid until the call returns; keep a copy to hold it.
    The field returned is that same field at the cell end.  A NumericsError
    met later leaves the snapshots already handed over as they are.
    """
    if plan.grid != grid:
        raise ValueError(f"the step plan's grid {plan.grid} is not the "
                         f"run's grid {grid}")
    if probe.grid != grid.transverse:
        raise ValueError(f"the probe's grid {probe.grid} is not the run's "
                         f"transverse grid {grid.transverse}")
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
        def lookup(G2, g2, out=None):
            return chi_doppler_averaged(FieldPoint(g2, G2), params, out=out)
        # the average is exactly 0 at |G|^2 = 0, whatever the |g|^2
        lookup.inert_G2 = lambda chi_max: 0.0

    field = probe.copy()
    field.z = 0.0
    on_snapshot(0, field)
    held = False  # the lit field's values hold its spectrum
    if not dark:
        control_I = np.empty(field.values.shape)
        work = _SubflowWork(field.values.size)
        substeps = plan.substeps()
        # per sub-step length, the |G|^2 at or below which the lookup
        # cannot move the probe, and the |g|^2 up to which that holds; a
        # lookup that states no such cut leaves no point out
        inert_G2 = getattr(lookup, "inert_G2", lambda chi_max: -np.inf)
        top = getattr(lookup, "g_abs2_max", np.inf)
        inert = {frac: (inert_G2(SKIP_INCREMENT
                                 / abs(2.0 * np.pi * k * frac * dz)), top)
                 for frac in set(substeps)}

    for step in range(n_steps):
        snapshot = (step + 1) % snapshot_every == 0 or step == n_steps - 1
        if dark:
            if not snapshot:
                continue
            # phases compose exactly: one transform pair spans the steps since
            # the last snapshot, a step count times dz, so equal spans share
            # a phase
            field = diffraction_step(field, (step % snapshot_every + 1) * dz,
                                     k, out=field.values)
        else:
            z0 = step * dz
            for i, frac in enumerate(substeps):
                sub = frac * dz
                z_mid = z0 + 0.5 * sub
                field = diffraction_step(field, 0.5 * sub, k, out=field.values,
                                         from_spectrum=held)
                control_I = control_intensity(control, grid.transverse,
                                              z_mid, out=control_I)
                try:
                    _medium_subflow(field.values, control_I, lookup, sub, k,
                                    work=work, inert=inert[frac])
                except ValueError as exc:
                    # the table rejects queries beyond its range, the
                    # sub-flow a step past RK4's stability bound
                    raise NumericsError(
                        z_mid, f"medium step failed in step {step + 1} at "
                        f"z = {z_mid:.6g} cm ({exc})") from exc
                # held into the next sub-step unless a snapshot is due
                held = not (snapshot and i == len(substeps) - 1)
                field = diffraction_step(field, 0.5 * sub, k, out=field.values,
                                         to_spectrum=held)
                z0 += sub
        field.z = (step + 1) * dz
        # a NaN or inf in the field makes its whole spectrum non-finite
        if not np.all(np.isfinite(field.values)):
            raise NumericsError(
                field.z, f"non-finite field values in step {step + 1} at "
                f"z = {field.z:.6g} cm")
        if snapshot:
            on_snapshot(step + 1, field)
    return field
