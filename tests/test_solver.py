import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbprop.solver as solver
from rbprop.analysis import beam_width
from rbprop.beams import (ControlBeamSpec, ProbeSpec, control_intensity,
                          make_probe)
from rbprop.config import parse_config
from rbprop.fieldio import read_field, write_field
from rbprop.params import GridSpec, PhysicalParams, TransverseGrid
from rbprop.solver import (ComplexField2D, NumericsError, StepPlan,
                           _medium_subflow, diffraction_step, propagate)
from rbprop.susceptibility import (ChiTable, FieldPoint, build_chi_table,
                                   chi_doppler_averaged)

PRESETS = Path(__file__).resolve().parent.parent / "presets"
PARAMS = PhysicalParams()
K = PARAMS.wavenumber


def gaussian_field(grid, w=48e-4, g0=0.2):
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    return ComplexField2D(g0 * np.exp(-(X**2 + Y**2) / w**2), grid, 0.0)


def relative_l2(got, expect):
    return np.linalg.norm(got - expect) / np.linalg.norm(expect)


def ignore(step, snap):
    """An ``on_snapshot`` for a run whose end field alone is checked."""


def collect():
    """An ``on_snapshot`` and the list of (step, field copy) it fills; the
    field handed over is the run's own, so the callback copies it."""
    handed = []
    return handed, lambda step, snap: handed.append((step, snap.copy()))


def half_step_chain(probe, plan, n_steps):
    """A dark run as two diffraction half-steps per sub-step, unmerged."""
    chain = probe
    for _ in range(n_steps):
        for frac in plan.substeps():
            sub = frac * plan.dz
            chain = diffraction_step(chain, 0.5 * sub, K)
            chain = diffraction_step(chain, 0.5 * sub, K)
    return chain


class TestDiffraction:
    def test_zero_distance_is_identity(self):
        grid = TransverseGrid(nx=64, ny=64, extent=0.1)
        f = gaussian_field(grid)
        out = diffraction_step(f, 0.0, K)
        np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-15)

    def test_power_conserved(self):
        grid = TransverseGrid(nx=128, ny=128, extent=0.2)
        f = gaussian_field(grid)
        out = diffraction_step(f, 3.7, K)
        assert out.power() == pytest.approx(f.power(), rel=1e-12)

    def test_two_half_steps_equal_one_full(self):
        grid = TransverseGrid(nx=64, ny=64, extent=0.1)
        f = gaussian_field(grid)
        full = diffraction_step(f, 0.5, K)
        halves = diffraction_step(diffraction_step(f, 0.25, K), 0.25, K)
        np.testing.assert_allclose(halves.values, full.values, rtol=0, atol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([16, 32, 64, 128]), st.floats(0.01, 0.5),
           st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1))
    def test_power_conserved_for_any_field(self, n, extent, distance, seed):
        grid = TransverseGrid(nx=n, ny=n, extent=extent)
        rng = np.random.default_rng(seed)
        f = ComplexField2D(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                           grid, 0.0)
        out = diffraction_step(f, distance, K)
        assert abs(out.power() - f.power()) <= 1e-12 * f.power()

    def test_matches_a_two_dimensional_scipy_transform(self):
        # an independent transform: scipy's fft2 / ifft2 with the same phase
        scipy_fft = pytest.importorskip("scipy.fft")

        grid = TransverseGrid(nx=128, ny=96, extent=0.1)
        rng = np.random.default_rng(3)
        f = ComplexField2D(rng.normal(size=(128, 96))
                           + 1j * rng.normal(size=(128, 96)), grid, 0.25)
        before = f.values.copy()
        out = diffraction_step(f, 0.7, K)
        expect = scipy_fft.ifft2(scipy_fft.fft2(f.values)
                                 * solver._diffraction_phase(grid, 0.7, K))
        assert relative_l2(out.values, expect) < 1e-13
        # Parseval: the step is unitary
        assert abs(out.power() - f.power()) < 1e-13 * f.power()
        np.testing.assert_array_equal(f.values, before)
        assert out.z == pytest.approx(0.95, rel=1e-15)

    def test_steps_in_place_into_out(self):
        grid = TransverseGrid(nx=64, ny=64, extent=0.12)
        f = gaussian_field(grid)
        expect = diffraction_step(f, 0.3, K)
        values = f.values
        got = diffraction_step(f, 0.3, K, out=f.values)
        assert got.values is values
        assert got.z == expect.z
        np.testing.assert_array_equal(got.values, expect.values)

    def test_gaussian_spreading_law(self):
        grid = TransverseGrid(nx=256, ny=256, extent=0.24)
        w0 = 48e-4
        f = gaussian_field(grid, w=w0)
        z = 2.0
        out = diffraction_step(f, z, K)
        zr = np.pi * w0**2 / PARAMS.wavelength
        expect = w0 * np.sqrt(1.0 + (z / zr) ** 2)
        assert beam_width(out) == pytest.approx(expect, rel=1e-3)


class TestStepPlan:
    def test_orders(self):
        grid = GridSpec(TransverseGrid(nx=32, ny=32))
        assert StepPlan(grid, order=2).substeps() == (1.0,)
        subs = StepPlan(grid, order=4).substeps()
        assert len(subs) == 3 and subs[0] == subs[2]
        assert sum(subs) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            StepPlan(grid, order=3)

    def test_step_is_the_grids(self):
        grid = GridSpec(TransverseGrid(nx=32, ny=32), dz=0.01, cell_length=0.1)
        assert StepPlan(grid).dz == 0.01
        # a step of its own would disagree with the grid's step count
        with pytest.raises(TypeError):
            StepPlan(grid, dz=0.25)

    def test_cached_phases_unimodular(self):
        grid = TransverseGrid(nx=32, ny=32)
        phase = solver._diffraction_phase(grid, 0.005, K)
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=1e-14)
        # every step over this distance on this plane shares the one array
        assert solver._diffraction_phase(TransverseGrid(nx=32, ny=32), 0.005,
                                         K) is phase
        assert not phase.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            phase *= 2.0


def allocating_rk4(values, chi_of, distance, k):
    """Reference RK4: 2 i pi k inside the rate, each stage in fresh arrays."""
    c = 2j * np.pi * k

    def f(v):
        return c * chi_of(v.real * v.real + v.imag * v.imag) * v

    k1 = f(values)
    k2 = f(values + 0.5 * distance * k1)
    k3 = f(values + 0.5 * distance * k2)
    k4 = f(values + distance * k3)
    return values + (distance / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.fixture(scope="module")
def lit_medium():
    """A diffracted 64^2 probe under the control, its intensity and a table.

    On this 0.12 cm grid about a quarter of the points sit where the control
    and the probe are too weak for the medium step to move them.
    """
    grid = TransverseGrid(nx=64, ny=64, extent=0.12)
    control = ControlBeamSpec(waist_position_z0=0.1)
    probe = diffraction_step(gaussian_field(grid), 0.005, K)
    control_I = control_intensity(control, grid, 0.005)
    table = build_chi_table(float(control_I.max()), 0.48, PARAMS,
                            target_error=1e-3)
    return probe.values, control_I, table


def skipped_points(values, control_I, table, distance):
    """Where the stage-1 |2 pi k distance chi| is at most eps / 4."""
    chi = table(control_I, np.abs(values) ** 2)
    return np.abs(chi) * abs(2 * np.pi * K * distance) \
        <= np.finfo(float).eps / 4


class TestMediumSubflow:
    def test_matches_allocating_rk4_on_a_lit_field(self, lit_medium):
        values, control_I, table = lit_medium
        expect = allocating_rk4(values, lambda g2: table(control_I, g2),
                                0.01, K)
        # the medium moves the field by a few percent of itself here
        assert np.linalg.norm(expect - values) > 1e-3 * np.linalg.norm(values)
        got = _medium_subflow(values.copy(), control_I, table, 0.01, K)
        # the two differ only in the order of float64 roundoff
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("gather", (True, False))
    def test_points_below_the_skip_bound_keep_their_value(self, lit_medium,
                                                          monkeypatch,
                                                          gather):
        values, control_I, table = lit_medium
        skipped = skipped_points(values, control_I, table, 0.01)
        assert 0.1 < skipped.mean() < 0.9
        # whether the live points are gathered depends on the share kept;
        # the kept points and the stepped ones come out the same either way
        monkeypatch.setattr(solver, "GATHER_MIN_SKIPPED",
                            0.0 if gather else 1.0)
        sizes = []

        def lookup(G2, g2, out=None):
            sizes.append(g2.size)
            return table(G2, g2, out=out)

        # the sub-flow steps its input in place; it gets a copy
        got = _medium_subflow(values.copy(), control_I, lookup, 0.01, K)
        # stage 1 on the whole grid, stages 2-4 on the live points alone
        # or on the whole grid again
        live = int(np.count_nonzero(~skipped)) if gather else values.size
        assert sizes == [values.size, live, live, live]
        np.testing.assert_array_equal(got[skipped], values[skipped])
        expect = allocating_rk4(values, lambda g2: table(control_I, g2),
                                0.01, K)
        np.testing.assert_allclose(got[~skipped], expect[~skipped],
                                   rtol=1e-13, atol=0)

    def test_gathers_only_where_enough_points_are_kept(self):
        grid = TransverseGrid(nx=32, ny=32, extent=0.1)
        values = gaussian_field(grid).values
        # the "control intensity" numbers the points; chi is zero below a
        # cut, so exactly ``cut`` points keep their value
        order = np.arange(values.size, dtype=float).reshape(values.shape)
        least = int(np.ceil(solver.GATHER_MIN_SKIPPED * values.size))
        for cut, later in ((least - 1, values.size),
                           (least, values.size - least)):
            sizes = []

            def lookup(G2, g2, out=None, cut=cut):
                sizes.append(g2.size)
                return np.where(G2 < cut, 0.0, 1e-6)

            got = _medium_subflow(values.copy(), order, lookup, 0.01, K)
            assert sizes == [values.size] + [later] * 3
            kept = order < cut
            np.testing.assert_array_equal(got[kept], values[kept])
            assert np.all(got[~kept] != values[~kept])

    def test_leaves_a_cached_chi_unchanged(self, lit_medium):
        values, control_I, table = lit_medium
        cached = table(control_I, np.abs(values) ** 2)
        before = cached.copy()
        # the cached chi stands in for the control intensity, so each
        # lookup returns it at the points it is asked for
        got = _medium_subflow(values.copy(), cached,
                              lambda chi, g2, out=None: chi, 0.01, K)
        np.testing.assert_array_equal(cached, before)
        np.testing.assert_allclose(
            got, allocating_rk4(values, lambda g2: before, 0.01, K),
            rtol=1e-13, atol=0)

    def test_non_finite_points_stay_live_without_warnings(self, lit_medium):
        values, control_I, table = lit_medium
        clean = _medium_subflow(values.copy(), control_I, table, 0.01, K)
        bad = values.copy()
        bad[3, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _medium_subflow(bad.copy(), control_I, table, 0.01, K)
            # a NaN or infinite chi where a zero one would be skipped
            bad_chi = [_medium_subflow(
                values.copy(), control_I,
                lambda G2, g2, out=None: np.where(G2 == G2.max(), chi, 0.0),
                0.01, K) for chi in (np.nan, np.inf)]
        assert np.isnan(got[3, 3])
        got[3, 3] = clean[3, 3]
        np.testing.assert_array_equal(got, clean)
        hot = control_I == control_I.max()
        for stepped in bad_chi:
            assert not np.any(np.isfinite(stepped[hot]))
            np.testing.assert_array_equal(stepped[~hot], values[~hot])

    def test_constant_chi_matches_exponential(self):
        grid = TransverseGrid(nx=32, ny=32, extent=0.1)
        f = gaussian_field(grid)
        chi0 = (2.0 + 1.0j) * 1e-6
        got = _medium_subflow(f.values.copy(), np.ones(f.values.shape),
                              lambda G2, g2, out=None: np.full(g2.shape, chi0),
                              0.01, K)
        expect = f.values * np.exp(2j * np.pi * K * chi0 * 0.01)
        # classical RK4 on the linear flow: local error (2 pi k chi d)^5 / 120
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    @pytest.mark.parametrize("increment, refused", [(2.4, False),
                                                    (2.6, True)])
    def test_refuses_an_increment_past_the_rk4_stability_bound(
            self, increment, refused):
        grid = TransverseGrid(nx=32, ny=32, extent=0.1)
        f = gaussian_field(grid)
        chi = np.zeros(f.values.shape, dtype=complex)
        # one hot point with |2 pi k d chi| = increment; a NaN and an inf
        # beside it stay the caller's non-finite field
        chi[5, 7] = -increment / (2.0 * np.pi * K * 0.01)
        chi[0, 0], chi[0, 1] = np.nan, np.inf

        # the control intensity numbers the points, for the gathered stages
        index = np.arange(chi.size, dtype=float).reshape(chi.shape)

        def run():
            return _medium_subflow(
                f.values, index,
                lambda G2, g2, out=None: chi.ravel()[G2.astype(int)], 0.01, K)
        if refused:
            with pytest.raises(ValueError, match=r"\|2 pi k dz chi\| = 2\.6 "
                               r"is above RK4's stability bound 2\.5"):
                run()
        else:
            assert np.isfinite(run()[5, 7])

    def test_zero_chi_is_exact_identity(self):
        grid = TransverseGrid(nx=32, ny=32, extent=0.1)
        f = gaussian_field(grid)
        values = f.values.copy()
        got = _medium_subflow(values, np.ones(f.values.shape),
                              lambda G2, g2, out=None: np.zeros_like(g2),
                              0.01, K)
        # the sub-flow returns its input, stepped in place
        assert got is values
        assert got is not f.values
        np.testing.assert_array_equal(got, f.values)


class TestPropagate:
    @pytest.mark.parametrize("change", [
        dict(transverse=TransverseGrid(nx=64, ny=64, extent=0.1536)),
        dict(dz=0.01)], ids=("extent", "dz"))
    def test_plan_of_another_grid_is_refused_before_any_work(
            self, monkeypatch, change):
        cfg = parse_config(PRESETS / "guided_gaussian.ini")
        plane = TransverseGrid(nx=64, ny=64, extent=0.0768)
        grid = GridSpec(plane, dz=0.005, cell_length=0.2)
        plan = StepPlan(replace(grid, **change))

        def unreachable(*args, **kwargs):
            raise AssertionError("a table was built for a mismatched plan")

        monkeypatch.setattr(solver, "build_chi_table", unreachable)
        snapshots = []
        with pytest.raises(ValueError, match="the step plan's grid"):
            propagate(make_probe(cfg.probe, plane), cfg.control, cfg.params,
                      grid, plan, on_snapshot=lambda *args: snapshots.append(
                          args))
        assert snapshots == []

    @pytest.mark.parametrize("change", [dict(extent=0.1536), dict(nx=32)],
                             ids=("extent", "nx"))
    def test_probe_on_another_transverse_grid_is_refused_before_any_work(
            self, monkeypatch, tmp_path, change):
        cfg = parse_config(PRESETS / "guided_gaussian.ini")
        plane = TransverseGrid(nx=64, ny=64, extent=0.0768)
        grid = GridSpec(plane, dz=0.005, cell_length=0.2)

        def unreachable(*args, **kwargs):
            raise AssertionError("a table was built for a mismatched probe")

        monkeypatch.setattr(solver, "build_chi_table", unreachable)
        snapshots = []
        with pytest.raises(ValueError, match="the probe's grid"):
            propagate(make_probe(cfg.probe, replace(plane, **change)),
                      cfg.control, cfg.params, grid, StepPlan(grid),
                      on_snapshot=lambda *args: snapshots.append(args))
        assert snapshots == []
        # a snapshot read back from its file alone is a probe on the plane
        path = write_field(tmp_path / "probe.rbpf",
                           make_probe(cfg.probe, plane))
        end = propagate(read_field(path), ControlBeamSpec(G0=0.0),
                        cfg.params, grid, StepPlan(grid), on_snapshot=ignore)
        assert end.z == pytest.approx(grid.cell_length)

    def test_control_off_equals_pure_diffraction(self):
        plane = TransverseGrid(nx=128, ny=128, extent=0.24)
        grid = GridSpec(plane, dz=0.01, cell_length=0.5)
        probe = gaussian_field(plane)
        plan = StepPlan(grid)
        end = propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                        on_snapshot=ignore, snapshot_every=10**9)
        direct = probe
        for _ in range(grid.n_steps):
            direct = diffraction_step(direct, grid.dz, K)
        scale = np.linalg.norm(direct.values)
        assert np.linalg.norm(end.values - direct.values) / scale < 1e-10

    @pytest.mark.parametrize("order", (2, 4))
    def test_dark_run_diffracts_once_per_snapshot_interval(self, order):
        plane = TransverseGrid(nx=64, ny=64, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.1)
        probe = gaussian_field(plane)
        plan = StepPlan(grid, order=order)
        handed, on_snapshot = collect()
        end = propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                        on_snapshot=on_snapshot, snapshot_every=4)
        assert [step for step, _ in handed] == [0, 4, 8, 10]
        merged = probe
        for (start, _), (stop, snap) in zip(handed, handed[1:]):
            merged = diffraction_step(merged, (stop - start) * grid.dz, K)
            np.testing.assert_array_equal(snap.values, merged.values)
        # the split-step chain the merge replaces agrees to roundoff
        chain = half_step_chain(probe, plan, grid.n_steps)
        assert relative_l2(end.values, chain.values) < 1e-13

    def test_dark_run_follows_the_gaussian_beam(self, monkeypatch):
        # closed form of dg/dz = (i / 2k) laplace_perp g from a waist w0 at
        # z = 0: g = (-i zR / q) exp(i k r^2 / 2q), q = z - i zR; it carries
        # the width, the amplitude and the Gouy phase together
        plane = TransverseGrid(nx=256, ny=256, extent=0.24)
        grid = GridSpec(plane, dz=0.005, cell_length=1.0)
        w0 = 48e-4
        probe = gaussian_field(plane, w=w0, g0=1.0)
        calls = []
        diffraction = solver.diffraction_step

        def counting(*args, **kwargs):
            calls.append(args[1])
            return diffraction(*args, **kwargs)

        monkeypatch.setattr(solver, "diffraction_step", counting)
        solver._diffraction_phase.cache_clear()
        plan = StepPlan(grid)
        handed, on_snapshot = collect()
        propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                  on_snapshot=on_snapshot, snapshot_every=60)
        assert [step for step, _ in handed] == [0, 60, 120, 180, 200]
        # one diffraction per segment, and two distinct segment lengths
        assert len(calls) == 4
        assert solver._diffraction_phase.cache_info().currsize == 2
        X, Y = np.meshgrid(*plane.axes(), indexing="ij")
        r2 = X**2 + Y**2
        zR = K * w0**2 / 2.0
        for _, snap in handed:
            q = snap.z - 1j * zR
            expect = (-1j * zR / q) * np.exp(1j * K * r2 / (2.0 * q))
            assert relative_l2(snap.values, expect) < 1e-13

    def test_only_a_lit_run_builds_a_chi_table(self, monkeypatch):
        builds = []
        build = solver.build_chi_table

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(solver, "build_chi_table", counting)
        plane = TransverseGrid(nx=32, ny=32, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.05)
        probe = gaussian_field(plane)
        propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid,
                  StepPlan(grid), on_snapshot=ignore, snapshot_every=10**9)
        assert builds == []
        propagate(probe, ControlBeamSpec(waist_position_z0=0.05), PARAMS,
                  grid, StepPlan(grid), on_snapshot=ignore,
                  snapshot_every=10**9)
        assert len(builds) == 1

    def test_preserves_x_symmetry(self):
        plane = TransverseGrid(nx=64, ny=64, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.2)
        probe = gaussian_field(plane)
        plan = StepPlan(grid)
        end = propagate(probe, ControlBeamSpec(waist_position_z0=0.2), PARAMS,
                        grid, plan, on_snapshot=ignore, snapshot_every=10**9)
        intensity = np.abs(end.values) ** 2
        mirrored = intensity[1:, :][::-1, :]
        assert np.max(np.abs(intensity[1:, :] - mirrored)) / intensity.max() < 1e-10

    def test_snapshots_cadence(self):
        plane = TransverseGrid(nx=32, ny=32, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.1)
        probe = gaussian_field(plane)
        plan = StepPlan(grid)
        # a dark run every 4 steps and at the cell end; a lit run every step
        for control, every, steps in (
                (ControlBeamSpec(G0=0.0), 4, [0, 4, 8, 10]),
                (ControlBeamSpec(waist_position_z0=0.1), 1, list(range(11)))):
            handed, on_snapshot = collect()
            propagate(probe, control, PARAMS, grid, plan,
                      on_snapshot=on_snapshot, snapshot_every=every)
            assert [step for step, _ in handed] == steps
            assert [snap.z for _, snap in handed] == pytest.approx(
                [n * grid.dz for n in steps], rel=1e-12, abs=0)
            values = [snap.values for _, snap in handed]
            # each snapshot is its own copy of a field that moved
            assert not any(np.array_equal(a, b)
                           for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("control, order, use_table", [
        (ControlBeamSpec(waist_position_z0=0.1), 2, True),
        (ControlBeamSpec(waist_position_z0=0.1), 4, True),
        (ControlBeamSpec(waist_position_z0=0.1), 2, False),
        (ControlBeamSpec(G0=0.0), 2, True),
    ], ids=["lit order 2", "lit order 4", "direct average", "dark"])
    def test_on_snapshot_sees_the_collected_snapshots(self, control, order,
                                                      use_table):
        # every path hands over the same steps, and returns the field it
        # handed over at the cell end
        plane = TransverseGrid(nx=32, ny=32, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.1)
        handed, on_snapshot = collect()
        end = propagate(gaussian_field(plane), control, PARAMS, grid,
                        StepPlan(grid, order=order), on_snapshot=on_snapshot,
                        snapshot_every=3, use_table=use_table)
        assert [step for step, _ in handed] == [0, 3, 6, 9, 10]
        assert [snap.z for _, snap in handed] == pytest.approx(
            [0.0, 0.03, 0.06, 0.09, 0.1], rel=1e-12, abs=0)
        assert end.z == handed[-1][1].z
        np.testing.assert_array_equal(end.values, handed[-1][1].values)

    def test_non_finite_fields_abort_with_z(self):
        plane = TransverseGrid(nx=32, ny=32, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.1)
        bad = gaussian_field(plane)
        bad.values[3, 3] = np.nan
        plan = StepPlan(grid)
        with pytest.raises(NumericsError, match=r"input probe peak \|g\|\^2 "
                           r"= nan is not finite at z = 0 cm") as err:
            propagate(bad, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                      on_snapshot=ignore)
        assert err.value.z == 0.0

    def test_non_finite_lit_field_aborts_with_z(self, monkeypatch):
        # a NaN control intensity at one point makes chi, and so the field,
        # NaN there during step 1; its first diffraction spreads it
        def one_nan(*args, **kwargs):
            control_I = control_intensity(*args, **kwargs)
            control_I[3, 3] = np.nan
            return control_I

        monkeypatch.setattr(solver, "control_intensity", one_nan)
        plane = TransverseGrid(nx=32, ny=32, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.1)
        plan = StepPlan(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=r"non-finite field "
                               r"values in step 1 at z = 0\.01 cm") as err:
                propagate(gaussian_field(plane),
                          ControlBeamSpec(waist_position_z0=0.1), PARAMS,
                          grid, plan, on_snapshot=ignore)
        assert err.value.z == pytest.approx(0.01)

    def test_excursion_first_met_in_a_later_stage_names_step(self,
                                                             monkeypatch):
        # with no headroom the table tops out at the nearly flat probe's
        # |g|^2 of 0.04, which stage 1 stays under; over a 0.3 cm step the
        # ring's index lifts the stage-2 intensity ~20% above it
        monkeypatch.setattr(solver, "PROBE_PEAK_HEADROOM", 1.0)
        # few points keep their value here; gather the live ones anyway
        monkeypatch.setattr(solver, "GATHER_MIN_SKIPPED", 0.0)
        sizes = []
        lookup = ChiTable.__call__

        def recording(table, G2, g2, **kwargs):
            sizes.append(np.size(g2))
            return lookup(table, G2, g2, **kwargs)

        monkeypatch.setattr(ChiTable, "__call__", recording)
        plane = TransverseGrid(nx=64, ny=64, extent=0.06)
        grid = GridSpec(plane, dz=0.3, cell_length=0.3)
        plan = StepPlan(grid)
        with pytest.raises(NumericsError, match=r"step 1 at z = 0\.15 cm "
                           r"\(\|g\|\^2 queried up to [0-9.]+, above the "
                           r"table top 0\.04\)") as err:
            propagate(gaussian_field(plane, w=10.0),
                      ControlBeamSpec(waist_position_z0=0.1), PARAMS, grid,
                      plan, on_snapshot=ignore, snapshot_every=10**9)
        assert err.value.z == pytest.approx(0.15)
        # stage 1 passed on the whole grid; a subset lookup raised
        assert sizes[-2] == plane.nx * plane.ny > sizes[-1] > 0

    @pytest.mark.parametrize("order", (2, 4))
    def test_each_medium_subflow_makes_four_lookups(self, monkeypatch,
                                                    order):
        # perfbench's tracer self-check counts four ChiTable calls per lit
        # sub-step; the table build's own calls come before any sub-flow
        per_subflow = []
        subflow, lookup = solver._medium_subflow, ChiTable.__call__

        def counting_subflow(*args, **kwargs):
            per_subflow.append(0)
            return subflow(*args, **kwargs)

        def counting_lookup(table, G2, g2, **kwargs):
            if per_subflow:
                per_subflow[-1] += 1
            return lookup(table, G2, g2, **kwargs)

        monkeypatch.setattr(solver, "_medium_subflow", counting_subflow)
        monkeypatch.setattr(ChiTable, "__call__", counting_lookup)
        plane = TransverseGrid(nx=32, ny=32, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.05)
        plan = StepPlan(grid, order=order)
        propagate(gaussian_field(plane),
                  ControlBeamSpec(waist_position_z0=0.05), PARAMS, grid, plan,
                  on_snapshot=ignore, snapshot_every=10**9)
        assert per_subflow == [4] * (grid.n_steps * len(plan.substeps()))

    def test_focusing_past_the_table_range_names_step_and_intensity(self):
        # a lens of focal length 0.2 cm focuses the probe far beyond the
        # table's |g|^2 top, 12 x the input peak 0.04
        plane = TransverseGrid(nx=64, ny=64, extent=0.06)
        grid = GridSpec(plane, dz=0.01, cell_length=0.3)
        X, Y = np.meshgrid(*plane.axes(), indexing="ij")
        lens = np.exp(-1j * K * (X**2 + Y**2) / (2.0 * 0.2))
        probe = ComplexField2D(gaussian_field(plane).values * lens, plane, 0.0)
        plan = StepPlan(grid)
        with pytest.raises(NumericsError, match=r"step 15 at z = 0\.145 cm "
                           r"\(\|g\|\^2 queried up to [0-9.]+, above the "
                           r"table top 0\.48\)") as err:
            propagate(probe, ControlBeamSpec(), PARAMS, grid, plan,
                      on_snapshot=ignore, snapshot_every=10**9)
        assert err.value.z == pytest.approx(0.145)

    @pytest.mark.parametrize("z0, top_at", ((-0.3, 0.0), (0.005, 0.005),
                                            (1.4, 1.0)))
    def test_table_covers_the_control_peak_in_the_cell(self, monkeypatch,
                                                       z0, top_at):
        # a 5 um waist has a Rayleigh range of 0.0099 cm; 0.005 cm from its
        # waist the ring's peak |G|^2 is 20% below the waist's, more than a
        # query may overshoot the table top
        tops = []
        build = solver.build_chi_table

        def recording(G2_max, g2_max, params, **kwargs):
            tops.append(G2_max)
            return build(G2_max, g2_max, params, **kwargs)

        monkeypatch.setattr(solver, "build_chi_table", recording)
        # a grid spacing of 3.6 um puts a point near the 3.5 um ring radius
        plane = TransverseGrid(nx=8, ny=8, extent=8 * 3.6e-4)
        grid = GridSpec(plane, dz=0.01, cell_length=1.0)
        control = ControlBeamSpec(waist_wc=5e-4, waist_position_z0=z0)
        end = propagate(gaussian_field(plane, w=7e-4), control, PARAMS, grid,
                        StepPlan(grid), on_snapshot=ignore,
                        snapshot_every=10**9)
        assert tops == [control.peak_intensity(top_at)]
        assert end.z == pytest.approx(1.0)
        assert np.all(np.isfinite(end.values))

    def test_order4_runs_and_agrees_with_order2(self):
        plane = TransverseGrid(nx=64, ny=64, extent=0.12)
        grid = GridSpec(plane, dz=0.01, cell_length=0.1)
        probe = gaussian_field(plane)
        end2 = propagate(probe, ControlBeamSpec(waist_position_z0=0.1), PARAMS,
                         grid, StepPlan(grid, order=2), on_snapshot=ignore,
                         snapshot_every=10**9)
        end4 = propagate(probe, ControlBeamSpec(waist_position_z0=0.1), PARAMS,
                         grid, StepPlan(grid, order=4), on_snapshot=ignore,
                         snapshot_every=10**9)
        scale = np.linalg.norm(end2.values)
        assert np.linalg.norm(end2.values - end4.values) / scale < 1e-4


def test_gaussian_in_a_complex_quadratic_duct_follows_the_closed_form(
        monkeypatch):
    # chi = alpha r^2 keeps a Gaussian g = A exp(i k r^2 / 2q) Gaussian under
    # dg/dz = (i / 2k) laplace_perp g + 2 i pi k chi g, with q' = 1 - gamma^2
    # q^2 and A' = -A / q, gamma^2 = 4 pi alpha (Kogelnik, Appl. Opt. 4, 1562,
    # 1965).  From a waist, q0 = -i zR:
    #   q = tanh(gamma z + phi) / gamma,  A = sinh(phi) / sinh(gamma z + phi),
    # phi = atanh(gamma q0), both even in gamma, so either square root
    # serves.  Re alpha < 0 guides, Im alpha > 0 absorbs off
    # axis, and together they keep the field at the domain edge below 1e-12
    # of its peak over the whole run.
    w0, length = 48e-4, 1.0
    zR = K * w0**2 / 2.0
    alpha = (-1.0 + 0.25j) / (4.0 * np.pi * zR**2)
    gamma = np.sqrt(4.0 * np.pi * alpha)
    phi = np.arctanh(-1j * zR * gamma)
    errors = []
    for dz in (0.025, 0.0125, 0.00625):
        plane = TransverseGrid(nx=64, ny=64, extent=0.06)
        grid = GridSpec(plane, dz=dz, cell_length=length)
        X, Y = np.meshgrid(*plane.axes(), indexing="ij")
        r2 = X**2 + Y**2
        monkeypatch.setattr(solver, "control_intensity",
                            lambda spec, on_grid, z, out=None: r2)
        monkeypatch.setattr(solver, "build_chi_table",
                            lambda *args, **kwargs:
                        lambda G2, g2, out=None: alpha * G2)
        probe = gaussian_field(plane, w=w0, g0=1.0)
        handed, on_snapshot = collect()
        end = propagate(probe, ControlBeamSpec(), PARAMS, grid,
                        StepPlan(grid), on_snapshot=on_snapshot,
                        snapshot_every=round(0.25 / dz))
        assert [s.z for _, s in handed] == pytest.approx(
            [0.0, 0.25, 0.5, 0.75, 1.0], rel=1e-12, abs=0)
        for _, snap in handed:
            q = np.tanh(gamma * snap.z + phi) / gamma
            A = np.sinh(phi) / np.sinh(gamma * snap.z + phi)
            peak = np.abs(snap.values).max()
            for edge in (snap.values[0], snap.values[:, 0]):
                assert np.abs(edge).max() < 1e-12 * peak
            if dz == 0.00625:
                # |g|^2 = |A|^2 exp(-k Im(1/q) r^2)
                a = K * (1.0 / q).imag
                assert beam_width(snap) == pytest.approx(np.sqrt(2.0 / a),
                                                         rel=1e-5)
                assert snap.power() == pytest.approx(abs(A)**2 * np.pi / a,
                                                     rel=4e-6)
                on_axis = snap.values[plane.nx // 2, plane.ny // 2]
                assert abs(np.angle(on_axis / A)) < 3e-6
        expect = A * np.exp(1j * K * r2 / (2.0 * q))
        errors.append(relative_l2(end.values, expect))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1), orders


def test_duct_past_the_rk4_stability_bound_is_refused(monkeypatch):
    # the duct above at 4 pi alpha zR^2 = -2 + 0.5i and dz = 0.05 cm: at the
    # corners of a 0.053 cm grid |2 pi k dz chi| reaches 6.9, where RK4's
    # update grows without bound (this run used to end normally with 1.5e36
    # times the closed form's power)
    w0 = 48e-4
    zR = K * w0**2 / 2.0
    alpha = (-2.0 + 0.5j) / (4.0 * np.pi * zR**2)
    plane = TransverseGrid(nx=64, ny=64, extent=0.053)
    grid = GridSpec(plane, dz=0.05, cell_length=1.0)
    X, Y = np.meshgrid(*plane.axes(), indexing="ij")
    r2 = X**2 + Y**2
    monkeypatch.setattr(solver, "control_intensity",
                        lambda spec, on_grid, z, out=None: r2)
    monkeypatch.setattr(solver, "build_chi_table",
                        lambda *args, **kwargs:
                        lambda G2, g2, out=None: alpha * G2)
    with pytest.raises(NumericsError, match=r"step 1 at z = 0\.025 cm "
                       r"\(\|2 pi k dz chi\| = 6\.90\d* is above RK4's "
                       r"stability bound 2\.5\)") as err:
        propagate(gaussian_field(plane, w=w0, g0=1.0), ControlBeamSpec(),
                  PARAMS, grid, StepPlan(grid), on_snapshot=ignore,
                  snapshot_every=5)
    assert err.value.z == pytest.approx(0.025)


class _TableBuilt(Exception):
    """Carries the chi table out of ``propagate`` before its first step."""


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="below both node floors ChiTable returns its "
                   "corner node times |G|^2, but chi there tends to a "
                   "function of |G|^2 / (|G|^2 + |g|^2)")
def test_guided_table_matches_the_direct_average_at_every_lit_point(
        monkeypatch):
    cfg = parse_config(PRESETS / "guided_gaussian.ini")
    build = solver.build_chi_table

    def stop_after_build(*args, **kwargs):
        raise _TableBuilt(build(*args, **kwargs))

    monkeypatch.setattr(solver, "build_chi_table", stop_after_build)
    probe = make_probe(cfg.probe, cfg.grid.transverse)
    target = cfg.run["table_target_error"]
    with pytest.raises(_TableBuilt) as built:
        propagate(probe, cfg.control, cfg.params, cfg.grid,
                  StepPlan(cfg.grid), on_snapshot=ignore,
                  table_target_error=target)
    table = built.value.args[0]
    G2 = control_intensity(cfg.control, cfg.grid.transverse, 0.0)
    lit = G2 > 0.0
    g2 = np.abs(probe.values[lit]) ** 2
    expect = chi_doppler_averaged(FieldPoint(g2, G2[lit]), cfg.params)
    err = np.abs(table(G2[lit], g2) - expect) / np.abs(expect)
    assert err.max() < target
