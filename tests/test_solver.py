import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbprop.beams import (ControlBeamSpec, ProbeSpec, control_intensity,
                          make_probe)
from rbprop.params import GridSpec, PhysicalParams
from rbprop.solver import (ComplexField2D, NumericsError, StepPlan,
                           _medium_subflow, _SubflowBuffers, diffraction_step,
                           edge_window, propagate)
from rbprop.susceptibility import build_chi_table

PARAMS = PhysicalParams()
K = PARAMS.wavenumber


def gaussian_field(grid, w=48e-4, g0=0.2):
    X, Y = grid.mesh()
    return ComplexField2D(g0 * np.exp(-(X**2 + Y**2) / w**2), grid, 0.0)


class TestDiffraction:
    def test_zero_distance_is_identity(self):
        grid = GridSpec(nx=64, ny=64, extent=0.1)
        f = gaussian_field(grid)
        out = diffraction_step(f, 0.0, K)
        np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-15)

    def test_power_conserved(self):
        grid = GridSpec(nx=128, ny=128, extent=0.2)
        f = gaussian_field(grid)
        out = diffraction_step(f, 3.7, K)
        assert out.power() == pytest.approx(f.power(), rel=1e-12)

    def test_two_half_steps_equal_one_full(self):
        grid = GridSpec(nx=64, ny=64, extent=0.1)
        plan = StepPlan(grid, dz=0.02)
        f = gaussian_field(grid)
        full = diffraction_step(f, 0.5, K, plan)
        halves = diffraction_step(diffraction_step(f, 0.25, K, plan), 0.25, K, plan)
        np.testing.assert_allclose(halves.values, full.values, rtol=0, atol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([16, 32, 64, 128]), st.floats(0.01, 0.5),
           st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1))
    def test_power_conserved_for_any_field(self, n, extent, distance, seed):
        grid = GridSpec(nx=n, ny=n, extent=extent)
        rng = np.random.default_rng(seed)
        f = ComplexField2D(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                           grid, 0.0)
        out = diffraction_step(f, distance, K)
        assert abs(out.power() - f.power()) <= 1e-12 * f.power()

    def test_gaussian_spreading_law(self):
        from rbprop.analysis import beam_width
        grid = GridSpec(nx=256, ny=256, extent=0.24)
        w0 = 48e-4
        f = gaussian_field(grid, w=w0)
        z = 2.0
        out = diffraction_step(f, z, K)
        zr = np.pi * w0**2 / PARAMS.wavelength
        expect = w0 * np.sqrt(1.0 + (z / zr) ** 2)
        assert beam_width(out) == pytest.approx(expect, rel=1e-3)


class TestStepPlan:
    def test_orders(self):
        grid = GridSpec(nx=32, ny=32)
        assert StepPlan(grid, dz=0.01, order=2).substeps() == (1.0,)
        subs = StepPlan(grid, dz=0.01, order=4).substeps()
        assert len(subs) == 3 and subs[0] == subs[2]
        assert sum(subs) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            StepPlan(grid, dz=0.01, order=3)

    def test_cached_phases_unimodular(self):
        grid = GridSpec(nx=32, ny=32)
        plan = StepPlan(grid, dz=0.01)
        phase = plan.diffraction_phase(0.005, K)
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=1e-14)


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
    """A diffracted 64^2 probe under the control, and a table-backed chi."""
    grid = GridSpec(nx=64, ny=64, extent=0.06, dz=0.01, cell_length=0.1)
    control = ControlBeamSpec(waist_position_z0=0.1)
    probe = diffraction_step(gaussian_field(grid), 0.005, K)
    control_I = control_intensity(control, grid, 0.005)
    table = build_chi_table(float(control_I.max()), 0.48, PARAMS,
                            target_error=1e-3, initial_nodes=48)
    return probe.values, lambda g2: table(control_I, g2)


class TestMediumSubflow:
    def test_matches_allocating_rk4_on_a_lit_field(self, lit_medium):
        values, chi_of = lit_medium
        expect = allocating_rk4(values, chi_of, 0.01, K)
        # the medium moves the field by a few percent of itself here
        assert np.linalg.norm(expect - values) > 1e-3 * np.linalg.norm(values)
        got = _medium_subflow(values, chi_of, 0.01, K)
        # the two differ only in the order of float64 roundoff
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)
        # a run reuses one set of buffers; the result does not depend on it
        buffers = _SubflowBuffers(values.shape)
        for _ in range(2):
            again = _medium_subflow(values, chi_of, 0.01, K, buffers)
            assert again is not buffers.total
            np.testing.assert_array_equal(again, got)

    def test_leaves_a_cached_chi_unchanged(self, lit_medium):
        values, chi_of = lit_medium
        cached = chi_of(np.abs(values) ** 2)
        before = cached.copy()
        got = _medium_subflow(values, lambda g2: cached, 0.01, K)
        np.testing.assert_array_equal(cached, before)
        np.testing.assert_allclose(
            got, allocating_rk4(values, lambda g2: before, 0.01, K),
            rtol=1e-13, atol=0)

    def test_constant_chi_matches_exponential(self):
        grid = GridSpec(nx=32, ny=32, extent=0.1)
        f = gaussian_field(grid)
        chi0 = (2.0 + 1.0j) * 1e-6
        got = _medium_subflow(f.values, lambda g2: chi0, 0.01, K)
        expect = f.values * np.exp(2j * np.pi * K * chi0 * 0.01)
        # classical RK4 on the linear flow: local error (2 pi k chi d)^5 / 120
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_zero_chi_is_exact_identity(self):
        grid = GridSpec(nx=32, ny=32, extent=0.1)
        f = gaussian_field(grid)
        got = _medium_subflow(f.values, lambda g2: np.zeros_like(g2), 0.01, K)
        np.testing.assert_array_equal(got, f.values)


class TestPropagate:
    def test_control_off_equals_pure_diffraction(self):
        grid = GridSpec(nx=128, ny=128, extent=0.24, dz=0.01, cell_length=0.5)
        probe = gaussian_field(grid)
        plan = StepPlan(grid, dz=grid.dz)
        res = propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                        snapshot_every=10**9)
        direct = probe
        for _ in range(grid.n_steps):
            direct = diffraction_step(direct, grid.dz, K, plan)
        scale = np.linalg.norm(direct.values)
        assert np.linalg.norm(res.field.values - direct.values) / scale < 1e-10

    @pytest.mark.parametrize("order", (2, 4))
    def test_dark_control_is_exactly_the_half_step_chain(self, order):
        grid = GridSpec(nx=64, ny=64, extent=0.12, dz=0.01, cell_length=0.1)
        probe = gaussian_field(grid)
        plan = StepPlan(grid, dz=grid.dz, order=order)
        res = propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                        snapshot_every=10**9)
        chain = probe
        for _ in range(grid.n_steps):
            for frac in plan.substeps():
                sub = frac * grid.dz
                chain = diffraction_step(chain, 0.5 * sub, K, plan)
                chain = diffraction_step(chain, 0.5 * sub, K, plan)
        np.testing.assert_array_equal(res.field.values, chain.values)

    def test_preserves_x_symmetry(self):
        grid = GridSpec(nx=64, ny=64, extent=0.12, dz=0.01, cell_length=0.2)
        probe = gaussian_field(grid)
        plan = StepPlan(grid, dz=grid.dz)
        res = propagate(probe, ControlBeamSpec(waist_position_z0=0.2), PARAMS,
                        grid, plan, snapshot_every=10**9)
        intensity = np.abs(res.field.values) ** 2
        mirrored = intensity[1:, :][::-1, :]
        assert np.max(np.abs(intensity[1:, :] - mirrored)) / intensity.max() < 1e-10

    def test_snapshots_cadence(self):
        grid = GridSpec(nx=32, ny=32, extent=0.12, dz=0.01, cell_length=0.1)
        probe = gaussian_field(grid)
        plan = StepPlan(grid, dz=grid.dz)
        res = propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                        snapshot_every=4)
        assert res.snapshot_steps == [0, 4, 8, 10]
        assert res.snapshots[-1].z == pytest.approx(0.1)

    def test_non_finite_fields_abort_with_z(self):
        grid = GridSpec(nx=32, ny=32, extent=0.12, dz=0.01, cell_length=0.1)
        bad = gaussian_field(grid)
        bad.values[3, 3] = np.nan
        plan = StepPlan(grid, dz=grid.dz)
        with pytest.raises(NumericsError,
                           match=r"step 1 at z = 0\.01 cm") as err:
            propagate(bad, ControlBeamSpec(G0=0.0), PARAMS, grid, plan)
        assert err.value.z == pytest.approx(0.01)

    def test_focusing_past_the_table_range_names_step_and_intensity(self):
        # a lens of focal length 0.2 cm focuses the probe far beyond the
        # table's |g|^2 top, 12 x the input peak 0.04
        grid = GridSpec(nx=64, ny=64, extent=0.06, dz=0.01, cell_length=0.3)
        X, Y = grid.mesh()
        lens = np.exp(-1j * K * (X**2 + Y**2) / (2.0 * 0.2))
        probe = ComplexField2D(gaussian_field(grid).values * lens, grid, 0.0)
        plan = StepPlan(grid, dz=grid.dz)
        with pytest.raises(NumericsError, match=r"step 15 at z = 0\.145 cm "
                           r"\(\|g\|\^2 queried up to [0-9.]+, above the "
                           r"table top 0\.48\)") as err:
            propagate(probe, ControlBeamSpec(), PARAMS, grid, plan,
                      snapshot_every=10**9)
        assert err.value.z == pytest.approx(0.145)

    def test_order4_runs_and_agrees_with_order2(self):
        grid = GridSpec(nx=64, ny=64, extent=0.12, dz=0.01, cell_length=0.1)
        probe = gaussian_field(grid)
        res2 = propagate(probe, ControlBeamSpec(waist_position_z0=0.1), PARAMS,
                         grid, StepPlan(grid, dz=grid.dz, order=2),
                         snapshot_every=10**9)
        res4 = propagate(probe, ControlBeamSpec(waist_position_z0=0.1), PARAMS,
                         grid, StepPlan(grid, dz=grid.dz, order=4),
                         snapshot_every=10**9)
        scale = np.linalg.norm(res2.field.values)
        assert np.linalg.norm(res2.field.values - res4.field.values) / scale < 1e-4


def test_edge_window_profile():
    grid = GridSpec(nx=64, ny=64)
    w = edge_window(grid, fraction=0.1)
    assert w.max() <= 1.0 and w.min() >= 0.0
    assert w[32, 32] == 1.0
    assert w[0, 32] == 0.0
