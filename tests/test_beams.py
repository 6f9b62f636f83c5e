import numpy as np
import pytest

from rbprop.beams import (ControlBeamSpec, ProbeSpec, control_intensity,
                          make_probe)
from rbprop.params import TransverseGrid

CTRL = ControlBeamSpec(G0=1.0, waist_wc=120e-4, waist_position_z0=5.0)


def control_field(spec: ControlBeamSpec, x, y, z: float):
    """Complex control Rabi amplitude at (x, y, z), gamma units: the
    Laguerre-Gaussian field that the radial |G|^2 formula of
    ``rbprop.beams`` is checked against.

    G = G0 (w_c r / w_z^2) exp(-i k r^2 / (2 q) + i theta) with
    q = i z_R - z + z0 and theta the azimuth.  The amplitude vanishes on the
    axis, where the azimuth is left at zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + y * y
    r = np.sqrt(r2)
    k = 2.0 * np.pi / spec.wavelength
    zr = spec.rayleigh_range
    q = 1j * zr - z + spec.waist_position_z0
    wz = spec.width_at(z)
    theta = np.arctan2(y, x)
    envelope = spec.G0 * spec.waist_wc * r / wz**2
    out = envelope * np.exp(-1j * k * r2 / (2.0 * q) + 1j * theta)
    if out.shape == ():
        return complex(out)
    return out


class TestControlField:
    def test_vortex_core_is_dark(self):
        for z in (0.0, 2.5, 5.0):
            assert control_field(CTRL, 0.0, 0.0, z) == 0.0

    def test_rayleigh_range(self):
        assert CTRL.rayleigh_range == pytest.approx(5.6906, rel=1e-4)

    def test_waist_plane_reduces_to_simple_vortex(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.02, 0.02, size=(20, 2))
        z0 = CTRL.waist_position_z0
        full = control_field(CTRL, pts[:, 0], pts[:, 1], z0)
        r = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        simple = (CTRL.G0 * r / CTRL.waist_wc
                  * np.exp(-r**2 / CTRL.waist_wc**2 + 1j * theta))
        ratio = full / simple
        np.testing.assert_allclose(np.abs(ratio), 1.0, rtol=1e-12)
        # constant phase across points
        assert np.ptp(np.angle(ratio * np.exp(-1j * np.angle(ratio[0])))) < 1e-10

    def test_entry_ring_radius(self):
        # analytic: |G| peaks at w(z)/sqrt(2)
        wz = CTRL.width_at(0.0)
        r = np.linspace(1e-6, 0.03, 200001)
        amp = np.abs(control_field(CTRL, r, 0.0, 0.0))
        r_peak = r[np.argmax(amp)]
        assert r_peak == pytest.approx(wz / np.sqrt(2.0), rel=1e-4)
        # entry-face value for the 120 um waist focused 5 cm downstream
        assert r_peak * 1e4 == pytest.approx(112.96, abs=0.05)

    def test_rotation_invariance_and_winding(self):
        phi = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        r0 = 0.011
        x, y = r0 * np.cos(phi), r0 * np.sin(phi)
        G = control_field(CTRL, x, y, 1.3)
        np.testing.assert_allclose(np.abs(G), np.abs(G[0]), rtol=1e-12)
        total = np.unwrap(np.angle(G))[-1] - np.unwrap(np.angle(G))[0]
        assert total == pytest.approx(2 * np.pi * (719 / 720), rel=1e-6)

    def test_beam_expands_from_waist_to_entry(self):
        assert CTRL.width_at(0.0) > CTRL.waist_wc
        assert CTRL.width_at(CTRL.waist_position_z0) == CTRL.waist_wc

    def test_intensity_helper_matches_field(self):
        grid = TransverseGrid(nx=32, ny=32, extent=0.06)
        X, Y = np.meshgrid(*grid.axes(), indexing="ij")
        direct = np.abs(control_field(CTRL, X, Y, 2.0)) ** 2
        np.testing.assert_allclose(control_intensity(CTRL, grid, 2.0),
                                   direct, rtol=1e-12, atol=1e-30)

    def test_peak_intensity_formula(self):
        grid = TransverseGrid(nx=512, ny=512, extent=0.08)
        sampled = control_intensity(CTRL, grid, 0.7).max()
        assert sampled == pytest.approx(CTRL.peak_intensity(0.7), rel=1e-3)


GRID = TransverseGrid(nx=256, ny=256, extent=0.12)


class TestProbes:
    def test_gaussian_center_and_width_values(self):
        spec = ProbeSpec(kind="gaussian", g0=0.2, width=48e-4)
        field = make_probe(spec, GRID).values
        assert field[128, 128] == pytest.approx(0.2)
        x, _ = GRID.axes()
        i_w = int(np.argmin(np.abs(x - spec.width)))
        assert abs(field[i_w, 128]) == pytest.approx(
            0.2 * np.exp(-(x[i_w] / spec.width) ** 2), rel=1e-12)

    def test_probe_rayleigh_length(self):
        # pi w^2 / lambda for the 48 um probe
        zr = np.pi * (48e-4) ** 2 / 794.98e-7
        assert zr == pytest.approx(0.9105, rel=1e-3)

    def test_double_gaussian_symmetric(self):
        spec = ProbeSpec(kind="double_gaussian", g0=0.2, width=48e-4,
                         centers=(-70e-4, 70e-4))
        field = make_probe(spec, GRID).values
        np.testing.assert_allclose(field[1:, :], field[1:, :][::-1, :],
                                   rtol=0, atol=1e-16)

    def test_double_gaussian_merges_at_zero_separation(self):
        spec = ProbeSpec(kind="double_gaussian", g0=0.2, width=48e-4,
                         centers=(-1e-9, 1e-9))
        field = make_probe(spec, GRID).values
        assert abs(field[128, 128]) == pytest.approx(0.4, rel=1e-8)

    def test_double_gaussian_resolved_at_default_separation(self):
        spec = ProbeSpec(kind="double_gaussian", g0=0.2, width=48e-4,
                         centers=(-70e-4, 70e-4))
        row = np.abs(make_probe(spec, GRID).values[:, 128]) ** 2
        peak = row.max()
        valley = row[128]
        assert peak / valley > 2.0

    def test_sech_values(self):
        spec = ProbeSpec(kind="sech_multi", g0=0.2, width=35e-4, centers=(0.0,))
        field = make_probe(spec, GRID).values
        assert abs(field[128, 128]) == pytest.approx(0.2, rel=1e-12)
        x, _ = GRID.axes()
        i_w = int(np.argmin(np.abs(x - spec.width)))
        expect = 0.2 / np.cosh(x[i_w] / spec.width)
        assert abs(field[i_w, 128]) == pytest.approx(expect, rel=1e-12)
        assert 1 / np.cosh(1.0) == pytest.approx(0.6481, abs=1e-4)

    def test_three_sech_peaks_resolved(self):
        spec = ProbeSpec(kind="sech_multi", g0=0.2, width=35e-4,
                         centers=(-120e-4, 0.0, 120e-4))
        from rbprop.analysis import peak_positions
        field = make_probe(spec, GRID)
        assert len(peak_positions(field)) == 3

    def test_probes_even_in_y(self):
        for spec in (ProbeSpec(),
                     ProbeSpec(kind="double_gaussian", centers=(-70e-4, 70e-4)),
                     ProbeSpec(kind="sech_multi", width=35e-4,
                               centers=(-120e-4, 0.0, 120e-4))):
            field = make_probe(spec, GRID).values
            np.testing.assert_allclose(field[:, 1:], field[:, 1:][:, ::-1],
                                       rtol=0, atol=1e-16)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(kind="ring")
        with pytest.raises(ValueError):
            ProbeSpec(kind="double_gaussian", centers=(0.0,))
        with pytest.raises(ValueError):
            ProbeSpec(kind="sech_multi", centers=())
        with pytest.raises(ValueError):
            ProbeSpec(kind="gaussian", centers=(1e-4,))
        with pytest.raises(ValueError):
            ProbeSpec(width=-1.0)
        with pytest.raises(ValueError):
            ProbeSpec(kind="double_gaussian", centers=(1e-4, 1e-4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_specs_reject_non_finite_inputs(self, value):
        for make in (lambda: ControlBeamSpec(G0=value),
                     lambda: ControlBeamSpec(waist_wc=value),
                     lambda: ControlBeamSpec(waist_position_z0=value),
                     lambda: ProbeSpec(g0=value),
                     lambda: ProbeSpec(width=value),
                     lambda: ProbeSpec(kind="sech_multi", centers=(0.0, value))):
            with pytest.raises(ValueError, match="finite"):
                make()
