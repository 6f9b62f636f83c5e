import numpy as np
import pytest

from rbprop.analysis import beam_width, peak_positions, radial_chi_map
from rbprop.beams import ControlBeamSpec
from rbprop.params import PhysicalParams, TransverseGrid
from rbprop.solver import ComplexField2D

GRID = TransverseGrid(nx=256, ny=256, extent=0.12)
PARAMS = PhysicalParams()


def field_from(values):
    return ComplexField2D(values.astype(complex), GRID, 0.0)


def gaussian(w, g0=0.2, x0=0.0):
    X, Y = np.meshgrid(*GRID.axes(), indexing="ij")
    return g0 * np.exp(-((X - x0) ** 2 + Y**2) / w**2)


# the observables acceptance criteria 5b, 7 and 8 read; no command
# computes them
def transmission(field_in: ComplexField2D, field_out: ComplexField2D) -> float:
    """Ratio of integrated output to input intensity."""
    p_in = np.sum(np.abs(field_in.values) ** 2)
    if p_in <= 0.0:
        raise ValueError("transmission is undefined for a zero-power input")
    return float(np.sum(np.abs(field_out.values) ** 2) / p_in)


def index_contrast(params: PhysicalParams, control: ControlBeamSpec, z: float,
                   probe_level: float) -> float:
    """Peak-to-trough refractive index difference 2 pi (max - min) Re<chi>.

    Sampled at 400 radii out to five beam radii at the given z, with the
    probe intensity held uniformly at probe_level^2.
    """
    wz = control.width_at(z)
    r = np.linspace(0.0, 5.0 * wz, 400)
    chi = radial_chi_map(params, control, z, probe_level, r,
                         [params.delta_R])
    return float(2.0 * np.pi * (chi.real.max() - chi.real.min()))


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


class TestBeamWidth:
    def test_calibrated_on_exact_gaussian(self):
        f = field_from(gaussian(48e-4))
        assert beam_width(f) == pytest.approx(48e-4, rel=1e-3)

    def test_invariant_under_phase_and_scale(self):
        base = gaussian(30e-4)
        w0 = beam_width(field_from(base))
        rotated = field_from(base * 7.3 * np.exp(1j * 1.234))
        assert beam_width(rotated) == pytest.approx(w0, rel=1e-13)

    def test_double_gaussian_against_direct_moment_sum(self):
        a = 70e-4
        w = 48e-4
        values = gaussian(w, x0=-a) + gaussian(w, x0=+a)
        f = field_from(values)
        # brute-force second-moment integral on the grid
        X, Y = np.meshgrid(*GRID.axes(), indexing="ij")
        intensity = np.abs(values) ** 2
        tot = intensity.sum()
        xc = (intensity * X).sum() / tot
        yc = (intensity * Y).sum() / tot
        r2 = (X - xc) ** 2 + (Y - yc) ** 2
        expect = np.sqrt(2.0 * (intensity * r2).sum() / tot)
        assert beam_width(f) == pytest.approx(expect, rel=1e-13)

    def test_zero_power_rejected(self):
        f = field_from(np.zeros((256, 256)))
        with pytest.raises(ValueError):
            beam_width(f)


class TestTransmission:
    def test_identity_is_unity(self):
        f = field_from(gaussian(48e-4))
        assert transmission(f, f) == 1.0

    def test_zero_output(self):
        f = field_from(gaussian(48e-4))
        z = field_from(np.zeros((256, 256)))
        assert transmission(f, z) == 0.0

    def test_invariant_under_common_rescale(self):
        fin = field_from(gaussian(48e-4))
        fout = field_from(0.5 * gaussian(30e-4))
        t = transmission(fin, fout)
        fin2 = field_from(3.0 * gaussian(48e-4))
        fout2 = field_from(1.5 * gaussian(30e-4))
        assert transmission(fin2, fout2) == pytest.approx(t, rel=1e-13)

    def test_zero_input_rejected(self):
        z = field_from(np.zeros((256, 256)))
        with pytest.raises(ValueError):
            transmission(z, z)


class TestPeakPositions:
    def test_single_centered_gaussian(self):
        f = field_from(gaussian(48e-4))
        peaks = peak_positions(f)
        assert len(peaks) == 1
        assert abs(peaks[0]) <= GRID.dx

    def test_double_gaussian_at_input_positions(self):
        a = 70e-4
        f = field_from(gaussian(48e-4, x0=-a) + gaussian(48e-4, x0=+a))
        peaks = sorted(peak_positions(f))
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(-a, abs=GRID.dx / 2)
        assert peaks[1] == pytest.approx(+a, abs=GRID.dx / 2)

    def test_symmetric_field_gives_paired_peaks(self):
        f = field_from(gaussian(40e-4, x0=-80e-4) + gaussian(40e-4, x0=80e-4))
        peaks = sorted(peak_positions(f))
        np.testing.assert_allclose(peaks, sorted(-p for p in peaks),
                                   atol=1e-12)

    def test_threshold_discards_weak_bumps(self):
        f = field_from(gaussian(48e-4) + 0.01 * gaussian(20e-4, x0=400e-4))
        # side bump carries (0.01/0.2)^2 = 2.5e-3 of the peak intensity
        assert len(peak_positions(f, threshold=0.05)) == 1
        assert len(peak_positions(f, threshold=1e-5)) == 2

    def test_empty_for_dark_field(self):
        assert peak_positions(field_from(np.zeros((256, 256)))) == []


class TestIndexContrast:
    def test_zero_without_control(self):
        ctrl = ControlBeamSpec(G0=0.0)
        assert index_contrast(PARAMS, ctrl, 0.0, 0.2) == 0.0

    def test_reference_configuration_magnitude(self):
        ctrl = ControlBeamSpec()
        dn = index_contrast(PARAMS, ctrl, 0.0, 0.2)
        # order 1e-5 index modulation for the reference medium
        assert 1e-6 < dn < 1e-4

    def test_radial_extremum_sits_at_control_ring(self):
        ctrl = ControlBeamSpec()
        r = np.linspace(0.0, 0.03, 601)
        chi = radial_chi_map(PARAMS, ctrl, 0.0, 0.2, r, [PARAMS.delta_R])[0]
        r_extremum = r[np.argmax(np.abs(chi.real))]
        ring = ctrl.width_at(0.0) / np.sqrt(2.0)
        assert r_extremum == pytest.approx(ring, abs=5e-5)


def test_profile_distance_zero_for_identical_shapes():
    a = field_from(gaussian(40e-4))
    b = field_from(2.5 * gaussian(40e-4))
    assert normalized_profile_distance(a, b) < 1e-13
