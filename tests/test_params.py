import numpy as np
import pytest

from rbprop.params import (GridSpec, PhysicalParams, dipole_prefactor,
                           doppler_width_from_temperature,
                           prefactor_over_gamma)


def test_prefactor_vanishes_without_atoms():
    p = PhysicalParams(density=1.0)
    base = dipole_prefactor(p)
    assert dipole_prefactor(PhysicalParams(density=1e-300)) == pytest.approx(
        base * 1e-300, rel=1e-12)


def test_prefactor_reference_value():
    # 3 N lambda^3 / (32 pi^3) evaluated by hand for the default medium:
    # N = 1e12, lambda = 794.98 nm -> 1.5191e-3 dimensionless scale
    p = PhysicalParams(density=1.0e12, wavelength=794.98e-7)
    assert prefactor_over_gamma(p) == pytest.approx(1.5191e-3, rel=1e-4)


def test_prefactor_doubles_with_density():
    p1 = PhysicalParams(density=1.0e12)
    p2 = PhysicalParams(density=2.0e12)
    assert dipole_prefactor(p2) == pytest.approx(2.0 * dipole_prefactor(p1),
                                                 rel=1e-14)


def test_prefactor_scalings():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.uniform(1e10, 1e14)
        lam = rng.uniform(4e-5, 1e-4)
        gam = rng.uniform(1e6, 1e8)
        base = dipole_prefactor(PhysicalParams(density=n, wavelength=lam, gamma=gam))
        assert dipole_prefactor(
            PhysicalParams(density=3 * n, wavelength=lam, gamma=gam)) \
            == pytest.approx(3 * base, rel=1e-12)
        assert dipole_prefactor(
            PhysicalParams(density=n, wavelength=lam, gamma=2 * gam)) \
            == pytest.approx(2 * base, rel=1e-12)
        assert dipole_prefactor(
            PhysicalParams(density=n, wavelength=2 * lam, gamma=gam)) \
            == pytest.approx(8 * base, rel=1e-12)


def test_delta_c_derived():
    p = PhysicalParams(delta_p=-170.0, delta_R=-0.015)
    assert p.delta_c == pytest.approx(-169.985)


def test_validate_accepts_reference_configuration():
    # G0=1, wc=120um live in the control spec; the medium set here is the
    # reference one used throughout the test suite
    p = PhysicalParams(big_gamma=1e-3, delta_p=-170.0, delta_R=-0.015,
                       doppler_width=70.0, density=1e12)
    assert p.violations() == []
    assert GridSpec().violations(narrowest_feature=48e-4) == []


def test_validate_rejects_zero_gamma():
    violations = PhysicalParams(gamma=0.0).violations()
    assert any("gamma must be positive" in v for v in violations)


def test_validate_rejects_non_power_of_two():
    violations = GridSpec(nx=300).violations()
    assert any("power of two" in v for v in violations)


def test_validate_reports_all_violations_not_just_first():
    violations = (PhysicalParams(gamma=-1.0, density=0.0).violations()
                  + GridSpec(nx=300, extent=-1.0).violations())
    text = "\n".join(violations)
    assert len(violations) >= 4
    assert "gamma" in text and "density" in text
    assert "nx" in text and "extent" in text


def test_validate_grid_resolution_against_feature():
    grid = GridSpec(nx=64, ny=64, extent=0.24)  # dx = 37.5 um
    violations = grid.violations(narrowest_feature=48e-4)
    assert any("8" in v for v in violations)
    assert (PhysicalParams().violations()
            + grid.violations(narrowest_feature=200e-4)) == []


def test_grid_geometry_helpers():
    grid = GridSpec(nx=8, ny=8, extent=0.8, dz=0.1, cell_length=1.0)
    x, y = grid.axes()
    assert grid.dx == pytest.approx(0.1)
    assert x[4] == 0.0 and x[0] == pytest.approx(-0.4)
    assert grid.n_steps == 10


def test_doppler_width_scales_with_sqrt_temperature():
    d1 = doppler_width_from_temperature(300.0, 1.4e-22, 2.4e15)
    d2 = doppler_width_from_temperature(1200.0, 1.4e-22, 2.4e15)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)
    assert d1 > 0
