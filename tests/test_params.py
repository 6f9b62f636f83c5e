import numpy as np
import pytest

from rbprop.params import (GridSpec, PhysicalParams, TransverseGrid,
                           dipole_prefactor, prefactor_over_gamma)


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
    # the reference grid of the test suite resolves the 48 um probe
    assert GridSpec().violations(narrowest_feature=48e-4) == []


def test_validate_rejects_non_power_of_two():
    violations = GridSpec(TransverseGrid(nx=300)).violations()
    assert violations == ["nx must be a power of two, got 300"]


def test_validate_grid_resolution_against_feature():
    grid = TransverseGrid(nx=64, ny=64, extent=0.24)  # dx = 37.5 um
    violations = grid.violations(narrowest_feature=48e-4)
    assert any("8" in v for v in violations)
    assert grid.violations(narrowest_feature=200e-4) == []


def test_grid_geometry_helpers():
    grid = GridSpec(TransverseGrid(nx=8, ny=8, extent=0.8), dz=0.1,
                    cell_length=1.0)
    x, y = grid.transverse.axes()
    assert grid.transverse.dx == pytest.approx(0.1)
    assert x[4] == 0.0 and x[0] == pytest.approx(-0.4)
    assert grid.n_steps == 10
