import numpy as np
import pytest

from rbprop.params import (GridSpec, PhysicalParams, TransverseGrid,
                           prefactor_over_gamma)


def test_prefactor_vanishes_without_atoms():
    p = PhysicalParams(density=1.0)
    base = prefactor_over_gamma(p)
    assert prefactor_over_gamma(PhysicalParams(density=1e-300)) == \
        pytest.approx(base * 1e-300, rel=1e-12)


def test_prefactor_reference_value():
    # 3 N lambda^3 / (32 pi^3) evaluated by hand for the default medium:
    # N = 1e12, lambda = 794.98 nm -> 1.5191e-3 dimensionless scale
    p = PhysicalParams(density=1.0e12, wavelength=794.98e-7)
    assert prefactor_over_gamma(p) == pytest.approx(1.5191e-3, rel=1e-4)


def test_prefactor_doubles_with_density():
    p1 = PhysicalParams(density=1.0e12)
    p2 = PhysicalParams(density=2.0e12)
    assert prefactor_over_gamma(p2) == pytest.approx(
        2.0 * prefactor_over_gamma(p1), rel=1e-14)


def test_prefactor_scalings():
    # gamma cancels between |d|^2 and the 1/gamma of the scale
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.uniform(1e10, 1e14)
        lam = rng.uniform(4e-5, 1e-4)
        gam = rng.uniform(1e6, 1e8)
        base = prefactor_over_gamma(
            PhysicalParams(density=n, wavelength=lam, gamma=gam))
        assert prefactor_over_gamma(
            PhysicalParams(density=3 * n, wavelength=lam, gamma=gam)) \
            == pytest.approx(3 * base, rel=1e-12)
        assert prefactor_over_gamma(
            PhysicalParams(density=n, wavelength=lam, gamma=2 * gam)) \
            == base
        assert prefactor_over_gamma(
            PhysicalParams(density=n, wavelength=2 * lam, gamma=gam)) \
            == pytest.approx(8 * base, rel=1e-12)


def test_delta_c_derived():
    p = PhysicalParams(delta_p=-170.0, delta_R=-0.015)
    assert p.delta_c == pytest.approx(-169.985)


def test_grid_geometry_helpers():
    grid = GridSpec(TransverseGrid(nx=8, ny=8, extent=0.8), dz=0.1,
                    cell_length=1.0)
    x, y = grid.transverse.axes()
    assert grid.transverse.dx == pytest.approx(0.1)
    assert x[4] == 0.0 and x[0] == pytest.approx(-0.4)
    assert grid.n_steps == 10
