import gc
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbprop import susceptibility
from rbprop.beams import make_probe
from rbprop.config import parse_config
from rbprop.params import PhysicalParams, prefactor_over_gamma
from rbprop.susceptibility import (ChiTable, ChiTableError, FieldPoint,
                                   OracleConvergenceError, build_chi_table,
                                   chi_doppler_averaged, steady_state_oracle)

REF = PhysicalParams()  # reference medium used throughout
PREF = prefactor_over_gamma(REF)
PRESETS = Path(__file__).resolve().parent.parent / "presets"

# a wide-Doppler medium whose first sized table (703x505) misses a 1e-3
# target on the verification probes, so the build sizes it once more
RESIZED_MEDIUM = replace(REF, big_gamma=0.0038553, delta_p=-148.335,
                         delta_R=-0.0086980, doppler_width=141.12)
RESIZED_TOPS = (0.146044, 0.767364)


def same_bits(a, b):
    """Equal shapes and equal bits, -0.0 and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def draw_params(rng):
    g = rng.uniform(0.01, 2.0)
    G = rng.uniform(0.01, 2.0)
    big_gamma = rng.uniform(1e-4, 1e-2)
    delta_p = rng.uniform(-300.0, 300.0)
    delta_R = rng.uniform(-0.1, 0.1)
    return g, G, big_gamma, delta_p, delta_R


def at_rest(big_gamma, delta_p, delta_R):
    """The reference medium with these rates and no Doppler spread: the
    closed-form chi every run evaluates, for a vapor at rest, is
    ``chi_doppler_averaged`` with these parameters."""
    return replace(REF, big_gamma=big_gamma, delta_p=delta_p,
                   delta_R=delta_R, doppler_width=0.0)


class TestStationary:
    def test_zero_control_gives_zero_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g, _, bg, dp, dR = draw_params(rng)
            chi = chi_doppler_averaged(FieldPoint(g * g, 0.0),
                                       at_rest(bg, dp, dR))
            assert chi == 0.0

    def test_dark_state_gives_zero_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            g, G, _, dp, _ = draw_params(rng)
            chi = chi_doppler_averaged(FieldPoint(g * g, G * G),
                                       at_rest(0.0, dp, 0.0))
            assert abs(chi) < 1e-14

    def test_matches_oracle_on_reference_draw(self):
        # |G|=0.7, |g|=0.2, far-detuned probe, small Raman detuning
        pt = FieldPoint(0.04, 0.49)
        params = at_rest(1e-3, -170.0, -0.015)
        closed = chi_doppler_averaged(pt, params)
        ode = steady_state_oracle(pt, -170.0, params.delta_c, 1e-3, PREF)
        assert abs(closed - ode) / abs(ode) < 1e-6

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g, G, bg, dp, dR = draw_params(rng)
            pt = FieldPoint(g * g, G * G)
            closed = chi_doppler_averaged(pt, at_rest(bg, dp, dR))
            ode = steady_state_oracle(pt, dp, dp - dR, bg, PREF)
            assert abs(closed - ode) / abs(ode) < 1e-6

    def test_vectorized_matches_scalar(self):
        g2 = np.array([1e-4, 0.02, 0.3])
        G2 = np.array([0.3, 0.0, 1.2])
        params = at_rest(1e-3, -50.0, -0.1)
        vec = chi_doppler_averaged(FieldPoint(g2, G2), params)
        for i in range(3):
            assert vec[i] == pytest.approx(chi_doppler_averaged(
                FieldPoint(float(g2[i]), float(G2[i])), params), rel=1e-14)


class TestOracle:
    def test_requires_probe(self):
        with pytest.raises(ValueError):
            steady_state_oracle(FieldPoint(0.0, 1.0), -10.0, -10.0, 1e-3, PREF)

    @staticmethod
    def populations(g, G, big_gamma, delta_p, delta_c):
        """rho11, rho22 and rho33 at the fixed point the oracle solves for."""
        A, b = susceptibility._affine_generator(g, G, big_gamma, delta_p,
                                                delta_c)
        y = np.linalg.solve(A, -b)
        return np.array([y[0], y[1], 1.0 - y[0] - y[1]])

    def test_populations_physical(self):
        # the oracle reaches its fixed point (residual below 1e-12), and
        # that fixed point is a state: no population below 0
        steady_state_oracle(FieldPoint(0.04, 0.49), -170.0, -169.985, 1e-3,
                            PREF)
        pops = self.populations(0.2, 0.7, 1e-3, -170.0, -169.985)
        assert np.all(pops > -1e-12)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)

    def test_control_off_pumps_into_uncoupled_ground_state(self):
        # probe alone empties its own ground state; the coherence vanishes
        chi = steady_state_oracle(FieldPoint(0.25, 0.0), -3.0, -3.0, 1e-3,
                                  PREF)
        assert self.populations(0.5, 0.0, 1e-3, -3.0, -3.0)[2] == \
            pytest.approx(1.0, abs=1e-9)
        assert abs(chi) < 1e-9

    def test_growing_mode_has_no_steady_state(self):
        # a negative Raman decay makes one mode grow (Re eigenvalue +9.9e-4):
        # the equations of motion have no attracting fixed point to report,
        # and the refusal comes before any arithmetic that would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleConvergenceError, match="no attracting"):
                steady_state_oracle(FieldPoint(0.04, 0.25), -170.0, -169.985,
                                    -1e-3, PREF)


def trapezoid_average(g2, G2, params, n=2 ** 18):
    """Dense trapezoid of the stationary ratio over +-9 Doppler widths.

    Independent of the closed-form average: kv enters only through the
    shifted detunings of n0 / d0, the at-rest ratio the oracle tests pin
    down.
    """
    D = params.doppler_width
    kv = np.linspace(-9.0 * D, 9.0 * D, n + 1)
    pdf = np.exp(-kv**2 / (2.0 * D * D))
    n0, _, d0, _, _ = susceptibility._ratio_coefficients(
        g2, G2, params.delta_p - kv, params.delta_c - kv, params.big_gamma)
    vals = n0 / d0
    return (prefactor_over_gamma(params)
            * np.trapezoid(vals * pdf, kv) / np.trapezoid(pdf, kv))


# the oracle sweep's ranges, plus the shipped and alternative Doppler widths
medium = st.builds(
    lambda bg, dp, dR, D: PhysicalParams(big_gamma=bg, delta_p=dp,
                                         delta_R=dR, doppler_width=D),
    st.floats(1e-4, 1e-2), st.floats(-300.0, 300.0), st.floats(-0.1, 0.1),
    st.sampled_from([0.5, 70.0, 141.12]))
amplitude = st.floats(0.01, 2.0)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


class TestExactAverage:
    @PROPERTY
    @given(amplitude, amplitude, medium)
    def test_matches_dense_trapezoid(self, g, G, params):
        pt = FieldPoint(g * g, G * G)
        ref = trapezoid_average(pt.g_abs2, pt.G_abs2, params)
        got = chi_doppler_averaged(pt, params)
        assert abs(got - ref) / abs(ref) < 1e-8

    @PROPERTY
    @given(amplitude, medium)
    def test_zero_control_gives_zero_exactly(self, g, params):
        assert chi_doppler_averaged(FieldPoint(g * g, 0.0), params) == 0.0

    @PROPERTY
    @given(st.sampled_from([3.8e-172, 1e-300]), medium)
    def test_vanishing_control_without_probe_is_finite(self, G2, params):
        # the Gaussian tails of the control on a full grid reach 1e-172
        chi = chi_doppler_averaged(FieldPoint(0.0, G2), params)
        assert np.isfinite(chi)

    def test_vectorized_matches_scalar_across_blocks(self):
        rng = np.random.default_rng(3)
        g2 = rng.uniform(0.0, 0.4, 70_000)
        G2 = rng.uniform(0.0, 0.2, 70_000)
        G2[::7] = 0.0
        vec = chi_doppler_averaged(FieldPoint(g2, G2), REF)
        for i in (0, 7, 16_383, 16_384, 65_535, 65_536, 69_999):
            assert vec[i] == pytest.approx(chi_doppler_averaged(
                FieldPoint(float(g2[i]), float(G2[i])), REF), rel=1e-15)

    def test_average_into_out_gives_the_same_bits(self):
        rng = np.random.default_rng(5)
        g2 = rng.uniform(0.0, 0.4, (3, 50))
        G2 = rng.uniform(0.0, 0.2, (3, 50))
        out = np.full(G2.shape, np.nan, dtype=complex)
        got = chi_doppler_averaged(FieldPoint(g2, G2), REF, out=out)
        assert got is out
        assert same_bits(out, chi_doppler_averaged(FieldPoint(g2, G2), REF))

    def test_an_out_of_another_shape_is_refused(self):
        # the points broadcast to out, which would be filled and returned
        # (scalar points returned one complex of the four written)
        for point, out in ((FieldPoint(0.03, 0.1), np.zeros(4, complex)),
                           (FieldPoint(np.full(2, 0.03), np.full(2, 0.1)),
                            np.zeros((3, 2), complex))):
            with pytest.raises(ValueError, match="shape"):
                chi_doppler_averaged(point, REF, out=out)
            assert not out.any()

    def test_broadcast_inputs_give_the_meshgrid_bits(self, monkeypatch):
        # blocks of three rows, the last one partial (37 = 12 x 3 + 1); the
        # transposed inputs take four rows of 37 a block
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 160)
        G2 = np.geomspace(1e-6, 0.2, 37)
        G2[[0, 11]] = 0.0
        g2 = np.geomspace(1e-5, 0.4, 53)
        GG, gg = np.meshgrid(G2, g2, indexing="ij")
        expect = chi_doppler_averaged(FieldPoint(gg, GG), REF)
        for point in (FieldPoint(g2[None, :], G2[:, None]),
                      FieldPoint(g2, G2[:, None]),
                      FieldPoint(gg.T, GG.T)):
            got = chi_doppler_averaged(point, REF)
            if got.shape != expect.shape:
                got = got.T
            assert same_bits(got, expect)

    def test_zero_control_entries_are_zero_and_inputs_unchanged(
            self, monkeypatch):
        # 100 points in blocks of 7, the last one partial
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 7)
        rng = np.random.default_rng(5)
        g2 = rng.uniform(0.0, 0.4, 100)
        G2 = rng.uniform(0.0, 0.2, 100)
        G2[::3] = 0.0
        inputs = g2.copy(), G2.copy()
        chi = chi_doppler_averaged(FieldPoint(g2, G2), REF)
        assert np.all(chi[G2 == 0.0] == 0.0)
        assert np.all(chi[G2 != 0.0] != 0.0)
        assert np.array_equal(g2, inputs[0])
        assert np.array_equal(G2, inputs[1])

    def test_scalar_point_returns_complex(self, monkeypatch):
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 7)
        chi = chi_doppler_averaged(FieldPoint(np.float64(0.3), 0.01), REF)
        assert type(chi) is complex
        assert chi == complex(chi_doppler_averaged(
            FieldPoint(np.array([0.3]), np.array([0.01])), REF)[0])

    def test_dark_core_matches_dense_trapezoid(self):
        # |g|^2 ~ 0.4 in the dark vortex core at the shipped Raman detuning:
        # the light-shifted Raman resonance of atoms near kv = -196 gamma is
        # a feature a few gamma wide in the velocity integrand
        pt = FieldPoint(0.3969, 8.85e-7)
        for delta_R in (-0.1, REF.delta_R):
            params = replace(REF, delta_R=delta_R)
            ref = trapezoid_average(pt.g_abs2, pt.G_abs2, params)
            got = chi_doppler_averaged(pt, params)
            assert abs(got - ref) / abs(ref) < 1e-8

    def test_averaging_preserves_dark_state_zero(self):
        params = PhysicalParams(big_gamma=0.0, delta_R=0.0)
        chi = chi_doppler_averaged(FieldPoint(0.04, 0.5), params)
        assert abs(chi) < 1e-14


class TestFaddeeva:
    # Re z in +-[1e-6, 1e3] and 0, Im z in [1e-3, 1e3], log-spaced
    X, Y = np.meshgrid(
        np.concatenate((-np.geomspace(1e-6, 1e3, 300), [0.0],
                        np.geomspace(1e-6, 1e3, 300))),
        np.geomspace(1e-3, 1e3, 300))

    def test_matches_scipy_wofz(self):
        wofz = pytest.importorskip("scipy.special").wofz
        z = self.X + 1j * self.Y
        w = susceptibility._faddeeva(z)
        ref = wofz(z)
        assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-13
        # the average divides Re w by Im z, so Re w must hold on its own
        # wherever it is not negligible against |w|
        held = np.abs(ref.real) >= 1e-3 * np.abs(ref)
        assert np.max(np.abs(w.real - ref.real)[held]
                      / np.abs(ref.real)[held]) < 1e-10

    def test_imaginary_axis_is_real_erfcx(self):
        erfcx = pytest.importorskip("scipy.special").erfcx
        y = self.Y[:, 0]
        w = susceptibility._faddeeva(1j * y)
        assert np.all(w.imag == 0.0)
        assert np.max(np.abs(w.real - erfcx(y)) / erfcx(y)) < 1e-14
        assert susceptibility._faddeeva(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_guided_table_nodes_match_the_wofz_average(self, monkeypatch):
        # the 602x1332 nodes the guided preset's table evaluates
        wofz = pytest.importorskip("scipy.special").wofz
        cfg = parse_config(PRESETS / "guided_gaussian.ini")
        z_peak = np.clip(cfg.control.waist_position_z0, 0.0,
                         cfg.grid.cell_length)
        G2_top = cfg.control.peak_intensity(z_peak)
        probe = make_probe(cfg.probe, cfg.grid.transverse)
        g2_top = 12.0 * np.max(np.abs(probe.values) ** 2)
        GG, gg = np.meshgrid(log_axis(G2_top, 602), log_axis(g2_top, 1332),
                             indexing="ij")
        nodes = FieldPoint(gg, GG)
        got = chi_doppler_averaged(nodes, cfg.params)
        monkeypatch.setattr(susceptibility, "_faddeeva", wofz)
        ref = chi_doppler_averaged(nodes, cfg.params)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12


def log_axis(top, n):
    """The nodes of a ChiTable axis with this top and node count."""
    return np.geomspace(top * susceptibility.FLOOR_RATIO, top, n)


@pytest.fixture(scope="module")
def table():
    return build_chi_table(0.185, 0.06, REF, target_error=1e-3)


def probe_error(table, n_probes, seed):
    """Max relative lookup error on n_probes log-uniform probes over the
    node range, drawn with seed: a probe set independent of the build's."""
    rng = np.random.default_rng(seed)
    G2, g2 = (np.exp(rng.uniform(np.log(nodes[0]), np.log(nodes[-1]),
                                 n_probes))
              for nodes in (table._G2, table._g2))
    return table._relative_error(G2, g2)


def tile_midpoints(table):
    """The midpoints of each tile's first cell along each axis."""
    return tuple(np.sqrt(nodes[:-1:susceptibility.TILE]
                         * nodes[1::susceptibility.TILE])
                 for nodes in (table._G2, table._g2))


def every_tile(table):
    """The table, with every tile filled by one lookup at the midpoint of
    each tile's first cell."""
    G2, g2 = tile_midpoints(table)
    table(G2[:, None], g2)
    return table


def dense_nodes(table):
    """Every stored node as one (|G|^2, |g|^2) array of the store's dtype,
    read through its corner reader over every cell, which fills every tile:
    each cell's first corner, and an axis' last node as a far corner of its
    last cell."""
    iG, ig = np.meshgrid(*(np.arange(n - 1) for n in table.shape),
                         indexing="ij")
    corner = table._store.corners(iG, ig)
    first = corner(0, 0)
    h = np.empty(table.shape, dtype=first.dtype)
    h[:-1, :-1] = first
    h[-1, :-1] = corner(1, 0)[-1]
    h[:-1, -1] = corner(0, 1)[:, -1]
    h[-1, -1] = corner(1, 1)[-1, -1]
    return h


def stored_nodes(table):
    """The table's single-precision nodes, widened and rescaled: chi / |G|^2
    as the lookup reads it."""
    return dense_nodes(table).astype(complex) * table._scale


def meshgrid_nodes(table, params):
    """The table's nodes as one average over the meshgrid of its axes, for
    the medium thinned by its scale, rounded to single precision and then
    divided by |G|^2: the eager dense fill the tiles replace."""
    GG, gg = np.meshgrid(table._G2, table._g2, indexing="ij")
    thinned = replace(params, density=params.density / table._scale)
    nodes = chi_doppler_averaged(FieldPoint(gg, GG), thinned) \
        .astype(np.complex64)
    nodes /= table._G2[:, None]
    return nodes


def filled_tiles(table):
    return table._store.filled


def reference_bilinear(table, G_abs2, g_abs2, h=None):
    """The lookup's clamped bilinear formula applied to every query point,
    on the nodes h (by default the table's own, every tile filled)."""
    G2q = np.asarray(G_abs2, dtype=float)
    g2q = np.asarray(g_abs2, dtype=float)
    G2n, g2n = table._G2, table._g2
    if h is None:
        h = stored_nodes(table)
    Gc = np.clip(G2q, G2n[0], G2n[-1])
    gc = np.clip(g2q, g2n[0], g2n[-1])
    iG = np.clip(np.searchsorted(G2n, Gc) - 1, 0, G2n.size - 2)
    ig = np.clip(np.searchsorted(g2n, gc) - 1, 0, g2n.size - 2)
    G1, G2v = G2n[iG], G2n[iG + 1]
    g1, g2v = g2n[ig], g2n[ig + 1]
    tG = (Gc - G1) / (G2v - G1)
    tg = (gc - g1) / (g2v - g1)
    hq = (h[iG, ig] * (1 - tG) * (1 - tg)
          + h[iG + 1, ig] * tG * (1 - tg)
          + h[iG, ig + 1] * (1 - tG) * tg
          + h[iG + 1, ig + 1] * tG * tg)
    return np.where(G2q <= 0.0, 0.0 + 0.0j, G2q * hq)


def lookup_queries(table, n=400, seed=9):
    """(|G|^2, |g|^2) queries in every regime the lookup distinguishes."""
    rng = np.random.default_rng(seed)
    G2n, g2n = table._G2, table._g2
    top = 1.0 + table.OVERSHOOT

    def below(nodes):
        return nodes[0] * rng.uniform(0.0, 1.0, n)

    def inside(nodes):
        return np.exp(rng.uniform(np.log(nodes[0]), np.log(nodes[-1]), n))

    def overshoot(nodes):
        return nodes[-1] * rng.uniform(1.0, top, n)

    pairs = [
        (below(G2n), below(g2n)),                          # both floors
        (below(G2n), inside(g2n)),                         # |G|^2 floor only
        (inside(G2n), below(g2n)),                         # |g|^2 floor only
        (inside(G2n), inside(g2n)),
        (rng.choice(G2n, n), rng.choice(g2n, n)),          # exactly at nodes
        (np.full(n, G2n[0]), np.full(n, g2n[0])),          # the corner node
        (overshoot(G2n), inside(g2n)),
        (inside(G2n), overshoot(g2n)),
        (overshoot(G2n), overshoot(g2n)),
        (np.zeros(n), inside(g2n)),                        # |G|^2 = 0
        (np.zeros(n), below(g2n)),
        (-below(G2n), inside(g2n)),                        # |G|^2 < 0 -> 0
    ]
    G2 = np.concatenate([p[0] for p in pairs])
    g2 = np.concatenate([p[1] for p in pairs])
    order = rng.permutation(G2.size)
    return G2[order], g2[order]


class TestChiTable:
    def test_lookup_equals_full_bilinear_bitwise(self, table):
        G2, g2 = lookup_queries(table)
        assert np.array_equal(table(G2, g2), reference_bilinear(table, G2, g2))
        G2, g2 = G2.reshape(48, -1), g2.reshape(48, -1)
        assert np.array_equal(table(G2, g2), reference_bilinear(table, G2, g2))
        # an axis grid, broadcast
        G2, g2 = G2[:, :1], g2[:1, :]
        got = table(G2, g2)
        assert got.shape == (48, 100)
        assert np.array_equal(got, reference_bilinear(table, G2, g2))

    def test_lookup_into_out_gives_the_same_bits(self, table):
        G2, g2 = lookup_queries(table)
        out = np.full(G2.shape, np.nan, dtype=complex)
        got = table(G2, g2, out=out)
        assert np.shares_memory(got, out)
        assert same_bits(out, table(G2, g2))

    def test_an_out_that_is_not_c_contiguous_is_refused(self, table):
        # the average and the lookup write through a flat view of out, which
        # a strided array cannot give: it would be returned unwritten
        G2, g2 = np.full((4, 2), 0.1), np.full((4, 2), 0.03)
        for fill in (lambda out: chi_doppler_averaged(FieldPoint(g2, G2),
                                                      REF, out=out),
                     lambda out: table(G2, g2, out=out)):
            out = np.zeros((8, 2), dtype=complex)[::2]
            with pytest.raises(ValueError, match="C-contiguous"):
                fill(out)
            assert not out.any()

    def test_an_out_of_another_shape_is_refused(self, table):
        # (4,) queries were written into a (2, 2) out and returned reshaped
        # to (4,); a scalar query wrote all four elements of a (4,) out
        # before an IndexError
        for G2, out in ((np.full(4, 0.1), np.zeros((2, 2), complex)),
                        (0.1, np.zeros(4, complex))):
            with pytest.raises(ValueError, match="queries' broadcast shape"):
                table(G2, 0.03, out=out)
            assert not out.any()

    def test_scalar_queries_return_complex(self, table):
        G2, g2 = lookup_queries(table, n=3, seed=4)
        for Gq, gq in zip(G2, g2):
            got = table(float(Gq), float(gq))
            assert type(got) is complex
            assert got == complex(reference_bilinear(table, Gq, gq))

    def test_exact_at_sample_point(self, table):
        G2 = table._G2[17]
        g2 = table._g2[3]
        assert table(G2, g2) == pytest.approx(
            complex(stored_nodes(table)[17, 3] * G2), rel=1e-14)

    def test_zero_control_row(self, table):
        g2s = np.linspace(0.0, 0.06, 7)
        np.testing.assert_array_equal(table(np.zeros_like(g2s), g2s), 0.0)

    def test_random_queries_meet_target(self, table):
        assert probe_error(table, 300, 123) < 1e-3
        # the build verifies on 1000 probes drawn with seed 0
        assert table.max_relative_error() == probe_error(table, 1000, 0)

    def test_rejects_out_of_range(self, table):
        assert table.G_abs2_max == 0.185
        with pytest.raises(ValueError):
            table(table.G_abs2_max * 1.2, 0.01)
        with pytest.raises(ValueError):
            table(0.1, table.g_abs2_max * 1.2)
        with pytest.raises(ValueError):
            table(np.array([0.0, 0.1]), np.array([0.0, table.g_abs2_max * 1.2]))

    @pytest.mark.parametrize("target", [0.0, -1e-4, np.nan])
    def test_target_error_must_be_positive(self, target):
        with pytest.raises(ValueError, match="target_error = .* must be "
                           "positive"):
            build_chi_table(0.185, 0.06, REF, target_error=target)

    def test_node_cap_holds_after_an_equal_range_build(self, monkeypatch):
        # 16 nodes per axis cannot reach the target over this range
        monkeypatch.setattr(susceptibility, "MAX_NODES", 16)
        with pytest.raises(ChiTableError, match="16x16 table"):
            build_chi_table(0.185, 0.06, REF, target_error=1e-3)

    def test_zero_control_top_is_refused(self):
        # a control-off run builds no table; one with a zero |G|^2 range is
        # refused rather than read as identically zero
        with pytest.raises(ChiTableError, match=r"table tops \|G\|\^2 = 0 "
                           r"and \|g\|\^2 = 0\.05 must be finite, with "
                           r"\|G\|\^2 above 0"):
            build_chi_table(0.0, 0.05, REF)

    # narrow and wide Doppler widths and a far-detuned probe, each at a
    # tight and a loose target
    @pytest.mark.parametrize("target", [1e-3, 1e-2])
    @pytest.mark.parametrize("medium", [dict(doppler_width=0.5),
                                        dict(doppler_width=141.12),
                                        dict(delta_p=-290.0)],
                             ids=("D0.5", "D141.12", "dp-290"))
    def test_builds_off_the_reference_medium_meet_target(self, medium,
                                                         target):
        table = build_chi_table(0.185, 0.06, replace(REF, **medium),
                                target_error=target)
        assert probe_error(table, 1000, 99) < target

    def test_a_table_that_misses_its_target_is_sized_once_more(self):
        # the pilot sizes this wide-Doppler medium to 703x505, whose error
        # on the verification probes is 1.04e-3; sized again from its own
        # midpoint errors, the table meets the target
        table = build_chi_table(*RESIZED_TOPS, RESIZED_MEDIUM,
                                target_error=1e-3)
        assert table.shape[0] > 703 and table.shape[1] > 505
        assert table.max_relative_error() < 1e-3
        assert probe_error(table, 1000, 99) < 1e-3

    def test_table_is_the_meshgrid_average_over_G2(self, monkeypatch):
        # 37 x 53 nodes in blocks of three rows, the last one partial; the
        # fill averages for the medium thinned by the table's scale and
        # rounds to single precision before it divides by |G|^2
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 160)
        table = ChiTable(0.185, 0.06, (37, 53), REF)
        assert same_bits(dense_nodes(table), meshgrid_nodes(table, REF))

    @pytest.mark.parametrize("density", [REF.density, 1.0e300])
    def test_nodes_are_the_double_precision_average_to_2e_7(
            self, monkeypatch, density):
        # the scale acts before any value is single precision, so even a
        # medium whose chi is ~1e285 fills a table of finite nodes
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 160)
        medium = replace(REF, density=density)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = every_tile(ChiTable(0.185, 0.06, (37, 53), medium))
        assert np.all(np.isfinite(dense_nodes(table)))
        GG, gg = np.meshgrid(table._G2, table._g2, indexing="ij")
        expect = chi_doppler_averaged(FieldPoint(gg, GG), medium) \
            / table._G2[:, None]
        assert np.max(np.abs(stored_nodes(table) - expect)
                      / np.abs(expect)) < 2e-7

    @pytest.mark.parametrize("axis", [0, 1])
    def test_blocked_midpoint_error_is_the_full_lattice_max(self, monkeypatch,
                                                            axis):
        # three rows of midpoints per block: 36 rows fill twelve blocks,
        # 37 leave a partial one
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 160)
        table = ChiTable(0.185, 0.06, (37, 53), REF)
        G2, g2 = table._G2, table._g2
        if axis == 0:
            G2 = np.sqrt(G2[:-1] * G2[1:])
        else:
            g2 = np.sqrt(g2[:-1] * g2[1:])
        GG, gg = np.meshgrid(G2, g2, indexing="ij")
        assert table._midpoint_errors()[axis] \
            == table._relative_error(GG, gg)

    @pytest.mark.parametrize("tops", [(np.inf, 0.06), (0.185, np.inf),
                                      (np.nan, 0.06), (0.185, np.nan)])
    def test_non_finite_top_is_refused(self, tops):
        with pytest.raises(ChiTableError,
                           match=r"\|G\|\^2 = .* and \|g\|\^2 = "):
            build_chi_table(*tops, REF)


def axis_queries(nodes):
    """Each node, its floating-point neighbours, each cell's arithmetic and
    geometric midpoints, and both ends."""
    return np.concatenate([
        nodes,
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
        0.5 * (nodes[:-1] + nodes[1:]),
        np.sqrt(nodes[:-1] * nodes[1:]),
        [nodes[0], nodes[-1]],
    ])


class TestLogCells:
    # the guided preset's axes and a two-node axis just above zero
    AXES = ((0.0481, 602), (0.48, 1332), (2.0e-300, 2))

    @pytest.mark.parametrize("top, n", AXES, ids=("602", "1332", "zero"))
    def test_each_cell_brackets_its_query(self, top, n):
        nodes = log_axis(top, n)
        # the lookup clamps its queries to the node range first
        q = np.clip(axis_queries(nodes), nodes[0], nodes[-1])
        cells = susceptibility._log_cells(q, nodes)
        assert np.all((cells >= 0) & (cells <= n - 2))
        ulps = 4 * np.spacing(q)
        assert np.all(nodes[cells] - ulps <= q)
        assert np.all(q <= nodes[cells + 1] + ulps)
        assert susceptibility._log_cells(np.array([np.nan]), nodes)[0] \
            == n - 2

    def test_lookups_match_the_binary_search_cells(self):
        # a query off its binary-search cell by roundoff reads the
        # neighbouring cell's formula, within roundoff of the same value
        table = ChiTable(0.0481, 0.48, (602, 1332), REF)  # AXES[:2]
        Gq, gq = axis_queries(table._G2), axis_queries(table._g2)
        for G2, g2 in ((np.resize(Gq, gq.size), gq),
                       (Gq, np.resize(gq[::-1], Gq.size))):
            np.testing.assert_allclose(table(G2, g2),
                                       reference_bilinear(table, G2, g2),
                                       rtol=1e-15, atol=0.0)
        # on a node either cell gives the node's value exactly
        G2 = np.resize(table._G2, table._g2.size)
        assert np.array_equal(table(G2, table._g2),
                              reference_bilinear(table, G2, table._g2))


class TestTiles:
    # 74 x 100 cells: 3 x 4 tiles, the last one of each axis partial
    SHAPE = (75, 101)

    def test_lazy_lookups_equal_the_dense_table_bitwise(self, monkeypatch):
        # each tile averaged in blocks of four node rows, the last one
        # partial; the queries reach every cell, each node (tile edges
        # included), every floor regime and NaN, over three lookups, so the
        # pool grows between them
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 4 * 33)
        table = ChiTable(0.185, 0.06, self.SHAPE, REF)
        h = meshgrid_nodes(table, REF).astype(complex) * table._scale
        mid = [np.sqrt(n[:-1] * n[1:]) for n in (table._G2, table._g2)]
        G2, g2 = lookup_queries(table, n=100)
        G2 = np.concatenate((G2, table._G2, np.repeat(mid[0], mid[1].size),
                             [np.nan, 0.1, np.nan]))
        g2 = np.concatenate((g2, np.resize(table._g2, table._G2.size),
                             np.tile(mid[1], mid[0].size),
                             [0.01, np.nan, np.nan]))
        thirds = zip(np.array_split(G2, 3), np.array_split(g2, 3))
        got = np.concatenate([table(G, g) for G, g in thirds])
        assert filled_tiles(table) == 12
        assert np.array_equal(got, reference_bilinear(table, G2, g2, h),
                              equal_nan=True)
        assert np.isnan(got[-3:]).all()

    def test_a_fresh_guided_size_table_holds_no_tile(self):
        table = ChiTable(0.0481, 0.48, (602, 1332), REF)
        assert table._store.nbytes == 0 and filled_tiles(table) == 0

    def test_row_0_is_the_stored_row_0_bitwise(self):
        # the shortcut and the inert cut read row 0 off its own vector,
        # which must hold the nodes a lookup of row 0 reads
        table = ChiTable(0.185, 0.06, self.SHAPE, REF)
        assert same_bits(table._row0, dense_nodes(table)[0])

    def test_repeated_lookups_average_no_tile_twice(self, monkeypatch):
        # the first row of tiles, then every tile, each looked up twice
        table = ChiTable(0.185, 0.06, self.SHAPE, REF)
        points = []
        average = susceptibility.chi_doppler_averaged

        def counted(point, params, out=None):
            points.append(np.broadcast(point.g_abs2, point.G_abs2).size)
            return average(point, params, out=out)

        monkeypatch.setattr(susceptibility, "chi_doppler_averaged", counted)
        G2, g2 = tile_midpoints(table)
        for G, tiles in ((G2[:1], 4), (G2[:1], 4), (G2, 12), (G2, 12)):
            table(G[:, None], g2)
            assert filled_tiles(table) == tiles
            assert sum(points) == 33 ** 2 * tiles
        assert len(points) == 2

    @pytest.mark.parametrize("shape", [SHAPE, (300, 200)],
                             ids=("12-tiles", "70-tiles"))
    def test_filling_tile_by_tile_grows_by_doubling(self, shape):
        # one lookup a tile: at most ceil(log2 tiles) + 1 reallocations,
        # each to a larger pool, and never more slots than tiles
        table = ChiTable(0.185, 0.06, shape, REF)
        G2, g2 = tile_midpoints(table)
        sizes = [table._store.nbytes]
        for G in G2:
            for g in g2:
                table(G, g)
                sizes.append(table._store.nbytes)
        tiles = G2.size * g2.size
        assert filled_tiles(table) == tiles
        assert np.count_nonzero(np.diff(sizes)) \
            <= np.ceil(np.log2(tiles)) + 1
        assert max(sizes) <= 8 * (susceptibility.TILE + 1) ** 2 * tiles

    def test_the_partial_last_tiles_read_the_clipped_nodes(self):
        # the last tile of each axis spans nodes 64-96 of 75 and 96-128 of
        # 101: indices past an axis' end read its last node, and the last
        # cell's far corner is the last node
        table = ChiTable(0.185, 0.06, self.SHAPE, REF)
        rows, cols = np.arange(64, 97)[:, None], np.arange(96, 129)
        tile = table._nodes(rows, cols, np.empty((33, 33), np.complex64))
        inside = table._nodes(rows[:11], cols[:5],
                              np.empty((11, 5), np.complex64))
        assert same_bits(tile[:11, :5], inside)
        assert same_bits(tile[10:], np.repeat(tile[10:11], 23, axis=0))
        assert same_bits(tile[:, 4:], np.repeat(tile[:, 4:5], 29, axis=1))
        corner = table._store.corners(np.array([73]), np.array([99]))
        assert same_bits(corner(1, 1), tile[10:11, 4])
        assert filled_tiles(table) == 1

    def test_the_verification_fills_no_tile(self):
        # the 1000 probes fall in ~71% of the guided-size table's tiles
        table = ChiTable(0.0481, 0.48, (602, 1332), REF)
        err = table.max_relative_error()
        assert filled_tiles(table) == 0
        dense = every_tile(ChiTable(0.0481, 0.48, (602, 1332), REF))
        assert filled_tiles(dense) == 19 * 42
        assert err == probe_error(dense, 1000, 0)


class TestInertCut:
    @pytest.mark.parametrize("tops, shape, medium", [
        ((0.0481, 0.48), (602, 1332), REF),                 # guided size
        (RESIZED_TOPS, (746, 648), RESIZED_MEDIUM)])        # wide Doppler
    def test_lookups_at_or_below_the_cut_are_inert(self, tops, shape,
                                                   medium):
        table = ChiTable(*tops, shape, medium)
        top = table.g_abs2_max * (1 + table.OVERSHOOT)
        # 0, a subnormal, every node of row 0 (where its largest value is
        # read exactly) and a log sweep through and past the nodes up to
        # the highest |g|^2 the table accepts
        g2 = np.concatenate(([0.0, 5e-324], table._g2,
                             np.geomspace(1e-12 * top, top, 4001)))
        # the skip bound of a 50 um sub-step, and one the |G|^2 floor caps
        step = np.finfo(float).eps / 4 / (2 * np.pi * medium.wavenumber
                                          * 0.005)
        for chi_max in (step, 1e20 * step):
            cut = table.inert_G2(chi_max)
            G2 = np.array([0.0, 5e-324, cut / 2, cut])
            chi = np.abs(table(G2[:, None], g2))
            # the cut keeps half the bound for roundoff and, below the
            # floor, reaches that half at its largest row-0 node
            assert chi.max() <= 0.5 * chi_max * (1 + 1e-6)
            if chi_max == step:
                assert 0.0 < cut < table._G2[0]
                assert chi.max() > 0.49 * chi_max
            else:
                assert cut == table._G2[0]
            # NaN is never at or below a cut: a NaN |G|^2 looks up NaN,
            # and so does a NaN |g|^2 above |G|^2 = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(table(np.nan, g2)).all()
                nan = table(G2, np.nan)
            assert nan[0] == 0.0 and np.isnan(nan[1:]).all()
        # the slope is computed once, from row 0, and fills no tile
        fresh = ChiTable(*tops, shape, medium)
        assert fresh.inert_G2(step) == table.inert_G2(step)
        assert filled_tiles(fresh) == 0


class TestNanLookups:
    def test_nan_queries_return_nan_without_warning(self, table):
        G2, g2 = lookup_queries(table, n=5, seed=11)
        G2 = G2.copy()
        g2 = g2.copy()
        G2[::7] = np.nan
        g2[3::7] = np.nan
        nan = np.isnan(G2) | np.isnan(g2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(table(np.nan, 0.01))
            assert np.isnan(table(0.1, np.nan))
            assert np.isnan(table(np.nan, np.nan))
            got = table(G2, g2)
        # |G|^2 <= 0 gives exactly 0 even beside a NaN |g|^2
        dark = G2 <= 0.0
        assert np.any(nan & dark)
        assert np.all(got[nan & dark] == 0.0)
        assert np.all(np.isnan(got[nan & ~dark]))
        assert np.array_equal(got[~nan],
                              reference_bilinear(table, G2[~nan], g2[~nan]))


def traced_peak(build):
    """build()'s result and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestTableMemory:
    # tracemalloc sees numpy's array buffers, so these bound what a table
    # build allocates beyond the table itself

    def test_a_guided_size_table_holds_8_bytes_a_node(self):
        # 19 x 42 tiles of 33 x 33 nodes, once every tile is filled
        table = every_tile(ChiTable(0.0481, 0.48, (602, 1332), REF))
        cell = np.zeros(1, dtype=np.intp)
        assert table._store.corners(cell, cell)(0, 0).dtype == np.complex64
        assert table._store.nbytes == 8 * 19 * 42 * 33 ** 2

    def test_a_build_holds_its_table_and_one_block(self, monkeypatch):
        monkeypatch.setattr(susceptibility, "AVERAGE_BLOCK", 4096)
        table, peak = traced_peak(
            lambda: every_tile(ChiTable(0.0481, 0.48, (400, 1000), REF)))
        # one block's work is ~200 bytes a point; the filled pool is 3.6 MB
        assert peak - table._store.nbytes \
            < 300 * susceptibility.AVERAGE_BLOCK

    def test_a_released_table_is_freed_at_once(self):
        # its store holds the node routine weakly: no reference cycle keeps
        # a filled pool alive until the cyclic collector runs, so the build
        # frees each table it sizes from before it makes the next
        table = every_tile(ChiTable(0.185, 0.06, TestTiles.SHAPE, REF))
        released = weakref.ref(table)
        gc.disable()
        try:
            del table
            assert released() is None
        finally:
            gc.enable()

    def test_a_resized_build_peaks_below_three_tables(self):
        # three dense single-precision tables of the final shape; the final
        # table itself holds one tile once built
        table, peak = traced_peak(lambda: build_chi_table(
            *RESIZED_TOPS, RESIZED_MEDIUM, target_error=1e-3))
        assert table.shape[0] > 703 and table.shape[1] > 505
        assert peak < 3 * 8 * table.shape[0] * table.shape[1]
