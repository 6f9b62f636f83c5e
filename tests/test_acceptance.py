"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Heavy propagation runs are shared through session fixtures.  Every tolerance
is asserted exactly as stated; tests that fail here fail because the model,
implemented faithfully, does not reproduce the corresponding reference value,
not because a tolerance was relaxed.  Each assertion message carries the
measured number; the README's acceptance section summarises the physics
behind the known misses.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbprop.analysis import (beam_width, normalized_profile_distance,
                             peak_positions, transmission, index_contrast)
from rbprop.beams import ControlBeamSpec, ProbeSpec, control_field, make_probe
from rbprop.cli import main
from rbprop.params import (GridSpec, PhysicalParams, TransverseGrid,
                           prefactor_over_gamma)
from rbprop.solver import ComplexField2D, StepPlan, diffraction_step, propagate
from rbprop.susceptibility import (FieldPoint, build_chi_table,
                                   chi_doppler_averaged, chi_stationary,
                                   steady_state_oracle)

PRESETS = Path(__file__).resolve().parent.parent / "presets"

PARAMS = PhysicalParams()  # reference medium of the shipped presets
PREF = prefactor_over_gamma(PARAMS)
CONTROL = ControlBeamSpec(G0=1.0, waist_wc=120e-4, waist_position_z0=5.0)
WP = 48e-4


def ignore(step, snap):
    """An ``on_snapshot`` for a run whose end field alone is measured."""


def report(criterion: str, ok: bool, detail: str):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def free_space_run():
    grid = GridSpec()
    probe = make_probe(ProbeSpec(), grid.transverse)
    plan = StepPlan(grid, order=2)
    t0 = time.time()
    end = propagate(probe, ControlBeamSpec(G0=0.0), PARAMS, grid, plan,
                    on_snapshot=ignore, snapshot_every=10**9)
    return probe, end, time.time() - t0


@pytest.fixture(scope="session")
def guided_run():
    grid = GridSpec()
    probe = make_probe(ProbeSpec(), grid.transverse)
    plan = StepPlan(grid, order=2)
    end = propagate(probe, CONTROL, PARAMS, grid, plan,
                    on_snapshot=ignore, snapshot_every=10**9)
    return probe, end


@pytest.fixture(scope="session")
def shape_runs():
    """Double-Gaussian and sech multi-peak runs at 2.5 cm, G0 = 0.75."""
    L = 2.5
    out = {}

    def run(spec, grid, wc, control_on):
        ctrl = ControlBeamSpec(G0=0.75 if control_on else 0.0, waist_wc=wc,
                               waist_position_z0=L)
        probe = make_probe(spec, grid.transverse)
        plan = StepPlan(grid, order=2)
        end = propagate(probe, ctrl, PARAMS, grid, plan,
                        on_snapshot=ignore, snapshot_every=10**9)
        return probe, end

    dg = ProbeSpec(kind="double_gaussian", g0=0.2, width=WP,
                   centers=(-70e-4, 70e-4))
    g128 = GridSpec(TransverseGrid(128, 128, 0.12), dz=50e-4, cell_length=L)
    out["dg_in"], out["dg_off"] = run(dg, g128, 100e-4, False)
    _, out["dg_100"] = run(dg, g128, 100e-4, True)
    _, out["dg_200"] = run(dg, g128, 200e-4, True)

    sech = ProbeSpec(kind="sech_multi", g0=0.2, width=35e-4,
                     centers=(-120e-4, 0.0, 120e-4))
    g256 = GridSpec(TransverseGrid(256, 256, 0.12), dz=50e-4, cell_length=L)
    out["sech_in"], out["sech_off"] = run(sech, g256, 200e-4, False)
    _, out["sech_200"] = run(sech, g256, 200e-4, True)
    return out


@pytest.fixture(scope="session")
def convergence_orders():
    """Observed split-step orders via Richardson step halving."""
    L = 5.0

    def final(dz, order):
        grid = GridSpec(TransverseGrid(128, 128, 0.12), dz=dz, cell_length=L)
        probe = make_probe(ProbeSpec(), grid.transverse)
        plan = StepPlan(grid, order=order)
        end = propagate(probe, CONTROL, PARAMS, grid, plan,
                        on_snapshot=ignore, snapshot_every=10**9)
        return end.values

    def observed(order, dzs):
        u = [final(dz, order) for dz in dzs]
        e1 = np.linalg.norm(u[0] - u[1]) / np.linalg.norm(u[1])
        e2 = np.linalg.norm(u[1] - u[2]) / np.linalg.norm(u[2])
        return float(np.log2(e1 / e2)), e1, e2

    # step triplets sit where the splitting error dominates the (C0)
    # interpolation-table floor of ~1e-4 relative
    strang = observed(2, (200e-4, 100e-4, 50e-4))
    jump = observed(4, (500e-4, 250e-4, 125e-4))
    return {"strang": strang, "order4": jump}


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        g = rng.uniform(0.01, 2.0)
        G = rng.uniform(0.01, 2.0)
        bg = rng.uniform(1e-4, 1e-2)
        dp = rng.uniform(-300.0, 300.0)
        dR = rng.uniform(-0.1, 0.1)
        pt = FieldPoint(g * g, G * G)
        closed = chi_stationary(pt, dp, dp - dR, bg, PREF)
        ode = steady_state_oracle(pt, dp, dp - dR, bg, PREF)
        worst = max(worst, abs(closed - ode) / abs(ode))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    assert report("1 (oracle equivalence)", ok,
                  f"max rel err {worst:.2e} over 100 draws in {elapsed:.1f}s")


def test_criterion_2_structural_zeros():
    rng = np.random.default_rng(43)
    worst_nc = 0.0
    worst_dark = 0.0
    for _ in range(1000):
        g = rng.uniform(0.0, 2.0)
        G = rng.uniform(0.01, 2.0)
        bg = rng.uniform(1e-4, 1e-2)
        dp = rng.uniform(-300.0, 300.0)
        dR = rng.uniform(-0.1, 0.1)
        worst_nc = max(worst_nc, abs(chi_stationary(
            FieldPoint(g * g, 0.0), dp, dp - dR, bg, PREF)))
        worst_dark = max(worst_dark, abs(chi_stationary(
            FieldPoint(g * g, G * G), dp, dp, 0.0, PREF)))
    ok = worst_nc < 1e-14 and worst_dark < 1e-14
    assert report("2 (dark-state and no-control zeros)", ok,
                  f"|chi| <= {max(worst_nc, worst_dark):.1e} over 1000 draws each")


def test_criterion_3_free_space_spreading(free_space_run):
    probe, out, elapsed = free_space_run
    ratio = beam_width(out) / WP
    ok = abs(ratio - 5.64) <= 0.06 and elapsed < 60.0
    assert report("3 (free-space spreading)", ok,
                  f"width ratio {ratio:.4f} (5.64 +- 0.06) in {elapsed:.0f}s")


def test_criterion_4_control_ring_geometry():
    r = np.linspace(0.0, 0.03, 300001)
    amp = np.abs(control_field(CONTROL, r, 0.0, 0.0))
    ring = r[np.argmax(amp)] * 1e4
    ok = abs(ring - 115.0) <= 3.0
    assert report("4 (entry-plane ring radius)", ok,
                  f"ring at {ring:.2f} um (115 +- 3)")


def test_criterion_5_guided_width(guided_run):
    probe, out = guided_run
    width = beam_width(out) * 1e4
    ok = abs(width - 37.0) <= 8.0 and width < WP * 1e4
    assert report("5a (guided output width)", ok,
                  f"width {width:.1f} um (37 +- 8, below the 48 um input)")


def test_criterion_5_guided_transmission(guided_run):
    probe, out = guided_run
    t = transmission(probe, out)
    ok = abs(t - 0.44) <= 0.08
    assert report("5b (guided transmission)", ok,
                  f"T = {t:.3f} (0.44 +- 0.08)")


def test_criterion_6_absorption_minimum():
    ring = CONTROL.ring_radius(0.0)
    G2 = float(np.abs(control_field(CONTROL, ring, 0.0, 0.0)) ** 2)
    scan = np.linspace(-0.1, 0.05, 301)
    im = np.empty_like(scan)
    for i, d in enumerate(scan):
        im[i] = chi_doppler_averaged(FieldPoint(0.04, G2),
                                     replace(PARAMS, delta_R=float(d))).imag
    loc = float(scan[np.argmin(im)])
    ok = abs(loc - (-0.02)) <= 0.005
    assert report("6 (Raman absorption minimum)", ok,
                  f"Im<chi> minimum at delta_R = {loc:+.4f} (-0.02 +- 0.005)")


def test_criterion_7_index_contrast():
    dn = index_contrast(PARAMS, CONTROL, 0.0, 0.2)
    ok = 3e-6 <= dn <= 3e-5
    assert report("7 (index contrast)", ok,
                  f"delta-n = {dn:.3e} (3e-6 .. 3e-5)")


def test_criterion_8_shape_preservation(shape_runs):
    r = shape_runs
    pk = {k: peak_positions(v) for k, v in r.items()}
    n_dg_in = len(pk["dg_in"])
    n_sech_in = len(pk["sech_in"])
    counts_ok = (len(pk["dg_100"]) == n_dg_in
                 and len(pk["dg_200"]) == n_dg_in
                 and len(pk["sech_200"]) == n_sech_in)

    dist = {k: normalized_profile_distance(r[k], r[base])
            for k, base in (("dg_off", "dg_in"), ("dg_100", "dg_in"),
                            ("dg_200", "dg_in"), ("sech_off", "sech_in"),
                            ("sech_200", "sech_in"))}
    ratios = (dist["dg_off"] / dist["dg_100"],
              dist["dg_off"] / dist["dg_200"],
              dist["sech_off"] / dist["sech_200"])
    distortion_ok = all(x >= 3.0 for x in ratios)

    spacing_100 = max(pk["dg_100"]) - min(pk["dg_100"])
    spacing_200 = max(pk["dg_200"]) - min(pk["dg_200"])
    spacing_ok = spacing_100 > spacing_200

    detail = (f"peak counts in/out dg {n_dg_in}->{len(pk['dg_100'])},{len(pk['dg_200'])} "
              f"sech {n_sech_in}->{len(pk['sech_200'])}; distortion ratios "
              f"{ratios[0]:.2f},{ratios[1]:.2f},{ratios[2]:.2f} (need >= 3); "
              f"spacing {spacing_100 * 1e4:.0f} vs {spacing_200 * 1e4:.0f} um")
    ok = counts_ok and distortion_ok and spacing_ok
    assert report("8 (multi-peak shape preservation)", ok, detail)


def test_criterion_9_numerics(convergence_orders):
    grid = TransverseGrid(nx=128, ny=128, extent=0.2)
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    f = ComplexField2D(0.2 * np.exp(-(X**2 + Y**2) / WP**2), grid, 0.0)
    out = diffraction_step(f, 2.5, PARAMS.wavenumber)
    power_err = abs(out.power() / f.power() - 1.0)

    strang, s_e1, s_e2 = convergence_orders["strang"]
    order4, j_e1, j_e2 = convergence_orders["order4"]

    g2_top = 1.5 * 0.04
    # the control's peak over the 5 cm cell, as propagate sizes its table
    G2_top = CONTROL.peak_intensity(np.clip(CONTROL.waist_position_z0, 0, 5))
    table = build_chi_table(G2_top, g2_top, PARAMS)
    # 1000 log-uniform probes independent of the build's own
    rng = np.random.default_rng(2024)
    G2q, g2q = (np.exp(rng.uniform(np.log(nodes[0]), np.log(nodes[-1]), 1000))
                for nodes in (table._G2, table._g2))
    table_err = table._relative_error(G2q, g2q)

    ok = (power_err < 1e-12 and strang >= 1.9 and order4 >= 3.7
          and table_err < 1e-4)
    assert report(
        "9 (numerics)", ok,
        f"power err {power_err:.1e}; observed orders {strang:.2f} (Strang, "
        f"diffs {s_e1:.1e}/{s_e2:.1e}) and {order4:.2f} (triple-jump, diffs "
        f"{j_e1:.1e}/{j_e2:.1e}); table err {table_err:.2e}")


def test_every_preset_runs_end_to_end(tmp_path):
    """Each shipped preset executes through the CLI without error."""
    scan_presets = {"chi_map.ini", "control_ring.ini"}
    for preset in sorted(PRESETS.glob("*.ini")):
        out_dir = tmp_path / preset.stem
        command = "chi-scan" if preset.name in scan_presets else "propagate"
        rc = main([command, "--config", str(preset), "--out", str(out_dir)])
        assert rc == 0, f"{preset.name} failed"
        if command == "propagate":
            rc = main(["analyze", "--config", str(preset), "--out", str(out_dir)])
            assert rc == 0, f"analyze after {preset.name} failed"
            assert (out_dir / "analysis.csv").exists()
        else:
            assert (out_dir / "chi_scan.csv").exists()


def test_criterion_10_bitwise_reproducibility(tmp_path):
    cfg = tmp_path / "repro.ini"
    cfg.write_text((PRESETS / "guided_gaussian.ini").read_text()
                   .replace("nx = 256", "nx = 64")
                   .replace("ny = 256", "ny = 64")
                   .replace("extent_cm = 0.24", "extent_cm = 0.06")
                   .replace("cell_length_cm = 5.0", "cell_length_cm = 0.2")
                   .replace("snapshot_every = 200", "snapshot_every = 20"))
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert main(["propagate", "--config", str(cfg),
                     "--out", str(out_dir)]) == 0
        snaps = {p.name: p.read_bytes() for p in out_dir.glob("*.rbpf")}
        snaps["diagnostics.csv"] = (out_dir / "diagnostics.csv").read_bytes()
        outputs.append(snaps)
    same_names = set(outputs[0]) == set(outputs[1])
    identical = same_names and all(outputs[0][k] == outputs[1][k]
                                   for k in outputs[0])
    assert report("10 (bitwise reproducibility)", identical,
                  f"{len(outputs[0])} artifacts identical across reruns"
                  if identical else "artifact mismatch")
