"""Output fingerprints of a fixed set of short runs, against checked-in values.

Each run's snapshots are reduced to a few numbers: z, power, second-moment
width, peak |g|^2, the on-axis phase and the 3x3 lowest spatial-frequency
coefficients.  A scan is reduced to a stride of the rows of its CSV (every
thousandth of the chi_map scan's 9211, every twentieth of the control_ring
scan's 241) and the CSV's column sums.  Each quantity is compared at 1e-12
relative to its largest magnitude in the run, not bitwise: FFT rounding can
differ across platforms, and criterion 10 of the acceptance suite covers
bitwise reruns on one machine.

The runs: the dark ``free_space`` preset; ``guided_gaussian`` cut to 0.05 cm
at orders 2 and 4, whose later RK4 stages run on the gathered live points,
and at order 2 with the velocity average evaluated directly instead of from
the chi table; ``sech_multipeak`` cut to 0.05 cm, which keeps one point per
sub-flow and so runs them on the whole grid; and the ``chi_map`` and
``control_ring`` scans.

A change that moves outputs on purpose regenerates the reference file with

    PYTHONPATH=src python tests/test_fingerprints.py
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbprop import cli
from rbprop.analysis import beam_width
from rbprop.beams import make_probe
from rbprop.config import parse_config
from rbprop.solver import StepPlan, propagate

PRESETS = Path(__file__).resolve().parent.parent / "presets"
REFERENCE = Path(__file__).with_name("fingerprints.json")
RTOL = 1e-12

# run -> (preset, cell length in cm or None for the preset's, splitting
# order, snapshot_every or None for the preset's, use_table or None for the
# preset's chi_table)
RUNS = {
    "free_space": ("free_space.ini", None, 2, None, None),
    "guided_order2": ("guided_gaussian.ini", 0.05, 2, 5, None),
    "guided_order4": ("guided_gaussian.ini", 0.05, 4, 5, None),
    "guided_direct": ("guided_gaussian.ini", 0.05, 2, 5, False),
    "sech_multipeak": ("sech_multipeak.ini", 0.05, 2, 5, None),
}
# scan preset -> the stride of the CSV rows kept
SCANS = {"chi_map": 1000, "control_ring": 20}


def propagation_fingerprint(name: str) -> dict:
    """Per-snapshot observables of one run, each a list in snapshot order."""
    preset, cell_length, order, snapshot_every, use_table = RUNS[name]
    cfg = parse_config(PRESETS / preset)
    grid = cfg.grid if cell_length is None else replace(
        cfg.grid, cell_length=cell_length)
    out = {key: [] for key in ("z", "power", "width", "peak", "phase",
                               "coeffs")}

    def on_snapshot(step, snap):
        v = snap.values
        low = np.fft.fft2(v)[:3, :3].ravel()
        out["z"].append(snap.z)
        out["power"].append(snap.power())
        out["width"].append(beam_width(snap))
        out["peak"].append(float(np.max(np.abs(v) ** 2)))
        out["phase"].append(float(np.angle(v[snap.grid.nx // 2,
                                             snap.grid.ny // 2])))
        out["coeffs"].append([x for c in low for x in (c.real, c.imag)])

    propagate(make_probe(cfg.probe, grid.transverse), cfg.control,
              cfg.params, grid, StepPlan(grid, order=order),
              snapshot_every=snapshot_every or cfg.run["snapshot_every"],
              use_table=(cfg.run["chi_table"] if use_table is None
                         else use_table),
              table_target_error=cfg.run["table_target_error"],
              on_snapshot=on_snapshot)
    return out


def scan_fingerprint(name: str, out_dir: Path) -> dict:
    """A stride of the rows and the column sums of a preset's scan CSV."""
    assert cli.main(["chi-scan", "--config", str(PRESETS / f"{name}.ini"),
                     "--out", str(out_dir)]) == cli.EXIT_OK
    rows = np.loadtxt(out_dir / "chi_scan.csv", delimiter=",", skiprows=1)
    return {"rows": rows[::SCANS[name]].tolist(),
            "sums": rows.sum(axis=0).tolist()}


def fingerprints(out_dir: Path) -> dict:
    prints = {name: propagation_fingerprint(name) for name in RUNS}
    for name in SCANS:
        prints[name] = scan_fingerprint(name, out_dir / name)
    return prints


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def assert_matches(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.shape == w.shape, key
        scale = np.max(np.abs(w))
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=RTOL * scale,
                                   err_msg=key)


@pytest.mark.parametrize("name", RUNS)
def test_propagation_matches_its_fingerprint(name, reference):
    assert_matches(propagation_fingerprint(name), reference[name])


def test_chi_scan_matches_its_fingerprint(tmp_path, reference):
    for name in SCANS:
        assert_matches(scan_fingerprint(name, tmp_path / name),
                       reference[name])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        REFERENCE.write_text(json.dumps(fingerprints(Path(tmp)), indent=1)
                             + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
