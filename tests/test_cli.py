import csv
import json
from pathlib import Path

import numpy as np
import pytest

from rbprop.cli import main
from rbprop.fieldio import read_field

PRESETS = Path(__file__).resolve().parent.parent / "presets"

TINY = """\
[atom]
gamma_rad_s = 9.42477796076938e6
big_gamma_over_gamma = 0.001
density_cm3 = 1.0e12
lambda_cm = 794.98e-7
doppler_width_over_gamma = 70.0

[detuning]
delta_p_over_gamma = -170.0
delta_R_over_gamma = -0.015

[grid]
nx = 64
ny = 64
extent_cm = 0.06
dz_cm = 0.01
cell_length_cm = 0.1

[control]
g0_over_gamma = 1.0
waist_cm = 0.0120

[probe]
kind = gaussian
g0_over_gamma = 0.2
width_cm = 0.0048

[run]
snapshot_every = 5
table_target_error = 1.0e-3

[oracle]
draws = 100
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


def test_oracle_subcommand_passes(tiny_config, tmp_path, capsys):
    rc = main(["oracle", "--config", str(tiny_config),
               "--out", str(tmp_path / "o"), "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative error" in out


def test_propagate_then_analyze(tiny_config, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["propagate", "--config", str(tiny_config), "--out", str(out_dir)])
    assert rc == 0
    snapshots = sorted(out_dir.glob("*.rbpf"))
    assert len(snapshots) == 3  # entry plane plus z = 0.05 and 0.1
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["defaulted_keys"]
    listed = {o["path"] for o in manifest["outputs"]}
    assert "diagnostics.csv" in listed
    with open(out_dir / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["z_cm"].startswith("0.0")
    assert float(rows[-1]["z_cm"]) == pytest.approx(0.1)

    rc = main(["analyze", "--config", str(tiny_config), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "analysis.csv").exists()
    assert (out_dir / "profile.csv").exists()
    with open(out_dir / "profile.csv") as fh:
        header = fh.readline().strip()
    assert header == "x_cm,y_cm,intensity"


def test_chi_scan_csv(tmp_path, capsys):
    cfg = tmp_path / "scan.ini"
    text = (PRESETS / "chi_map.ini").read_text()
    text = text.replace("r_points = 61", "r_points = 9")
    text = text.replace("delta_R_points = 151", "delta_R_points = 5")
    cfg.write_text(text)
    out_dir = tmp_path / "scan-out"
    rc = main(["chi-scan", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    with open(out_dir / "chi_scan.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["r_cm", "delta_R_over_gamma",
                                     "re_chi", "im_chi"]
        rows = list(reader)
    assert len(rows) == 9 * 5
    # susceptibility vanishes on the vortex axis
    on_axis = [r for r in rows if abs(float(r["r_cm"])) < 1e-12]
    assert on_axis and all(float(r["re_chi"]) == 0.0 for r in on_axis)


def test_missing_config_is_configuration_error(tmp_path, capsys):
    rc = main(["propagate", "--config", str(tmp_path / "absent.ini"),
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_is_configuration_error(tiny_config, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(tiny_config.read_text() + "\n[probe]\nwobble = 3\n")
    rc = main(["propagate", "--config", str(bad), "--out", str(tmp_path / "y")])
    assert rc == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_probe_is_configuration_error(tmp_path, capsys, value):
    bad = tmp_path / "nonfinite.ini"
    bad.write_text((PRESETS / "guided_gaussian.ini").read_text().replace(
        "g0_over_gamma = 0.2", f"g0_over_gamma = {value}"))
    rc = main(["propagate", "--config", str(bad), "--out", str(tmp_path / "n")])
    assert rc == 1
    assert "[probe] g0_over_gamma" in capsys.readouterr().err


def test_locked_output_directory_rejected(tiny_config, tmp_path, capsys):
    out_dir = tmp_path / "locked"
    out_dir.mkdir()
    (out_dir / ".rbprop.lock").write_text("held\n")
    rc = main(["oracle", "--config", str(tiny_config), "--out", str(out_dir)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err


def test_numerical_failure_exit_code(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(tiny_config.read_text().replace(
        "density_cm3 = 1.0e12", "density_cm3 = 1.0e300"))
    rc = main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "z")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_snapshots_readable_and_grid_consistent(tiny_config, tmp_path):
    out_dir = tmp_path / "snap"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    for path in out_dir.glob("*.rbpf"):
        field = read_field(path)
        assert field.grid.nx == 64
        assert np.all(np.isfinite(field.values))


def test_order4_plan_selectable(tiny_config, tmp_path):
    out_dir = tmp_path / "o4"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir), "--order", "4"]) == 0


@pytest.mark.parametrize("command", ("chi-scan", "analyze", "oracle"))
def test_propagate_options_rejected_elsewhere(tiny_config, tmp_path, command):
    assert main([command, "--config", str(tiny_config),
                 "--out", str(tmp_path), "--order", "4"]) == 1


@pytest.mark.parametrize("command", ("propagate", "chi-scan", "analyze"))
def test_seed_accepted_only_by_oracle(tiny_config, tmp_path, command):
    assert main([command, "--config", str(tiny_config),
                 "--out", str(tmp_path), "--seed", "3"]) == 1


@pytest.mark.parametrize("option", ("--help", "--version"))
def test_help_and_version_exit_zero(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([option])
    assert exc.value.code == 0


def test_free_space_widths_follow_gaussian_diffraction_law(tiny_config, tmp_path):
    cfg = tmp_path / "free.ini"
    cfg.write_text(tiny_config.read_text().replace(
        "g0_over_gamma = 1.0", "g0_over_gamma = 0.0"))
    out_dir = tmp_path / "free-run"
    assert main(["propagate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert main(["analyze", "--config", str(cfg), "--out", str(out_dir)]) == 0
    wp = 0.0048
    zr = np.pi * wp**2 / 794.98e-7
    with open(out_dir / "analysis.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 3
    for row in rows:
        z = float(row["z_cm"])
        expect = wp * np.sqrt(1.0 + (z / zr) ** 2)
        assert float(row["width_cm"]) == pytest.approx(expect, rel=5e-3)


def test_direct_chi_matches_table_on_guided_grid(tmp_path):
    # the 256^2 guided preset cut to two steps; the Gaussian tails of the
    # control reach |G|^2 ~ 1e-172, where direct evaluation must still work
    text = (PRESETS / "guided_gaussian.ini").read_text() \
        .replace("cell_length_cm = 5.0", "cell_length_cm = 0.01")
    finals = []
    for tag, chi_table in (("table", "true"), ("direct", "false")):
        cfg = tmp_path / f"guided2-{tag}.ini"
        cfg.write_text(text.replace("[run]",
                                    f"[run]\nchi_table = {chi_table}"))
        out_dir = tmp_path / tag
        assert main(["propagate", "--config", str(cfg),
                     "--out", str(out_dir)]) == 0
        fields = [read_field(p) for p in out_dir.glob("*.rbpf")]
        finals.append(max(fields, key=lambda f: f.z))
    table, direct = finals
    assert direct.z == pytest.approx(0.01)
    diff = np.linalg.norm(direct.values - table.values)
    assert diff / np.linalg.norm(direct.values) < 1e-4
