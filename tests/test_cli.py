import csv
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rbprop.cli as cli
from rbprop.cli import main
from rbprop.fieldio import RunManifest, read_field, sha256_of, write_field

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
    # entry plane plus z = 0.05 and 0.1, named by step out of 10
    assert [p.name for p in snapshots] == [
        "field_step00.rbpf", "field_step05.rbpf", "field_step10.rbpf"]
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


def test_snapshots_closer_than_a_micron_keep_their_own_files(tmp_path,
                                                             capsys):
    # three 2e-5 cm steps: at four decimals of z in cm the first three
    # snapshots would share one file name
    cfg = tmp_path / "close.ini"
    cfg.write_text((PRESETS / "guided_gaussian.ini").read_text()
                   .replace("nx = 256", "nx = 32")
                   .replace("ny = 256", "ny = 32")
                   .replace("extent_cm = 0.24", "extent_cm = 0.03")
                   .replace("dz_cm = 0.005", "dz_cm = 2e-5")
                   .replace("cell_length_cm = 5.0", "cell_length_cm = 6e-5")
                   .replace("snapshot_every = 200", "snapshot_every = 1"))
    out_dir = tmp_path / "close"
    assert main(["propagate", "--config", str(cfg),
                 "--out", str(out_dir)]) == 0
    assert "4 snapshots" in capsys.readouterr().out
    names = sorted(p.name for p in out_dir.glob("*.rbpf"))
    assert names == [f"field_step{i}.rbpf" for i in range(4)]
    assert [read_field(out_dir / n).z for n in names] == pytest.approx(
        [0.0, 2e-5, 4e-5, 6e-5], rel=1e-12, abs=0)
    data = RunManifest.read(out_dir / "manifest.json")
    assert [o["path"] for o in data["outputs"]] == names + ["diagnostics.csv"]
    manifest = RunManifest(tool_version=data["tool_version"],
                           config=data["config"],
                           defaulted_keys=data["defaulted_keys"],
                           seed=data["seed"], outputs=data["outputs"])
    assert manifest.verify_outputs(out_dir) == []


def scan_config(tmp_path, probe_g0="0.2"):
    cfg = tmp_path / "scan.ini"
    text = (PRESETS / "chi_map.ini").read_text()
    text = text.replace("r_points = 61", "r_points = 9")
    text = text.replace("delta_R_points = 151", "delta_R_points = 5")
    text = text.replace("g0_over_gamma = 0.2", f"g0_over_gamma = {probe_g0}")
    cfg.write_text(text)
    return cfg


def test_chi_scan_csv(tmp_path, capsys):
    cfg = scan_config(tmp_path)
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


def test_zero_probe_is_refused_before_propagating(tiny_config, tmp_path,
                                                 capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("propagate reached with a zero probe")

    monkeypatch.setattr(cli, "propagate", unreachable)
    cfg = tmp_path / "dark-probe.ini"
    cfg.write_text(tiny_config.read_text().replace("g0_over_gamma = 0.2",
                                                   "g0_over_gamma = 0"))
    out_dir = tmp_path / "dark-probe"
    rc = main(["propagate", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 1
    assert ("configuration error: [probe] g0_over_gamma = 0 must be "
            "positive" in capsys.readouterr().err)
    assert not list(out_dir.glob("*.rbpf"))
    assert not (out_dir / "manifest.json").exists()


def test_cell_of_a_fractional_step_count_is_refused(tiny_config, tmp_path,
                                                   capsys):
    # 0.1 cm in 0.03 cm steps would stop after 3 steps at z = 0.09 cm
    cfg = tmp_path / "short.ini"
    cfg.write_text(tiny_config.read_text().replace("dz_cm = 0.01",
                                                   "dz_cm = 0.03"))
    out_dir = tmp_path / "short"
    rc = main(["propagate", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "configuration error: cell_length_cm = 0.1 is not a whole " \
           "number of dz_cm = 0.03 steps" in err
    assert not list(out_dir.glob("*.rbpf"))


def test_chi_scan_accepts_a_zero_probe(tmp_path):
    # there a zero probe amplitude is the weak-probe limit
    out_dir = tmp_path / "weak"
    assert main(["chi-scan", "--config", str(scan_config(tmp_path, "0")),
                 "--out", str(out_dir)]) == 0
    with open(out_dir / "chi_scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 * 5
    assert any(float(r["im_chi"]) != 0.0 for r in rows)


def test_locked_output_directory_rejected(tiny_config, tmp_path, capsys):
    out_dir = tmp_path / "locked"
    out_dir.mkdir()
    with open(out_dir / ".rbprop.lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc = main(["oracle", "--config", str(tiny_config),
                   "--out", str(out_dir)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err


def test_stale_lock_file_does_not_block_a_run(tiny_config, tmp_path):
    # what a run killed before its exit leaves behind: the file, no lock
    out_dir = tmp_path / "stale"
    out_dir.mkdir()
    (out_dir / ".rbprop.lock").write_text("pid 1 at 0\n")
    assert main(["oracle", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    assert not (out_dir / ".rbprop.lock").exists()


def test_numerical_failure_exit_code(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(tiny_config.read_text().replace(
        "density_cm3 = 1.0e12", "density_cm3 = 1.0e300"))
    rc = main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "z")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


INPUT_PROBE_NOT_FINITE = ("numerical failure: input probe peak |g|^2 = {} "
                          "is not finite at z = 0 cm")


@pytest.mark.parametrize("edits, message", [
    # finite amplitudes whose squares overflow to inf: the probe's is
    # refused as the run's input, the control's as the chi table's top
    ({"g0_over_gamma = 0.2": "g0_over_gamma = 1e200"},            # [probe]
     INPUT_PROBE_NOT_FINITE.format("inf")),
    ({"g0_over_gamma = 1.0": "g0_over_gamma = 1e200"},            # [control]
     "numerical failure: table tops |G|^2 = "),
    ({"g0_over_gamma = 1.0": "g0_over_gamma = 0.0",
      "g0_over_gamma = 0.2": "g0_over_gamma = 1e200"},
     INPUT_PROBE_NOT_FINITE.format("inf")),
], ids=["g0_over_gamma = 0.2", "g0_over_gamma = 1.0", "control off"])
def test_overflowing_amplitude_is_numerical_failure(tiny_config, tmp_path,
                                                    capsys, edits, message):
    text = tiny_config.read_text()
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = tmp_path / "huge.ini"
    cfg.write_text(text)
    out_dir = tmp_path / "h"
    rc = main(["propagate", "--config", str(cfg), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert "|g|^2 = " in err and "inf" in err
    assert not list(out_dir.glob("*.rbpf"))


# the run kinds propagate chooses between, as edits of the tiny config
RUN_KINDS = {
    "lit table": {},
    "lit direct": {"snapshot_every = 5": "snapshot_every = 5\nchi_table = false"},
    "dark": {"g0_over_gamma = 1.0": "g0_over_gamma = 0.0"},
}


@pytest.mark.parametrize("kind", RUN_KINDS)
@pytest.mark.parametrize("value, shown", [(np.inf, "inf"), (np.nan, "nan"),
                                          (1e200, "inf")],
                         ids=["inf", "nan", "overflowing"])
def test_non_finite_input_probe_is_refused_once_at_z_0(
        tiny_config, tmp_path, capsys, monkeypatch, kind, value, shown):
    make_probe = cli.make_probe

    def spoiled(spec, grid):
        probe = make_probe(spec, grid)
        probe.values[5, 7] = value
        return probe

    monkeypatch.setattr(cli, "make_probe", spoiled)
    text = tiny_config.read_text()
    for old, new in RUN_KINDS[kind].items():
        text = text.replace(old, new)
    cfg = tmp_path / "spoiled.ini"
    cfg.write_text(text)
    out_dir = tmp_path / "s"
    rc = main(["propagate", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == \
        INPUT_PROBE_NOT_FINITE.format(shown) + "\n"
    assert not list(out_dir.glob("*.rbpf"))
    assert not (out_dir / "manifest.json").exists()


def test_analyze_rejects_a_truncated_snapshot(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "dark.ini"
    cfg.write_text(tiny_config.read_text().replace(
        "g0_over_gamma = 1.0", "g0_over_gamma = 0.0"))
    out_dir = tmp_path / "cut"
    assert main(["propagate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    snapshot = sorted(out_dir.glob("*.rbpf"))[-1]
    whole = snapshot.read_bytes()
    listing = out_dir / "manifest.json"
    manifest = json.loads(listing.read_text())
    # into the samples, the header
    for cut, problem in ((whole[:-16], "does not match header"),
                         (whole[:20], "header cut short at 20 bytes")):
        snapshot.write_bytes(cut)
        # a manifest listing the cut file's own checksum, so that the reader
        # itself meets the cut
        for entry in manifest["outputs"]:
            if entry["path"] == snapshot.name:
                entry["sha256"] = sha256_of(snapshot)
        listing.write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["analyze", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"unreadable snapshot: {snapshot}: " in err and problem in err


def test_analyze_refuses_a_snapshot_its_manifest_does_not_match(tiny_config,
                                                                tmp_path,
                                                                capsys):
    out_dir = tmp_path / "changed"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    # a well-formed snapshot of another field under a listed name
    snapshot = out_dir / "field_step05.rbpf"
    changed = read_field(snapshot)
    changed.values *= 2.0
    write_field(snapshot, changed)
    capsys.readouterr()
    assert main(["analyze", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 1
    assert (f"unreadable snapshot: {snapshot}: checksum does not match "
            "manifest.json") in capsys.readouterr().err
    assert not (out_dir / "analysis.csv").exists()


def test_analyze_reads_only_the_snapshots_the_manifest_lists(tiny_config,
                                                             tmp_path):
    out_dir = tmp_path / "rerun"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    # the rerun at half the step writes field_step10 at z = 0.05 cm beside
    # the first run's field_step05 at the same z
    half = tmp_path / "half.ini"
    half.write_text(tiny_config.read_text()
                    .replace("dz_cm = 0.01", "dz_cm = 0.005")
                    .replace("snapshot_every = 5", "snapshot_every = 10"))
    assert main(["propagate", "--config", str(half),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "field_step05.rbpf").exists()
    assert main(["analyze", "--config", str(half),
                 "--out", str(out_dir)]) == 0
    with open(out_dir / "analysis.csv") as fh:
        z = [float(row["z_cm"]) for row in csv.DictReader(fh)]
    assert z == pytest.approx([0.0, 0.05, 0.1], rel=1e-12, abs=1e-15)


def test_analyze_needs_the_manifest_and_every_listed_snapshot(tiny_config,
                                                              tmp_path,
                                                              capsys):
    out_dir = tmp_path / "gone"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    snapshot = out_dir / "field_step05.rbpf"
    snapshot.unlink()
    capsys.readouterr()
    assert main(["analyze", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 1
    assert (f"unreadable snapshot: {snapshot}: listed in manifest.json but "
            "missing") in capsys.readouterr().err
    (out_dir / "manifest.json").unlink()
    assert main(["analyze", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 1
    assert "no manifest.json of a propagate run" in capsys.readouterr().err


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


def scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'scipy')))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main_call(command, config, out_dir):
    argv = [command, "--config", str(config), "--out", str(out_dir)]
    return f"from rbprop.cli import main\nassert main({argv!r}) == 0"


def test_cli_import_loads_no_scipy():
    assert scipy_modules_after("import rbprop.cli") == []


def test_dark_propagate_and_analyze_load_no_scipy(tiny_config, tmp_path):
    dark = tmp_path / "dark.ini"
    dark.write_text(tiny_config.read_text().replace(
        "g0_over_gamma = 1.0", "g0_over_gamma = 0.0"))
    out_dir = tmp_path / "dark-out"
    for command in ("propagate", "analyze"):
        assert scipy_modules_after(main_call(command, dark, out_dir)) == []
    assert (out_dir / "analysis.csv").exists()


def test_chi_scan_loads_scipy_special_to_average(tmp_path):
    out_dir = tmp_path / "scan-out"
    modules = scipy_modules_after(
        main_call("chi-scan", scan_config(tmp_path), out_dir))
    assert "scipy.special" in modules
    assert (out_dir / "chi_scan.csv").exists()
