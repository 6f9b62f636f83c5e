import csv
import fcntl
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rbprop.cli as cli
import rbprop.solver as solver
import rbprop.susceptibility as susceptibility
from rbprop.cli import main
from rbprop.config import parse_config
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
    rc = main(["oracle", "--config", str(tiny_config), "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative error" in out


def test_oracle_creates_no_directory(tiny_config, tmp_path, monkeypatch):
    # it writes no files, so it neither makes nor locks an output directory
    # and has no --out to name one
    monkeypatch.chdir(tmp_path)
    assert main(["oracle", "--config", str(tiny_config)]) == 0
    assert sorted(tmp_path.iterdir()) == [tiny_config]
    assert main(["oracle", "--config", str(tiny_config),
                 "--out", str(tmp_path / "x")]) == 1
    assert sorted(tmp_path.iterdir()) == [tiny_config]


def test_oracle_checks_the_closed_form_every_run_calls(tiny_config,
                                                       monkeypatch):
    # the closed form under test is the cli's binding of the average, the
    # name perfbench's tracer rebinds, evaluated for a vapor at rest
    widths = []
    average = cli.chi_doppler_averaged

    def counted(point, params, out=None):
        widths.append(params.doppler_width)
        return average(point, params, out=out)

    monkeypatch.setattr(cli, "chi_doppler_averaged", counted)
    assert main(["oracle", "--config", str(tiny_config)]) == 0
    assert widths == [0.0] * parse_config(tiny_config).oracle["draws"]


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


def test_chi_scan_rows_sorted_by_radius_then_detuning_for_reversed_bounds(
        tmp_path):
    # reversed bounds, then tied axes (equal bounds, three points each) and
    # a single radius; each file's rows are np.lexsort's order of its points
    cases = {
        "reversed": {"r_min_cm = -0.03": "r_min_cm = 0.02",
                     "r_max_cm = 0.03": "r_max_cm = -0.01",
                     "delta_R_min_over_gamma = -0.1":
                         "delta_R_min_over_gamma = 0.05",
                     "delta_R_max_over_gamma = 0.05":
                         "delta_R_max_over_gamma = -0.1"},
        "tied-radii": {"r_min_cm = -0.03": "r_min_cm = 0.01",
                       "r_max_cm = 0.03": "r_max_cm = 0.01",
                       "r_points = 9": "r_points = 3"},
        "tied-detunings": {"delta_R_min_over_gamma = -0.1":
                               "delta_R_min_over_gamma = -0.02",
                           "delta_R_max_over_gamma = 0.05":
                               "delta_R_max_over_gamma = -0.02",
                           "delta_R_points = 5": "delta_R_points = 3"},
        "one-radius": {"r_points = 9": "r_points = 1"},
    }
    base = scan_config(tmp_path).read_text()
    for name, edits in cases.items():
        text = base
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        out_dir = tmp_path / name
        assert main(["chi-scan", "--config", str(cfg),
                     "--out", str(out_dir)]) == 0
        lines = (out_dir / "chi_scan.csv").read_text().splitlines()[1:]
        scan = parse_config(cfg).scan
        r_values = np.linspace(scan["r_min_cm"], scan["r_max_cm"],
                               scan["r_points"])
        d_values = np.linspace(scan["delta_R_min_over_gamma"],
                               scan["delta_R_max_over_gamma"],
                               scan["delta_R_points"])
        r = np.tile(r_values, d_values.size)
        d = np.repeat(d_values, r_values.size)
        assert [",".join(line.split(",")[:2]) for line in lines] == [
            "%.9e,%.9e" % (r[i], d[i]) for i in np.lexsort((d, r))], name
        pairs = [tuple(map(float, line.split(",")[:2])) for line in lines]
        assert pairs == sorted(pairs), name


def test_chi_scan_averages_each_detuning_through_the_module_binding(
        tmp_path, monkeypatch):
    # perfbench's tracer counts the averages by rebinding
    # susceptibility.chi_doppler_averaged; a scan that evaluated them
    # another way would read as free
    calls = []
    average = susceptibility.chi_doppler_averaged

    def counted(point, params, out=None):
        calls.append(np.broadcast(point.g_abs2, point.G_abs2).size)
        return average(point, params, out=out)

    monkeypatch.setattr(susceptibility, "chi_doppler_averaged", counted)
    assert main(["chi-scan", "--config", str(scan_config(tmp_path)),
                 "--out", str(tmp_path / "counted")]) == 0
    assert calls == [9] * 5


def test_chi_scan_memory_is_its_map_plus_one_block(tmp_path, capsys):
    # tracemalloc sees numpy's array buffers: a scan holds its
    # (detuning x radius) map, one average's work and one CSV block, never
    # a full-length column of its rows
    r_points, d_points = 2000, 100
    cfg = scan_config(tmp_path)
    cfg.write_text(cfg.read_text()
                   .replace("r_points = 9", f"r_points = {r_points}")
                   .replace("delta_R_points = 5",
                            f"delta_R_points = {d_points}"))

    def scan_peak(name):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["chi-scan", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    scan_peak("warm-up")  # builds the CSV writer's digit tables
    map_bytes = r_points * d_points * 16
    assert scan_peak("traced") < map_bytes + 4 * 2**20


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


@pytest.mark.parametrize("old, new", [
    ("kind = gaussian", "kind = gauss%ian"),
    ("g0_over_gamma = 0.2", "g0_over_gamma = 0.2%"),
    ("table_target_error = 1.0e-3", "table_target_error = 0"),
    ("table_target_error = 1.0e-3", "table_target_error = -1e-4"),
], ids=("kind%", "g0%", "target0", "target<0"))
def test_bad_value_is_configuration_error(tiny_config, tmp_path, capsys,
                                          old, new):
    bad = tmp_path / "bad.ini"
    text = tiny_config.read_text().replace(old, new)
    bad.write_text(text)
    rc = main(["propagate", "--config", str(bad), "--out", str(tmp_path / "b")])
    assert rc == 1
    err = capsys.readouterr().err
    line = text.splitlines().index(new) + 1
    assert err.startswith(f"configuration error: line {line}: ")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["propagate", "chi-scan"])
@pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
def test_out_naming_a_file_is_configuration_error(tiny_config, tmp_path,
                                                  capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    before = sorted(tmp_path.rglob("*"))
    rc = main([command, "--config", str(tiny_config),
               "--out", str(taken / below)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert str(taken / below) in err
    # nothing created, the file left as it was
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "a file\n"


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
    line = TINY.splitlines().index("g0_over_gamma = 0.2") + 1
    squares_to_0 = "gives the probe a peak |g|^2 of 0, which must be positive"
    # zero, an amplitude whose square underflows, and the default amplitude
    # on lobes so far off the grid that no point is lit
    for name, probe, problem in (
            ("zero", "g0_over_gamma = 0",
             f"line {line}: [probe] g0_over_gamma = 0 must be positive"),
            ("underflow", "g0_over_gamma = 1e-200",
             f"line {line}: [probe] g0_over_gamma = 1e-200 {squares_to_0}"),
            ("off-grid", "centers_cm = -10, 10",
             f"default [probe] g0_over_gamma = 0.2 {squares_to_0}")):
        text = tiny_config.read_text().replace("g0_over_gamma = 0.2", probe)
        if name == "off-grid":
            text = text.replace("kind = gaussian", "kind = double_gaussian")
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        out_dir = tmp_path / name
        rc = main(["propagate", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"configuration error: {problem} to propagate\n")
        assert not list(out_dir.glob("*.rbpf"))
        assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
def test_unreadable_config_is_configuration_error(tiny_config, tmp_path,
                                                  capsys, unreadable):
    if unreadable == "directory":
        cfg = tmp_path / "config.d"
        cfg.mkdir()
    else:
        # "\xb5m" in Latin-1 is not UTF-8
        cfg = tmp_path / "latin-1.ini"
        cfg.write_bytes(tiny_config.read_bytes() + b"# width in \xb5m\n")
    rc = main(["propagate", "--config", str(cfg), "--out",
               str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file "
                          f"{cfg}: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cell_of_a_fractional_step_count_is_refused(tiny_config, tmp_path,
                                                   capsys):
    # 0.1 cm in 0.03 cm steps would stop after 3 steps at z = 0.09 cm
    cfg = tmp_path / "short.ini"
    cfg.write_text(tiny_config.read_text().replace("dz_cm = 0.01",
                                                   "dz_cm = 0.03"))
    out_dir = tmp_path / "short"
    rc = main(["propagate", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 1
    dz = TINY.splitlines().index("dz_cm = 0.01") + 1
    err = capsys.readouterr().err
    assert f"configuration error: line {dz + 1}: [grid] cell_length_cm = " \
           "0.1 is not a whole number (at least 1) of steps of line " \
           f"{dz}: [grid] dz_cm = 0.03 (3.33333 steps)" in err
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
        rc = main(["chi-scan", "--config", str(tiny_config),
                   "--out", str(out_dir)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err
    assert not (out_dir / "chi_scan.csv").exists()


def test_stale_lock_file_does_not_block_a_run(tiny_config, tmp_path):
    # what a run killed before its exit leaves behind: the file, no lock
    out_dir = tmp_path / "stale"
    out_dir.mkdir()
    (out_dir / ".rbprop.lock").write_text("pid 1 at 0\n")
    assert main(["chi-scan", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "chi_scan.csv").exists()
    assert not (out_dir / ".rbprop.lock").exists()


def test_numerical_failure_exit_code(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(tiny_config.read_text().replace(
        "density_cm3 = 1.0e12", "density_cm3 = 1.0e300"))
    rc = main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "z")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_failed_run_leaves_no_manifest_of_an_earlier_one(tiny_config,
                                                         tmp_path, capsys):
    # snapshots are written as they are taken: a run that fails mid-way
    # keeps those it wrote, and an earlier run's manifest would list files
    # since overwritten
    out_dir = tmp_path / "z"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(tiny_config.read_text().replace(
        "density_cm3 = 1.0e12", "density_cm3 = 1.0e300"))
    capsys.readouterr()
    assert main(["propagate", "--config", str(cfg),
                 "--out", str(out_dir)]) == 2
    assert "in step 1 at z = 0.005 cm" in capsys.readouterr().err
    assert read_field(out_dir / "field_step00.rbpf").z == 0.0
    assert not (out_dir / "manifest.json").exists()
    assert main(["analyze", "--config", str(cfg),
                 "--out", str(out_dir)]) == 1
    assert "no manifest.json" in capsys.readouterr().err


def test_propagate_memory_does_not_grow_with_the_snapshot_count(
        tiny_config, tmp_path, monkeypatch, capsys):
    # tracemalloc sees numpy's array buffers; the peak is taken from the end
    # of the table build, which outweighs the stepping on this grid
    build = solver.build_chi_table

    def build_then_reset_peak(*args, **kwargs):
        table = build(*args, **kwargs)
        tracemalloc.reset_peak()
        return table

    monkeypatch.setattr(solver, "build_chi_table", build_then_reset_peak)

    def stepping_peak(every, name):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(tiny_config.read_text().replace(
            "snapshot_every = 5", f"snapshot_every = {every}"))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["propagate", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    stepping_peak(10, "warm-up")  # fills the per-grid caches
    every_step = stepping_peak(1, "every-step")  # 11 snapshots
    two = stepping_peak(10, "ends-only")  # 2 snapshots
    field_bytes = 64 * 64 * 16
    assert every_step - two < field_bytes + 64 * 1024


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


@pytest.mark.parametrize("text, problem", [
    ("not json", "cannot read the snapshot list in {listing}: "
     "JSONDecodeError('Expecting value: line 1 column 1 (char 0)')"),
    ('{"tool_version": "0.1.0"}',
     "cannot read the snapshot list in {listing}: KeyError('outputs')"),
    ('{"outputs": [{"path": "diagnostics.csv", "sha256": "0"}]}',
     "{listing} lists no field snapshots"),
], ids=("not-json", "no-outputs", "no-rbpf"))
def test_analyze_refuses_a_manifest_listing_no_snapshot(tiny_config, tmp_path,
                                                        capsys, text, problem):
    out_dir = tmp_path / "listing"
    out_dir.mkdir()
    listing = out_dir / "manifest.json"
    listing.write_text(text)
    assert main(["analyze", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {problem.format(listing=listing)}\n")
    assert not (out_dir / "analysis.csv").exists()


def test_analyze_refuses_a_snapshot_of_zero_power(tiny_config, tmp_path,
                                                  capsys):
    out_dir = tmp_path / "zero"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    # a well-formed snapshot of no light, listed with its own checksum
    snapshot = out_dir / "field_step05.rbpf"
    dark = read_field(snapshot)
    dark.values[...] = 0.0
    write_field(snapshot, dark)
    listing = out_dir / "manifest.json"
    manifest = json.loads(listing.read_text())
    for entry in manifest["outputs"]:
        if entry["path"] == snapshot.name:
            entry["sha256"] = sha256_of(snapshot)
    listing.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {listing}: beam width is undefined for a "
        "zero-power field\n")
    assert not (out_dir / "analysis.csv").exists()


def test_analyze_refuses_a_manifest_listing_snapshots_out_of_z_order(
        tiny_config, tmp_path, capsys):
    out_dir = tmp_path / "reversed"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 0
    # every checksum still matches: only the order is wrong
    listing = out_dir / "manifest.json"
    manifest = json.loads(listing.read_text())
    manifest["outputs"].reverse()
    listing.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", "--config", str(tiny_config),
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {listing}: z = 0.05 cm follows z = 0.1 cm; "
        "z must increase\n")
    assert not (out_dir / "analysis.csv").exists()


def test_analyze_reads_no_snapshot_outside_its_directory(tiny_config,
                                                         tmp_path, capsys):
    run = tmp_path / "a"
    assert main(["propagate", "--config", str(tiny_config),
                 "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    # each listed file, checksum and all, reached through a path that leaves
    # the directory analyze is given
    for name, prefix in (("relative", "../a/"), ("absolute", f"{run}/")):
        out_dir = tmp_path / name
        out_dir.mkdir()
        listing = out_dir / "manifest.json"
        entries = [dict(o, path=prefix + o["path"])
                   for o in manifest["outputs"]]
        listing.write_text(json.dumps(dict(manifest, outputs=entries)))
        capsys.readouterr()
        assert main(["analyze", "--config", str(tiny_config),
                     "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        listed = ", ".join(repr(prefix + o["path"])
                           for o in manifest["outputs"])
        assert err == (f"configuration error: {listing} lists {listed}: each "
                       f"output must be a bare file name in {out_dir}\n")
        assert not (out_dir / "analysis.csv").exists()


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
def test_propagate_options_rejected_elsewhere(tiny_config, command):
    assert main([command, "--config", str(tiny_config), "--order", "4"]) == 1


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


def main_call(command, config, out_dir=None):
    argv = [command, "--config", str(config)]
    if out_dir is not None:
        argv += ["--out", str(out_dir)]
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


def test_oracle_loads_no_scipy(tiny_config):
    assert scipy_modules_after(main_call("oracle", tiny_config)) == []


def test_chi_scan_and_lit_propagate_load_no_scipy(tiny_config, tmp_path):
    # both take the thermal average
    scan_out = tmp_path / "scan-out"
    assert scipy_modules_after(
        main_call("chi-scan", scan_config(tmp_path), scan_out)) == []
    assert (scan_out / "chi_scan.csv").exists()
    lit_out = tmp_path / "lit-out"
    assert scipy_modules_after(
        main_call("propagate", tiny_config, lit_out)) == []
    assert (lit_out / "diagnostics.csv").exists()
