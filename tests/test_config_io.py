import json
import struct
from pathlib import Path

import numpy as np
import pytest

from rbprop.config import ConfigurationError, config_as_dict, parse_config
from rbprop.fieldio import (OutputLock, OutputLockError, RunManifest,
                            read_field, write_diagnostics_csv, write_field)
from rbprop.params import GridSpec
from rbprop.solver import ComplexField2D

PRESETS = Path(__file__).resolve().parent.parent / "presets"


class TestParseConfig:
    def test_guided_preset_resolves_reference_values(self):
        cfg = parse_config(PRESETS / "guided_gaussian.ini")
        assert cfg.params.delta_p == -170.0
        assert cfg.params.delta_R == -0.015
        assert cfg.params.doppler_width == 70.0
        assert cfg.params.big_gamma == 1e-3
        assert cfg.params.density == 1e12
        assert cfg.probe.width == pytest.approx(48e-4)
        assert cfg.probe.g0 == 0.2
        assert cfg.control.G0 == 1.0
        assert cfg.control.waist_wc == pytest.approx(120e-4)
        assert cfg.control.waist_position_z0 == pytest.approx(5.0)
        assert cfg.grid.nx == 256 and cfg.grid.cell_length == 5.0
        # gap-filling defaults are flagged for the manifest
        assert "control.waist_position_cm" in cfg.defaulted_keys
        assert "run.chi_table" in cfg.defaulted_keys

    def test_missing_mandatory_keys_all_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[atom]\n[detuning]\ndelta_p_over_gamma = -170\n"
                        "delta_R_over_gamma = -0.015\n")
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        text = "\n".join(err.value.violations)
        for key in ("gamma_rad_s", "big_gamma_over_gamma", "density_cm3",
                    "lambda_cm", "doppler_width_over_gamma"):
            assert key in text

    def test_unknown_key_reported_with_line(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        path = tmp_path / "unknown.ini"
        path.write_text(base.replace("[probe]", "[probe]\nwidht_cm = 1"))
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert any("widht_cm" in v and "line" in v for v in err.value.violations)

    def test_unknown_section_rejected(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        path = tmp_path / "sect.ini"
        path.write_text(base + "\n\n[laser]\npower = 3\n")
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert any("[laser]" in v for v in err.value.violations)

    def test_type_errors_reported(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        path = tmp_path / "typo.ini"
        path.write_text(base.replace("nx = 256", "nx = lots"))
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert any("nx" in v and "int" in v for v in err.value.violations)

    @pytest.mark.parametrize("line", ["nx = 2x", "nx: 2x", "nx:2x"])
    def test_type_error_names_the_line_whatever_the_delimiter(self, tmp_path,
                                                              line):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        path = tmp_path / "typo.ini"
        path.write_text(base.replace("nx = 256", line))
        lineno = base.splitlines().index("nx = 256") + 1
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert err.value.violations == [
            f"line {lineno}: [grid] nx = '2x' is not a valid int"]

    def test_beam_spec_and_grid_problems_reported_together(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        path = tmp_path / "three.ini"
        text = base
        for old, new in (("waist_cm = 0.0120", "waist_cm = -0.0120"),
                         ("nx = 256", "nx = 100"),
                         ("width_cm = 0.0048", "width_cm = -0.0048")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text)
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        # the failed probe spec has no width to check the resolution against
        assert err.value.violations == ["waist_wc must be positive",
                                        "width must be positive",
                                        "nx must be a power of two, got 100"]

    # (section, key) -> the preset line to edit, and its non-finite form
    NON_FINITE = {
        ("control", "g0_over_gamma"): ("g0_over_gamma = 1.0",
                                       "g0_over_gamma = {}"),
        ("control", "waist_cm"): ("waist_cm = 0.0120", "waist_cm = {}"),
        ("control", "waist_position_cm"): (
            "waist_cm = 0.0120", "waist_cm = 0.0120\nwaist_position_cm = {}"),
        ("probe", "g0_over_gamma"): ("g0_over_gamma = 0.2",
                                     "g0_over_gamma = {}"),
        ("probe", "width_cm"): ("width_cm = 0.0048", "width_cm = {}"),
        ("probe", "centers_cm"): (
            "kind = gaussian",
            "kind = double_gaussian\ncenters_cm = -0.0070, {}"),
    }

    @pytest.mark.parametrize("section, key", NON_FINITE)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_beam_inputs_name_the_key(self, tmp_path, section,
                                                 key, value):
        old, new = self.NON_FINITE[section, key]
        base = (PRESETS / "guided_gaussian.ini").read_text()
        assert base.count(old) == 1
        path = tmp_path / "nonfinite.ini"
        path.write_text(base.replace(old, new.format(value)))
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert any(f"[{section}] {key}" in v and "finite" in v
                   for v in err.value.violations)

    COUNTS = {("run", "snapshot_every"): 200, ("scan", "r_points"): 61,
              ("scan", "delta_R_points"): 151, ("oracle", "draws"): 100}

    @pytest.mark.parametrize("section, key", COUNTS)
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_below_one_name_the_key_and_line(self, tmp_path, section,
                                                    key, value):
        counts = dict(self.COUNTS)
        counts[section, key] = value
        base = (PRESETS / "guided_gaussian.ini").read_text()
        text = base[:base.index("[run]")]
        for name in ("run", "scan", "oracle"):
            text += f"[{name}]\n" + "".join(
                f"{k} = {v}\n" for (s, k), v in counts.items() if s == name)
        text += "wobble = 1\n"
        path = tmp_path / "count.ini"
        path.write_text(text)
        line = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        # reported together with the other problem in the file
        assert err.value.violations == [
            f"line {len(text.splitlines())}: unknown key [oracle] wobble",
            f"line {line}: [{section}] {key} = {value} must be at least 1"]

    def test_grid_resolution_enforced(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        path = tmp_path / "coarse.ini"
        path.write_text(base.replace("nx = 256", "nx = 64")
                            .replace("ny = 256", "ny = 64"))
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_all_shipped_presets_parse(self):
        for preset in sorted(PRESETS.glob("*.ini")):
            cfg = parse_config(preset)
            assert cfg.params.gamma > 0

    def test_double_gaussian_default_centers(self, tmp_path):
        base = (PRESETS / "double_gaussian_wc100.ini").read_text()
        path = tmp_path / "dg.ini"
        path.write_text(base.replace("centers_cm = -0.0070, 0.0070", ""))
        cfg = parse_config(path)
        assert cfg.probe.centers == (-70e-4, 70e-4)
        assert "probe.centers_cm" in cfg.defaulted_keys


class TestSnapshotFormat:
    def make_field(self):
        grid = GridSpec(nx=8, ny=4, extent=0.08, dz=0.01, cell_length=0.1)
        rng = np.random.default_rng(0)
        values = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        return ComplexField2D(values, grid, z=0.37)

    def test_round_trip_bit_exact(self, tmp_path):
        field = self.make_field()
        path = write_field(tmp_path / "f.rbpf", field)
        back = read_field(path)
        np.testing.assert_array_equal(back.values, field.values)
        assert back.z == field.z
        assert back.grid.nx == 8 and back.grid.ny == 4
        assert back.grid.extent == field.grid.extent

    def test_header_layout(self, tmp_path):
        field = self.make_field()
        raw = Path(write_field(tmp_path / "f.rbpf", field)).read_bytes()
        assert raw[:4] == b"RBPF"
        version, nx, ny, extent, z = struct.unpack("<IQQdd", raw[4:40])
        assert version == 1
        assert (nx, ny) == (8, 4)
        assert extent == 0.08 and z == 0.37
        first = struct.unpack("<dd", raw[40:56])
        assert first[0] == field.values[0, 0].real
        assert first[1] == field.values[0, 0].imag
        assert len(raw) == 40 + 16 * 8 * 4

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rbpf"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        from rbprop.fieldio import SnapshotFormatError
        with pytest.raises(SnapshotFormatError):
            read_field(path)


class TestManifestAndLock:
    def test_manifest_checksums_verify(self, tmp_path):
        out = tmp_path / "a.csv"
        write_diagnostics_csv(out, [])
        man = RunManifest(tool_version="0.1.0", config={}, defaulted_keys=[],
                          seed=0)
        man.add_output(out)
        man.write(tmp_path / "manifest.json")
        loaded = RunManifest.read(tmp_path / "manifest.json")
        assert loaded["outputs"][0]["path"] == "a.csv"
        assert man.verify_outputs(tmp_path) == []
        out.write_text("tampered\n")
        assert man.verify_outputs(tmp_path) == ["a.csv: checksum mismatch"]

    def test_manifest_records_defaulted_keys(self, tmp_path):
        cfg = parse_config(PRESETS / "guided_gaussian.ini")
        man = RunManifest(tool_version="0.1.0", config=config_as_dict(cfg),
                          defaulted_keys=cfg.defaulted_keys, seed=3)
        man.write(tmp_path / "m.json")
        data = json.loads((tmp_path / "m.json").read_text())
        assert "control.waist_position_cm" in data["defaulted_keys"]
        assert data["config"]["detuning"]["delta_p_over_gamma"] == -170.0
        # resolved values, not the file's text or the defaults' placeholders
        assert data["config"]["control"]["waist_position_cm"] == 5.0
        assert data["config"]["probe"]["centers_cm"] == []

    def test_lock_excludes_concurrent_runs(self, tmp_path):
        with OutputLock(tmp_path):
            with pytest.raises(OutputLockError):
                with OutputLock(tmp_path):
                    pass
        # released: can lock again
        with OutputLock(tmp_path):
            pass
