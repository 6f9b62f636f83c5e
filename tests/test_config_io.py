import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbprop import fieldio
from rbprop.config import ConfigurationError, config_as_dict, parse_config
from rbprop.fieldio import (OutputLock, OutputLockError, RunManifest,
                            read_field, write_chi_scan_csv,
                            write_diagnostics_csv, write_field,
                            write_profile_csv)
from rbprop.params import TransverseGrid
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
        assert cfg.grid.transverse.nx == 256 and cfg.grid.cell_length == 5.0
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

    def test_absorbing_boundary_is_an_unknown_key(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        assert base.rstrip().splitlines()[-2] == "[run]"
        path = tmp_path / "window.ini"
        path.write_text(base + "absorbing_boundary = false\n")
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        line = len(base.splitlines()) + 1
        assert err.value.violations == [
            f"line {line}: unknown key [run] absorbing_boundary"]

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
        lines = text.splitlines()
        waist = lines.index("waist_cm = -0.0120") + 1
        width = lines.index("width_cm = -0.0048") + 1
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        # the failed probe spec has no width to check the resolution against
        assert err.value.violations == [
            f"line {waist}: [control] waist_cm = -0.012 must be positive",
            f"line {width}: [probe] width_cm = -0.0048 must be positive",
            "nx must be a power of two, got 100"]

    def test_every_problem_of_one_beam_spec_names_its_line(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        text = base
        for old, new in (("waist_cm = 0.0120", "waist_cm = 0"),
                         ("kind = gaussian", "kind = double_gaussian\n"
                          "centers_cm = 0.001, 0.001"),
                         ("g0_over_gamma = 0.2", "g0_over_gamma = -1"),
                         ("width_cm = 0.0048", "width_cm = -0.0048")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "probe.ini"
        path.write_text(text)
        lines = text.splitlines()
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        # the probe spec's own checks stop at its first problem; the
        # structure of its centers is listed with its ranges
        assert err.value.violations == [
            f"line {lines.index(line) + 1}: {message}" for line, message in (
                ("waist_cm = 0", "[control] waist_cm = 0.0 must be positive"),
                ("g0_over_gamma = -1",
                 "[probe] g0_over_gamma = -1.0 must be non-negative"),
                ("width_cm = -0.0048",
                 "[probe] width_cm = -0.0048 must be positive"),
                ("centers_cm = 0.001, 0.001",
                 "[probe] centers_cm = (0.001, 0.001): probe centers must be "
                 "distinct"))]

    def test_every_bad_center_reported_with_the_other_problems(self, tmp_path):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        text = base
        for old, new in (("kind = gaussian", "kind = double_gaussian\n"
                          "centers_cm = -0.0070, abc, xyz"),
                         ("nx = 256", "nx = 100"),
                         ("waist_cm = 0.0120", "waist_cm = -0.0120")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "centers.ini"
        path.write_text(text)
        lines = text.splitlines()
        line = lines.index("centers_cm = -0.0070, abc, xyz") + 1
        waist = lines.index("waist_cm = -0.0120") + 1
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert err.value.violations == [
            f"line {waist}: [control] waist_cm = -0.012 must be positive",
            f"line {line}: [probe] centers_cm = ' abc' is not a valid "
            "finite float",
            f"line {line}: [probe] centers_cm = ' xyz' is not a valid "
            "finite float",
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

    # a "%" once reached configparser's interpolation, and a target error
    # that is not positive the table sizing
    BAD_VALUES = [
        ("kind = gaussian", "kind = gauss%ian",
         "[probe] kind = 'gauss%ian' is not one of "
         "('gaussian', 'double_gaussian', 'sech_multi')"),
        ("g0_over_gamma = 0.2", "g0_over_gamma = 0.2%",
         "[probe] g0_over_gamma = '0.2%' is not a valid finite float"),
        ("snapshot_every = 200", "table_target_error = 0",
         "[run] table_target_error = 0.0 must be positive"),
        ("snapshot_every = 200", "table_target_error = -1e-4",
         "[run] table_target_error = -0.0001 must be positive"),
        # a beam spec's own checks name neither the key nor the line
        ("width_cm = 0.0048", "width_cm = -0.0048",
         "[probe] width_cm = -0.0048 must be positive"),
        ("waist_cm = 0.0120", "waist_cm = 0",
         "[control] waist_cm = 0.0 must be positive"),
        ("g0_over_gamma = 1.0", "g0_over_gamma = -1.0",
         "[control] g0_over_gamma = -1.0 must be non-negative"),
        # the medium's and the march's ranges are the file's too
        ("gamma_rad_s = 9.42477796076938e6      # 3*pi*1e6", "gamma_rad_s = 0",
         "[atom] gamma_rad_s = 0.0 must be positive"),
        ("big_gamma_over_gamma = 0.001", "big_gamma_over_gamma = -0.001",
         "[atom] big_gamma_over_gamma = -0.001 must be non-negative"),
        ("doppler_width_over_gamma = 70.0       # 141.12 is the alternative "
         "quoted width", "doppler_width_over_gamma = -70",
         "[atom] doppler_width_over_gamma = -70.0 must be non-negative"),
        ("cell_length_cm = 5.0", "cell_length_cm = 0",
         "[grid] cell_length_cm = 0.0 must be positive"),
    ]

    @pytest.mark.parametrize("old, new, message", BAD_VALUES,
                             ids=("kind%", "g0%", "target0", "target<0",
                                  "width<0", "waist0", "control_g0<0",
                                  "gamma0", "big_gamma<0", "doppler<0",
                                  "cell0"))
    def test_bad_value_names_its_line(self, tmp_path, old, new, message):
        base = (PRESETS / "guided_gaussian.ini").read_text()
        assert base.count(old) == 1
        text = base.replace(old, new)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        line = text.splitlines().index(new) + 1
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert err.value.violations == [f"line {line}: {message}"]

    def test_every_atom_and_grid_range_problem_names_its_line(self,
                                                              tmp_path):
        # the wavelength is the control beam's too; it is listed once
        base = (PRESETS / "guided_gaussian.ini").read_text()
        text = base
        for old, new in (
                ("gamma_rad_s = 9.42477796076938e6      # 3*pi*1e6",
                 "gamma_rad_s = -1"),
                ("density_cm3 = 1.0e12", "density_cm3 = 0"),
                ("lambda_cm = 794.98e-7", "lambda_cm = 0"),
                ("nx = 256", "nx = 300"),
                ("extent_cm = 0.24", "extent_cm = -1"),
                ("dz_cm = 0.005", "dz_cm = 0")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "ranges.ini"
        path.write_text(text)
        lines = text.splitlines()
        with pytest.raises(ConfigurationError) as err:
            parse_config(path)
        assert err.value.violations == [
            f"line {lines.index(line) + 1}: {message}" for line, message in (
                ("gamma_rad_s = -1",
                 "[atom] gamma_rad_s = -1.0 must be positive"),
                ("density_cm3 = 0", "[atom] density_cm3 = 0.0 must be positive"),
                ("lambda_cm = 0", "[atom] lambda_cm = 0.0 must be positive"),
                ("extent_cm = -1", "[grid] extent_cm = -1.0 must be positive"),
                ("dz_cm = 0", "[grid] dz_cm = 0.0 must be positive"))
        ] + ["nx must be a power of two, got 300"]

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
        grid = TransverseGrid(nx=8, ny=4, extent=0.08)
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
        # the file alone gives the whole field: nothing is made up
        assert back.grid == field.grid

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


def formatted(values) -> bytes:
    """The CSV writers' text of one column of values."""
    fh = io.BytesIO()
    fieldio._write_rows(fh, [np.asarray(values, dtype=float)])
    return fh.getvalue()


def python_formatted(values) -> bytes:
    return "".join("%.9e\n" % v for v in values).encode()


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any float64 bit pattern (NaN payloads, subnormals, both zeros, both
# infinities), hypothesis's own float choices, and the range that the
# arithmetic path formats
ANY_FLOAT64 = st.one_of(st.integers(0, 2**64 - 1).map(bits_to_float),
                        st.floats(), st.floats(-1e99, 1e99))


def decade_edges():
    for k in range(-99, 100):
        for p in {10.0 ** k, float(10 ** k) if k >= 0 else 1 / 10 ** -k}:
            roll = 9.9999999995 * p  # 9.9999999995e-5 and its kind
            for v in (p, roll):
                yield from (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf))


EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, -1.7976931348623157e308,
         1e-99, 9.99999999949e-100, 9.9999999995e-100, 1e100,
         9.9999999995e-5, 9.99999999949e-5, 9.99999999951e-5,
         1.0000000005, 1234567890.5, 2.5, 0.5,
         # near ten-digit halves, a * 10**(9 - e) in floats lands on the
         # half or across it, so its rint would give the wrong last digit
         0.058926249235, 2.1185494885e-09, 1.1487487195e-41,
         7.5668990175e+37, 1.2548770405e-99, 1.9219718025e-82,
         1.9163722955e-20, 7.2808517985e+59, 8.2165585235e-47,
         *decade_edges()]


class TestCsvWriters:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(ANY_FLOAT64, min_size=1, max_size=64))
    def test_formatter_equals_python_on_any_float64(self, values):
        assert formatted(values) == python_formatted(values)

    def test_formatter_equals_python_at_decade_and_rounding_edges(self):
        values = EDGES + [-v for v in EDGES]
        assert formatted(values) == python_formatted(values)

    @pytest.mark.parametrize("block", [7, fieldio.CSV_BLOCK])
    def test_chi_scan_csv_equals_python_text(self, tmp_path, monkeypatch,
                                             block):
        monkeypatch.setattr(fieldio, "CSV_BLOCK", block)
        rng = np.random.default_rng(4)
        r = np.linspace(-0.03, 0.03, 23)
        d = rng.uniform(-0.1, 0.05, r.size)
        chi = rng.normal(size=r.size) * 1e-4 + 1j * rng.normal(size=r.size)
        chi[[0, 5]] = [0.0, complex(-0.0, np.nan)]
        path = write_chi_scan_csv(tmp_path / "chi.csv", r, d, chi)
        assert path.read_bytes() == (
            "r_cm,delta_R_over_gamma,re_chi,im_chi\n" + "".join(
                "%.9e,%.9e,%.9e,%.9e\n" % (r[i], d[i], c.real, c.imag)
                for i, c in enumerate(chi))).encode()

    @pytest.mark.parametrize("block", [7, fieldio.CSV_BLOCK])
    def test_profile_csv_equals_python_text(self, tmp_path, monkeypatch,
                                            block):
        monkeypatch.setattr(fieldio, "CSV_BLOCK", block)
        grid = TransverseGrid(nx=5, ny=3, extent=0.06)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        values[1, 2] = 0.0
        path = write_profile_csv(tmp_path / "profile.csv",
                                 ComplexField2D(values, grid, z=0.1))
        x, y = grid.axes()
        intensity = np.abs(values) ** 2
        # a blank line after each x, for gnuplot's splot
        expected = "x_cm,y_cm,intensity\n" + "".join(
            "".join(f"{x[i]:.9e},{y[j]:.9e},{intensity[i, j]:.9e}\n"
                    for j in range(3)) + "\n"
            for i in range(5))
        assert path.read_text() == expected


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
