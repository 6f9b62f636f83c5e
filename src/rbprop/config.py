"""Sectioned key-value configuration files.

Every gap-filling default is tracked so the run manifest can flag it.
Unknown sections or keys are hard errors, reported with their line numbers
and all at once.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .beams import PROBE_KINDS, ControlBeamSpec, ProbeSpec, center_problems
from .params import (ConfigurationError, GridSpec, PhysicalParams,
                     TransverseGrid)

# schema: section -> key -> (type, default or MANDATORY)
_MANDATORY = object()

_SCHEMA = {
    "atom": {
        "gamma_rad_s": (float, _MANDATORY),
        "big_gamma_over_gamma": (float, _MANDATORY),
        "density_cm3": (float, _MANDATORY),
        "lambda_cm": (float, _MANDATORY),
        "doppler_width_over_gamma": (float, _MANDATORY),
    },
    "detuning": {
        "delta_p_over_gamma": (float, _MANDATORY),
        "delta_R_over_gamma": (float, _MANDATORY),
    },
    "grid": {
        "nx": (int, 256),
        "ny": (int, 256),
        "extent_cm": (float, 0.24),
        "dz_cm": (float, 50.0e-4),
        "cell_length_cm": (float, 5.0),
    },
    "control": {
        "g0_over_gamma": (float, 1.0),
        "waist_cm": (float, 120.0e-4),
        # waist at the back of the cell unless stated
        "waist_position_cm": (float, None),
    },
    "probe": {
        "kind": (str, "gaussian"),
        "g0_over_gamma": (float, 0.2),
        "width_cm": (float, 48.0e-4),
        "centers_cm": (str, ""),
    },
    "run": {
        "snapshot_every": (int, 100),
        "chi_table": (bool, True),
        "table_target_error": (float, 1.0e-4),
    },
    "scan": {
        "r_min_cm": (float, -0.03),
        "r_max_cm": (float, 0.03),
        "r_points": (int, 61),
        "delta_R_min_over_gamma": (float, -0.1),
        "delta_R_max_over_gamma": (float, 0.05),
        "delta_R_points": (int, 151),
        "z_cm": (float, 0.0),
    },
    "oracle": {
        "draws": (int, 100),
    },
}

# integer keys that count something and must be at least 1
_COUNTS = {("run", "snapshot_every"), ("scan", "r_points"),
           ("scan", "delta_R_points"), ("oracle", "draws")}
# float keys that must be above 0
_POSITIVE = {("atom", "gamma_rad_s"), ("atom", "density_cm3"),
             ("atom", "lambda_cm"), ("grid", "extent_cm"), ("grid", "dz_cm"),
             ("grid", "cell_length_cm"), ("run", "table_target_error"),
             ("control", "waist_cm"), ("probe", "width_cm")}
# float keys that must not be below 0
_NON_NEGATIVE = {("atom", "big_gamma_over_gamma"),
                 ("atom", "doppler_width_over_gamma"),
                 ("control", "g0_over_gamma"), ("probe", "g0_over_gamma")}
# string keys that take one of a few values
_CHOICES = {("probe", "kind"): PROBE_KINDS}


@dataclass
class SimulationConfig:
    """Fully resolved configuration plus the list of defaulted keys."""

    params: PhysicalParams
    grid: GridSpec
    control: ControlBeamSpec
    probe: ProbeSpec
    run: dict
    scan: dict
    oracle: dict
    defaulted_keys: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)


def _coerce(section: str, key: str, text: str, typ, line: int):
    try:
        if typ is bool:
            v = configparser.ConfigParser.BOOLEAN_STATES.get(
                text.strip().lower())
            if v is None:
                raise ValueError(text)
            return v
        if typ is int:
            return int(text)
        if typ is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(text)
            return value
        return text.strip()
    except ValueError:
        kind = "finite float" if typ is float else typ.__name__
        raise ConfigurationError(
            [f"line {line}: [{section}] {key} = {text!r} is not a valid "
             f"{kind}"]) from None


def _line_numbers(path: Path) -> dict:
    """Map (section, key) -> line number for error reporting."""
    out = {}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out[(section, None)] = lineno
        elif section is not None and ("=" in line or ":" in line):
            # configparser splits a line at its first "=" or ":"
            key = line.split("=", 1)[0].split(":", 1)[0].strip()
            out[(section, key)] = lineno
    return out


def parse_config(path: str | Path) -> SimulationConfig:
    """Parse, apply defaults, validate; raise ConfigurationError with the
    complete list of problems otherwise."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError([f"config file {path} does not exist"])
    # no interpolation: a "%" in a value is text like any other
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    cp.optionxform = str  # keys are case sensitive (delta_R vs delta_r)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError([f"config parse failure: {exc}"]) from None

    lines = _line_numbers(path)
    problems: list[str] = []
    resolved: dict[str, dict] = {}
    defaulted: list[str] = []
    unread = False  # a key with no value to resolve the config from
    out_of_range: set[str] = set()  # sections with a value out of range

    for section in cp.sections():
        if section not in _SCHEMA:
            problems.append(
                f"line {lines.get((section, None), '?')}: unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                problems.append(
                    f"line {lines.get((section, key), '?')}: unknown key "
                    f"[{section}] {key}")

    for section, keys in _SCHEMA.items():
        resolved[section] = {}
        for key, (typ, default) in keys.items():
            if cp.has_option(section, key):
                lineno = lines.get((section, key), 0)
                try:
                    value = _coerce(section, key, cp.get(section, key), typ,
                                    lineno)
                except ConfigurationError as exc:
                    problems.extend(exc.violations)
                    unread = True
                    continue
                where = f"line {lineno}: [{section}] {key} = {value!r}"
                found = len(problems)
                if (section, key) in _COUNTS and value < 1:
                    problems.append(f"{where} must be at least 1")
                if (section, key) in _POSITIVE and not value > 0:
                    problems.append(f"{where} must be positive")
                if (section, key) in _NON_NEGATIVE and value < 0:
                    problems.append(f"{where} must be non-negative")
                choices = _CHOICES.get((section, key))
                if choices is not None and value not in choices:
                    problems.append(f"{where} is not one of {choices}")
                if len(problems) > found:
                    out_of_range.add(section)
                resolved[section][key] = value
            elif default is _MANDATORY:
                problems.append(f"missing mandatory key [{section}] {key}")
                unread = True
            else:
                resolved[section][key] = default
                defaulted.append(f"{section}.{key}")

    if unread:
        raise ConfigurationError(problems)

    # waist position default: control focused at the back of the cell
    if resolved["control"]["waist_position_cm"] is None:
        resolved["control"]["waist_position_cm"] = resolved["grid"]["cell_length_cm"]

    # every unreadable center is reported with the problems found below
    centers_line = lines.get(("probe", "centers_cm"), 0)
    unread_centers: list[str] = []
    centers = []
    for text in resolved["probe"]["centers_cm"].split(","):
        if text.strip():
            try:
                centers.append(_coerce("probe", "centers_cm", text, float,
                                       centers_line))
            except ConfigurationError as exc:
                unread_centers.extend(exc.violations)
    centers = tuple(centers)
    kind = resolved["probe"]["kind"]
    if not centers:
        if kind == "double_gaussian":
            centers = (-70.0e-4, 70.0e-4)
            defaulted.append("probe.centers_cm")
        elif kind == "sech_multi":
            centers = (-120.0e-4, 0.0, 120.0e-4)
            defaulted.append("probe.centers_cm")
    # the manifest lists the centers the run uses, defaults included
    resolved["probe"]["centers_cm"] = centers

    params = PhysicalParams(
        gamma=resolved["atom"]["gamma_rad_s"],
        big_gamma=resolved["atom"]["big_gamma_over_gamma"],
        delta_p=resolved["detuning"]["delta_p_over_gamma"],
        delta_R=resolved["detuning"]["delta_R_over_gamma"],
        doppler_width=resolved["atom"]["doppler_width_over_gamma"],
        density=resolved["atom"]["density_cm3"],
        wavelength=resolved["atom"]["lambda_cm"],
    )
    grid = GridSpec(
        TransverseGrid(nx=resolved["grid"]["nx"], ny=resolved["grid"]["ny"],
                       extent=resolved["grid"]["extent_cm"]),
        dz=resolved["grid"]["dz_cm"],
        cell_length=resolved["grid"]["cell_length_cm"],
    )
    # the structure of the centers is checked once every one is read
    bad_centers = unread_centers or [
        f"line {centers_line}: [probe] centers_cm = {centers!r}: {message}"
        for message in center_problems(kind, centers)]
    problems += bad_centers
    # a spec is built only from values in range, which its own checks would
    # report again without their line; the control takes the atom's
    # wavelength
    control = None
    if not out_of_range & {"atom", "control"}:
        control = ControlBeamSpec(
            G0=resolved["control"]["g0_over_gamma"],
            waist_wc=resolved["control"]["waist_cm"],
            waist_position_z0=resolved["control"]["waist_position_cm"],
            wavelength=params.wavelength,
        )
    probe = None  # unless it is valid, no width for the resolution check
    if not bad_centers and "probe" not in out_of_range:
        probe = ProbeSpec(
            kind=kind,
            g0=resolved["probe"]["g0_over_gamma"],
            width=resolved["probe"]["width_cm"],
            centers=centers,
        )
    problems += grid.violations(None if probe is None else probe.width)
    if problems:
        raise ConfigurationError(problems)
    return SimulationConfig(
        params=params, grid=grid, control=control, probe=probe,
        run=resolved["run"], scan=resolved["scan"], oracle=resolved["oracle"],
        defaulted_keys=defaulted, raw=resolved,
    )


def config_as_dict(cfg: SimulationConfig) -> dict:
    """JSON-friendly resolved configuration (for the manifest)."""
    return {section: dict(keys) for section, keys in cfg.raw.items()}
