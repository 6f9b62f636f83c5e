"""Sectioned key-value configuration files: the one place a run's
configuration is checked.

Every gap-filling default is tracked so the run manifest can flag it.
Unknown sections or keys and values out of range, alone or together, are
hard errors, each reported with its key and line and all at once.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .beams import (DEFAULT_CENTERS, PROBE_KINDS, ControlBeamSpec, ProbeSpec,
                    center_problems)
from .params import (ConfigurationError, GridSpec, PhysicalParams,
                     TransverseGrid)


def _rule(ok, problem: str):
    """A key's check: a value read maps to None if ``ok``, else ``problem``."""
    return lambda value: None if ok(value) else problem


_count = _rule(lambda n: n >= 1, "must be at least 1")
_positive = _rule(lambda x: x > 0, "must be positive")
_non_negative = _rule(lambda x: x >= 0, "must be non-negative")
_power_of_two = _rule(lambda n: n >= 2 and n & (n - 1) == 0,
                      "must be a power of two above 1")

# schema: section -> key -> (type, default or MANDATORY, rule or None)
_MANDATORY = object()

_SCHEMA = {
    "atom": {
        "gamma_rad_s": (float, _MANDATORY, _positive),
        "big_gamma_over_gamma": (float, _MANDATORY, _non_negative),
        "density_cm3": (float, _MANDATORY, _positive),
        "lambda_cm": (float, _MANDATORY, _positive),
        "doppler_width_over_gamma": (float, _MANDATORY, _non_negative),
    },
    "detuning": {
        "delta_p_over_gamma": (float, _MANDATORY, None),
        "delta_R_over_gamma": (float, _MANDATORY, None),
    },
    "grid": {
        "nx": (int, 256, _power_of_two),
        "ny": (int, 256, _power_of_two),
        "extent_cm": (float, 0.24, _positive),
        "dz_cm": (float, 50.0e-4, _positive),
        "cell_length_cm": (float, 5.0, _positive),
    },
    "control": {
        "g0_over_gamma": (float, 1.0, _non_negative),
        "waist_cm": (float, 120.0e-4, _positive),
        # waist at the back of the cell unless stated
        "waist_position_cm": (float, None, None),
    },
    "probe": {
        "kind": (str, "gaussian", _rule(lambda kind: kind in PROBE_KINDS,
                                        f"is not one of {PROBE_KINDS}")),
        "g0_over_gamma": (float, 0.2, _non_negative),
        "width_cm": (float, 48.0e-4, _positive),
        "centers_cm": (str, "", None),
    },
    "run": {
        "snapshot_every": (int, 100, _count),
        "chi_table": (bool, True, None),
        "table_target_error": (float, 1.0e-4, _positive),
    },
    "scan": {
        "r_min_cm": (float, -0.03, None),
        "r_max_cm": (float, 0.03, None),
        "r_points": (int, 61, _count),
        "delta_R_min_over_gamma": (float, -0.1, None),
        "delta_R_max_over_gamma": (float, 0.05, None),
        "delta_R_points": (int, 151, _count),
        "z_cm": (float, 0.0, None),
    },
    "oracle": {
        "draws": (int, 100, _count),
    },
}

# an inline comment as configparser strips it: "#" or ";" after whitespace
_INLINE_COMMENT = re.compile(r"\s[#;].*")


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
    # (section, key) -> line of each key the file sets, for the problems
    # that only a subcommand finds
    lines: dict = field(default_factory=dict)


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


def _line_numbers(text: str) -> dict:
    """Map (section, key) -> line number for error reporting."""
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        line = _INLINE_COMMENT.sub("", line)
        header = configparser.ConfigParser.SECTCRE.match(line)
        if header:
            section = header.group("header")
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
    # no interpolation: a "%" in a value is text like any other; and as no
    # header holds a newline, a [DEFAULT] section is one like any other
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, default_section="\n")
    cp.optionxform = str  # keys are case sensitive (delta_R vs delta_r)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            [f"cannot read config file {path}: {exc}"]) from None
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError([f"config parse failure: {exc}"]) from None

    lines = _line_numbers(text)
    problems: list[str] = []
    resolved: dict[str, dict] = {}
    defaulted: list[str] = []
    unread = False  # a key with no value to resolve the config from
    out_of_range: set[str] = set()  # sections with a value out of range

    def at(section: str, key: str) -> str:
        """A key and its value, after its line or the word "default"."""
        where = (f"line {lines.get((section, key), 0)}:"
                 if cp.has_option(section, key) else "default")
        return f"{where} [{section}] {key} = {resolved[section][key]!r}"

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
        for key, (typ, default, rule) in keys.items():
            if cp.has_option(section, key):
                lineno = lines.get((section, key), 0)
                try:
                    value = _coerce(section, key, cp.get(section, key), typ,
                                    lineno)
                except ConfigurationError as exc:
                    problems.extend(exc.violations)
                    unread = True
                    continue
                resolved[section][key] = value
                problem = rule and rule(value)
                if problem:
                    problems.append(f"{at(section, key)} {problem}")
                    out_of_range.add(section)
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
    if not centers and DEFAULT_CENTERS.get(kind):
        centers = DEFAULT_CENTERS[kind]
        if "probe.centers_cm" not in defaulted:  # not flagged as absent
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
    # a whole number of steps, at least one, ends the run at the cell's end
    dz, cell = grid.dz, grid.cell_length
    if dz > 0 and cell > 0 and abs(grid.n_steps * dz - cell) > 1e-9 * cell:
        problems.append(
            f"{at('grid', 'cell_length_cm')} is not a whole number (at least "
            f"1) of steps of {at('grid', 'dz_cm')} ({cell / dz:.6g} steps)")
    # the structure of the centers is checked once every one is read
    bad_centers = unread_centers or [
        f"{at('probe', 'centers_cm')}: {message}"
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
    # the probe's diameter (twice its 1/e amplitude width) spans >= 8 cells
    # along the coarser axis, the one with fewer points
    transverse = grid.transverse
    coarse, n = min(("nx", transverse.nx), ("ny", transverse.ny),
                    key=lambda axis: axis[1])
    if probe is not None and n > 0 and transverse.extent > 0:
        samples = 2.0 * probe.width / (transverse.extent / n)
        if samples < 8.0:
            problems.append(
                f"{at('probe', 'width_cm')} gives a diameter of only "
                f"{samples:.2f} cells of {at('grid', coarse)} across "
                f"{at('grid', 'extent_cm')}; at least 8 are required")
    if problems:
        raise ConfigurationError(problems)
    return SimulationConfig(
        params=params, grid=grid, control=control, probe=probe,
        run=resolved["run"], scan=resolved["scan"], oracle=resolved["oracle"],
        defaulted_keys=defaulted, raw=resolved, lines=lines,
    )


def config_as_dict(cfg: SimulationConfig) -> dict:
    """JSON-friendly resolved configuration (for the manifest)."""
    return {section: dict(keys) for section, keys in cfg.raw.items()}
