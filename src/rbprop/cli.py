"""Command line interface.

Subcommands: chi-scan, propagate, analyze, oracle.  Exit status 0 on success,
1 on configuration or usage errors or an unreadable snapshot, 2 on numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import RunDiagnostics, diagnose
from .config import ConfigurationError, config_as_dict, parse_config
from .fieldio import (OutputLock, OutputLockError, RunManifest,
                      SnapshotFormatError, read_field, write_chi_scan_csv,
                      write_diagnostics_csv, write_field, write_profile_csv)
from .params import prefactor_over_gamma
from .solver import NumericsError, StepPlan, propagate
from .susceptibility import (FieldPoint, OracleConvergenceError,
                             TableRefinementError, chi_doppler_averaged,
                             chi_stationary, steady_state_oracle)
from .beams import control_field, make_probe

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2


def _start_manifest(cfg) -> RunManifest:
    # only oracle draws random numbers, and it writes no manifest
    return RunManifest(
        tool_version=__version__,
        config=config_as_dict(cfg),
        defaulted_keys=cfg.defaulted_keys,
        seed=None,
        started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def cmd_chi_scan(cfg, out_dir: Path, args) -> int:
    scan = cfg.scan
    manifest = _start_manifest(cfg)
    r_values = np.linspace(scan["r_min_cm"], scan["r_max_cm"], scan["r_points"])
    d_values = np.linspace(scan["delta_R_min_over_gamma"],
                           scan["delta_R_max_over_gamma"],
                           scan["delta_R_points"])
    z = scan["z_cm"]
    g2 = np.full(r_values.shape, cfg.probe.g0 ** 2)
    G2 = np.abs(control_field(cfg.control, r_values, 0.0, z)) ** 2
    chi = np.empty((d_values.size, r_values.size), dtype=complex)
    for i, d in enumerate(d_values):
        params_d = replace(cfg.params, delta_R=float(d))
        chi[i] = chi_doppler_averaged(FieldPoint(g2, G2), params_d)
    r = np.tile(r_values, d_values.size)
    d = np.repeat(d_values, r_values.size)
    order = np.lexsort((d, r))  # by radius, then detuning
    out = write_chi_scan_csv(out_dir / "chi_scan.csv", r[order], d[order],
                             chi.ravel()[order])
    manifest.add_output(out)
    manifest.finished_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest.write(out_dir / "manifest.json")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_propagate(cfg, out_dir: Path, args) -> int:
    if cfg.probe.g0 == 0.0:
        # a dark probe has no width for the diagnostics to measure
        raise ConfigurationError(
            ["[probe] g0_over_gamma = 0 must be positive to propagate"])
    manifest = _start_manifest(cfg)
    plan = StepPlan(cfg.grid, order=args.order)
    probe = make_probe(cfg.probe, cfg.grid)
    result = propagate(
        probe, cfg.control, cfg.params, cfg.grid, plan,
        snapshot_every=cfg.run["snapshot_every"],
        use_table=cfg.run["chi_table"],
        table_target_error=cfg.run["table_target_error"],
        absorbing_boundary=cfg.run["absorbing_boundary"],
    )
    diagnostics = RunDiagnostics(input_power=probe.power())
    digits = len(str(cfg.grid.n_steps))
    for step, snap in zip(result.snapshot_steps, result.snapshots):
        diagnostics.append(diagnose(snap))
        out = write_field(out_dir / f"field_step{step:0{digits}d}.rbpf", snap)
        manifest.add_output(out)
    csv_path = write_diagnostics_csv(out_dir / "diagnostics.csv",
                                     diagnostics.records)
    manifest.add_output(csv_path)
    manifest.finished_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest.write(out_dir / "manifest.json")
    print(f"propagated to z = {result.field.z:g} cm; "
          f"{len(result.snapshots)} snapshots in {out_dir}")
    return EXIT_OK


def cmd_analyze(cfg, out_dir: Path, args) -> int:
    snapshots = sorted(out_dir.glob("*.rbpf"))
    if not snapshots:
        raise ConfigurationError([f"no field snapshots in {out_dir}"])
    manifest = _start_manifest(cfg)
    fields = sorted((read_field(p, cfg.grid) for p in snapshots),
                    key=lambda f: f.z)
    diagnostics = RunDiagnostics(input_power=fields[0].power())
    for fld in fields:
        diagnostics.append(diagnose(fld))
    last = fields[-1]
    csv_path = write_diagnostics_csv(out_dir / "analysis.csv",
                                     diagnostics.records)
    manifest.add_output(csv_path)
    profile_path = write_profile_csv(out_dir / "profile.csv", last)
    manifest.add_output(profile_path)
    manifest.finished_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest.write(out_dir / "analysis_manifest.json")
    print(f"analyzed {len(diagnostics.records)} snapshots; "
          f"wrote {csv_path} and {profile_path}")
    return EXIT_OK


def cmd_oracle(cfg, out_dir: Path, args) -> int:
    rng = np.random.default_rng(args.seed)
    pref = prefactor_over_gamma(cfg.params)
    draws = cfg.oracle["draws"]
    worst = 0.0
    worst_draw = None
    for _ in range(draws):
        g = rng.uniform(0.01, 2.0)
        G = rng.uniform(0.01, 2.0)
        big_gamma = rng.uniform(1.0e-4, 1.0e-2)
        delta_p = rng.uniform(-300.0, 300.0)
        delta_R = rng.uniform(-0.1, 0.1)
        delta_c = delta_p - delta_R
        point = FieldPoint(g * g, G * G)
        closed = chi_stationary(point, delta_p, delta_c, big_gamma, pref)
        ode = steady_state_oracle(point, delta_p, delta_c, big_gamma, pref)
        rel = abs(closed - ode) / abs(ode)
        if rel > worst:
            worst = rel
            worst_draw = (g, G, big_gamma, delta_p, delta_R)
    print(f"oracle sweep: {draws} draws, max relative error {worst:.3e}")
    if worst_draw is not None:
        g, G, bg, dp, dr = worst_draw
        print(f"  worst at g={g:.4f} G={G:.4f} big_gamma={bg:.2e} "
              f"delta_p={dp:.2f} delta_R={dr:.4f}")
    return EXIT_OK if worst < 1.0e-6 else EXIT_NUMERICS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbprop",
        description="Probe beam propagation through a structured Raman vapor")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("chi-scan", "susceptibility map over radius and Raman detuning"),
            ("propagate", "split-step propagation through the cell"),
            ("analyze", "widths, powers and peaks from stored snapshots"),
            ("oracle", "closed form vs density-matrix steady state")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default="rbprop-out", help="output directory")
        if name == "propagate":
            p.add_argument("--order", type=int, choices=(2, 4), default=2,
                           help="splitting order")
        if name == "oracle":
            p.add_argument("--seed", type=int, default=0,
                           help="seed of the random parameter draws")
    return parser


_COMMANDS = {
    "chi-scan": cmd_chi_scan,
    "propagate": cmd_propagate,
    "analyze": cmd_analyze,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error; --help and --version exit 0
        if exc.code != 2:
            raise
        return EXIT_CONFIG
    try:
        cfg = parse_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with OutputLock(out_dir):
            return _COMMANDS[args.command](cfg, out_dir, args)
    except (ConfigurationError, OutputLockError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SnapshotFormatError as exc:
        print(f"unreadable snapshot: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, OracleConvergenceError, TableRefinementError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
