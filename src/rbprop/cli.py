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
from .fieldio import (SNAPSHOT_SUFFIX, OutputLock, OutputLockError,
                      RunManifest, SnapshotFormatError, read_field,
                      sha256_of, write_chi_scan_csv, write_diagnostics_csv,
                      write_field, write_profile_csv)
from .params import prefactor_over_gamma
from .solver import NumericsError, StepPlan, propagate
from .susceptibility import (ChiTableError, FieldPoint,
                             OracleConvergenceError, chi_doppler_averaged,
                             chi_stationary, steady_state_oracle)
from .beams import _radial_intensity, make_probe

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2


def cmd_chi_scan(cfg, out_dir: Path, args) -> list[Path]:
    scan = cfg.scan
    r_values = np.linspace(scan["r_min_cm"], scan["r_max_cm"], scan["r_points"])
    d_values = np.linspace(scan["delta_R_min_over_gamma"],
                           scan["delta_R_max_over_gamma"],
                           scan["delta_R_points"])
    z = scan["z_cm"]
    g2 = np.full(r_values.shape, cfg.probe.g0 ** 2)
    G2 = _radial_intensity(cfg.control, r_values * r_values, z)
    chi = np.empty((d_values.size, r_values.size), dtype=complex)
    for i, d in enumerate(d_values):
        params_d = replace(cfg.params, delta_R=float(d))
        chi[i] = chi_doppler_averaged(FieldPoint(g2, G2), params_d)
    r = np.tile(r_values, d_values.size)
    d = np.repeat(d_values, r_values.size)
    order = np.lexsort((d, r))  # by radius, then detuning
    out = write_chi_scan_csv(out_dir / "chi_scan.csv", r[order], d[order],
                             chi.ravel()[order])
    print(f"wrote {out}")
    return [out]


def cmd_propagate(cfg, out_dir: Path, args) -> list[Path]:
    if cfg.probe.g0 == 0.0:
        # a dark probe has no width for the diagnostics to measure
        raise ConfigurationError(
            ["[probe] g0_over_gamma = 0 must be positive to propagate"])
    plan = StepPlan(cfg.grid, order=args.order)
    probe = make_probe(cfg.probe, cfg.grid.transverse)
    digits = len(str(cfg.grid.n_steps))
    outputs = []
    diagnostics = RunDiagnostics()

    def on_snapshot(step, snap):
        # each snapshot is written and diagnosed when it is taken, so the run
        # holds none; one that fails later leaves those it wrote, which an
        # earlier run's manifest must not list
        if not outputs:
            (out_dir / "manifest.json").unlink(missing_ok=True)
        outputs.append(
            write_field(out_dir / f"field_step{step:0{digits}d}.rbpf", snap))
        diagnostics.append(diagnose(snap))

    end = propagate(
        probe, cfg.control, cfg.params, cfg.grid, plan,
        snapshot_every=cfg.run["snapshot_every"],
        use_table=cfg.run["chi_table"],
        table_target_error=cfg.run["table_target_error"],
        on_snapshot=on_snapshot,
    )
    outputs.append(write_diagnostics_csv(out_dir / "diagnostics.csv",
                                         diagnostics.records))
    print(f"propagated to z = {end.z:g} cm; "
          f"{len(diagnostics.records)} snapshots in {out_dir}")
    return outputs


def cmd_analyze(cfg, out_dir: Path, args) -> list[Path]:
    # the run's own snapshots, in its order, each with its checksum; files
    # an earlier run left in the directory are not listed
    listing = out_dir / "manifest.json"
    try:
        snapshots = [(out_dir / o["path"], o["sha256"])
                     for o in RunManifest.read(listing)["outputs"]
                     if o["path"].endswith(SNAPSHOT_SUFFIX)]
    except FileNotFoundError:
        raise ConfigurationError(
            [f"no {listing.name} of a propagate run in {out_dir}"]) from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(
            [f"cannot read the snapshot list in {listing}: {exc!r}"]) from exc
    if not snapshots:
        raise ConfigurationError([f"{listing} lists no field snapshots"])
    # one snapshot at a time: verified, read and diagnosed before the next
    diagnostics = RunDiagnostics()
    for path, sha256 in snapshots:
        if not path.exists():
            raise SnapshotFormatError(f"{path}: listed in {listing.name} "
                                      "but missing")
        if sha256_of(path) != sha256:
            raise SnapshotFormatError(f"{path}: checksum does not match "
                                      f"{listing.name}")
        fld = read_field(path)
        try:
            diagnostics.append(diagnose(fld))
        except ValueError as exc:  # RunDiagnostics refuses z out of order
            raise ConfigurationError([f"{listing}: {exc}"]) from None
    csv_path = write_diagnostics_csv(out_dir / "analysis.csv",
                                     diagnostics.records)
    profile_path = write_profile_csv(out_dir / "profile.csv", fld)
    print(f"analyzed {len(snapshots)} snapshots; "
          f"wrote {csv_path} and {profile_path}")
    return [csv_path, profile_path]


def cmd_oracle(cfg, args) -> int:
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
        if name != "oracle":  # the oracle writes no files
            p.add_argument("--out", default="rbprop-out",
                           help="output directory")
        if name == "propagate":
            p.add_argument("--order", type=int, choices=(2, 4), default=2,
                           help="splitting order")
        if name == "oracle":
            p.add_argument("--seed", type=int, default=0,
                           help="seed of the random parameter draws")
    return parser


# the commands that write files, each with the manifest that lists them
_WRITERS = {
    "chi-scan": (cmd_chi_scan, "manifest.json"),
    "propagate": (cmd_propagate, "manifest.json"),
    "analyze": (cmd_analyze, "analysis_manifest.json"),
}


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


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
        if args.command == "oracle":
            return cmd_oracle(cfg, args)
        out_dir = Path(args.out)
        with OutputLock(out_dir):
            command, manifest_name = _WRITERS[args.command]
            # the seed is null: only oracle draws random numbers, and it
            # writes no manifest
            manifest = RunManifest(
                tool_version=__version__, config=config_as_dict(cfg),
                defaulted_keys=cfg.defaulted_keys, seed=None,
                started_at=_utc_now())
            for path in command(cfg, out_dir, args):
                manifest.add_output(path)
            manifest.finished_at = _utc_now()
            manifest.write(out_dir / manifest_name)
            return EXIT_OK
    except (ConfigurationError, OutputLockError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SnapshotFormatError as exc:
        print(f"unreadable snapshot: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, OracleConvergenceError, ChiTableError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
