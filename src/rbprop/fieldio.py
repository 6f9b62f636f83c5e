"""On-disk formats: binary field snapshots, CSV outputs, the run manifest,
and the output-directory lock."""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .field import ComplexField2D
from .params import GridSpec

SNAPSHOT_MAGIC = b"RBPF"
SNAPSHOT_VERSION = 1
SNAPSHOT_SUFFIX = ".rbpf"


class SnapshotFormatError(ValueError):
    pass


def write_field(path: str | Path, field: ComplexField2D) -> Path:
    """Write a field snapshot.

    Layout (all little-endian): magic "RBPF", u32 format version, u64 nx,
    u64 ny, f64 extent_cm, f64 z_cm, then nx*ny complex samples row-major as
    (real, imaginary) f64 pairs.
    """
    path = Path(path)
    header = SNAPSHOT_MAGIC + struct.pack(
        "<IQQdd", SNAPSHOT_VERSION, field.grid.nx, field.grid.ny,
        field.grid.extent, field.z)
    data = np.ascontiguousarray(field.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
    return path


def read_field(path: str | Path, grid_template: GridSpec | None = None) -> ComplexField2D:
    """Read a snapshot written by write_field.

    The embedded nx, ny, extent reconstruct the transverse grid; dz and
    cell_length are taken from ``grid_template`` when given (they are not
    stored in the snapshot) and default to placeholders otherwise.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 40:
        raise SnapshotFormatError(f"{path}: header cut short at {len(raw)} "
                                  "bytes")
    version, nx, ny, extent, z = struct.unpack("<IQQdd", raw[4:4 + 36])
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    expected = 4 + 36 + 16 * nx * ny
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"{path}: size {len(raw)} does not match header ({expected})")
    values = np.frombuffer(raw[40:], dtype="<c16").reshape(nx, ny)
    if grid_template is not None:
        grid = GridSpec(nx=nx, ny=ny, extent=extent,
                        dz=grid_template.dz, cell_length=grid_template.cell_length)
    else:
        grid = GridSpec(nx=nx, ny=ny, extent=extent, dz=1.0, cell_length=1.0)
    return ComplexField2D(values.copy(), grid, z)


def write_diagnostics_csv(path: str | Path, records) -> Path:
    """Diagnostics table: z_cm, width_cm, total_power, peak_positions.

    Peak positions are semicolon-joined so the file stays one row per z.
    """
    path = Path(path)
    lines = ["z_cm,width_cm,total_power,peak_positions"]
    for rec in records:
        peaks = ";".join(f"{p:.9e}" for p in rec.peak_positions)
        lines.append(f"{rec.z:.9e},{rec.width:.9e},{rec.total_power:.9e},{peaks}")
    path.write_text("\n".join(lines) + "\n")
    return path


# rows formatted per string operation when writing a chi scan
CSV_BLOCK = 4096


def write_chi_scan_csv(path: str | Path, r, delta_R, chi) -> Path:
    """Susceptibility scan: r_cm, delta_R_over_gamma, re_chi, im_chi.

    One row per entry of the equal-length arrays, in the order given.
    """
    path = Path(path)
    table = np.column_stack([r, delta_R, chi.real, chi.imag])
    with open(path, "w") as fh:
        fh.write("r_cm,delta_R_over_gamma,re_chi,im_chi\n")
        for start in range(0, len(table), CSV_BLOCK):
            block = table[start:start + CSV_BLOCK]
            fh.write("%.9e,%.9e,%.9e,%.9e\n" * len(block)
                     % tuple(block.ravel().tolist()))
    return path


def write_profile_csv(path: str | Path, field: ComplexField2D) -> Path:
    """Gnuplot-ready intensity profile: x_cm, y_cm, intensity (blank-line blocks)."""
    path = Path(path)
    x, y = field.grid.axes()
    intensity = np.abs(field.values) ** 2
    chunks = ["x_cm,y_cm,intensity"]
    for i in range(field.grid.nx):
        for j in range(field.grid.ny):
            chunks.append(f"{x[i]:.9e},{y[j]:.9e},{intensity[i, j]:.9e}")
        chunks.append("")
    path.write_text("\n".join(chunks) + "\n")
    return path


def sha256_of(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Resolved configuration, provenance and checksummed output listing."""

    tool_version: str
    config: dict
    defaulted_keys: list[str]
    seed: int | None
    started_at: str = ""
    finished_at: str = ""
    outputs: list[dict] = field(default_factory=list)

    def add_output(self, path: str | Path):
        path = Path(path)
        self.outputs.append({
            "path": path.name,
            "bytes": path.stat().st_size,
            "sha256": sha256_of(path),
        })

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        payload = {
            "tool_version": self.tool_version,
            "config": self.config,
            "defaulted_keys": sorted(self.defaulted_keys),
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "outputs": self.outputs,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @staticmethod
    def read(path: str | Path) -> dict:
        return json.loads(Path(path).read_text())

    def verify_outputs(self, directory: str | Path) -> list[str]:
        """Return a list of checksum mismatches (empty when all match)."""
        directory = Path(directory)
        problems = []
        for entry in self.outputs:
            target = directory / entry["path"]
            if not target.exists():
                problems.append(f"{entry['path']}: missing")
            elif sha256_of(target) != entry["sha256"]:
                problems.append(f"{entry['path']}: checksum mismatch")
        return problems


LOCK_NAME = ".rbprop.lock"


class OutputLockError(RuntimeError):
    pass


class OutputLock:
    """Exclusive lock on an output directory (one run per directory).

    The lock is an ``fcntl.flock`` on LOCK_NAME inside the directory, so the
    kernel releases it when its holder exits, crashed or not; a lock file
    left behind by a dead run does not block the next one.  The holder
    removes the file on exit while still holding the lock, and a run that
    locked a file removed that way tries again on a fresh one.
    """

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / LOCK_NAME
        self._fd = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise OutputLockError(
                    f"output directory {self.path.parent} is locked by "
                    "another run") from None
            try:
                same = os.path.samestat(os.fstat(fd), os.stat(self.path))
            except FileNotFoundError:
                same = False
            if same:
                break
            os.close(fd)
        self._fd = fd
        os.ftruncate(fd, 0)
        os.write(fd, f"pid {os.getpid()} at {time.time()}\n".encode())
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            self.path.unlink(missing_ok=True)
            os.close(self._fd)
            self._fd = None
        return False
