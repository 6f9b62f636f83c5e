"""On-disk formats: binary field snapshots, CSV outputs, the run manifest,
and the output-directory lock."""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .field import ComplexField2D
from .params import TransverseGrid

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
    # a view of the field's own buffer wherever it is already "<c16"
    data = np.ascontiguousarray(field.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)
    return path


def read_field(path: str | Path) -> ComplexField2D:
    """Read a snapshot written by write_field: the whole field, its
    transverse grid rebuilt from the embedded nx, ny and extent."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(40)
        if header[:4] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {header[:4]!r}")
        if size < 40:
            raise SnapshotFormatError(f"{path}: header cut short at {size} "
                                      "bytes")
        version, nx, ny, extent, z = struct.unpack("<IQQdd", header[4:])
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version "
                                      f"{version}")
        expected = 4 + 36 + 16 * nx * ny
        if size != expected:
            raise SnapshotFormatError(
                f"{path}: size {size} does not match header ({expected})")
        # the samples are read straight into the field's one array
        values = np.empty((nx, ny), dtype="<c16")
        if fh.readinto(values) != values.nbytes:
            raise SnapshotFormatError(f"{path}: cut short while reading")
    return ComplexField2D(values, TransverseGrid(nx, ny, extent), z)


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


# a "%.9e" text, right-aligned in a slot wide enough for "-1.000000000e-308"
_SLOT = 17
# rows formatted per buffer when writing a CSV table
CSV_BLOCK = 8192
# rows written per piece of a formatted block (~75 kB, within the sizes
# glibc takes from its heap rather than mapping afresh)
_WRITE_ROWS = 1024
# a scaled mantissa below 1e10 carries two roundings, an error of at most
# 2.3e-6; its rint is proven unless its fraction is this close to a half
_HALF_MARGIN = 1.0e-5


@functools.cache
def _ascii_tables():
    """Read-only tables built at the first CSV write: "d.dddd" and "ddddd"
    of each of 0..99999 (6- and 5-byte items), "e+XX" of each exponent in
    -99..99 (4-byte items), and float(10**k) for k in 0..110."""
    tail = np.empty((100_000, 5), dtype=np.uint8)
    n = np.arange(100_000, dtype=np.int32)
    for col in range(4, -1, -1):  # one column at a time keeps temporaries small
        tail[:, col] = n % 10 + ord("0")
        n //= 10
    lead = np.empty((100_000, 6), dtype=np.uint8)
    lead[:, 0] = tail[:, 0]
    lead[:, 1] = ord(".")
    lead[:, 2:] = tail[:, 1:]
    exponent = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-99, 100)),
                             dtype="V4")
    powers = np.array([float(10 ** k) for k in range(111)])
    tables = (lead.view("V6")[:, 0], tail.view("V5")[:, 0], exponent, powers)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, e, powers):
    """a * 10**(9 - e): one rounding of an exact product or quotient of a
    and a correctly rounded power of ten."""
    k = 9 - e
    return np.where(k >= 0, a * powers[np.maximum(k, 0)],
                    a / powers[np.maximum(-k, 0)])


def _format_e9(values, text) -> None:
    """Write "%.9e" % v of each value, right-aligned and padded with spaces,
    into the rows of the uint8 array text (_SLOT columns).  No "%.9e" text
    holds a space, so the padding can be dropped by value.

    The ten digits are rint(a * 10**(9 - e)) with e from log10, corrected so
    that the mantissa lies in [1e9, 1e10).  Where the float error bound
    cannot prove the rounding (a fraction within _HALF_MARGIN of a half),
    where rint carries into the next decade, and for |exponent| >= 100,
    subnormals, NaN and inf, Python formats the value itself, so every text
    equals Python's correctly rounded one.
    """
    lead, tail, exponent, powers = _ascii_tables()
    finite = np.isfinite(values)
    a = np.where(finite, np.abs(values), 0.0)  # no NaN reaches the arithmetic
    nonzero = a > 0
    e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
    np.clip(e, -100, 100, out=e)
    m = _scaled(a, e, powers)
    off = np.flatnonzero(nonzero & ((m < 1.0e9) | (m >= 1.0e10)))
    if off.size:
        e[off] += np.where(m[off] < 1.0e9, -1, 1)
        m[off] = _scaled(a[off], e[off], powers)
    mant = np.rint(m)
    proven = np.abs(np.abs(m - mant) - 0.5) > _HALF_MARGIN
    # a mantissa that rounds up to 1e10 (9.9999999996 -> 1.000000000e+01)
    # is left to Python too
    fast = (finite & proven & (np.abs(e) < 100)
            & (((mant >= 1.0e9) & (mant < 1.0e10)) | ~nonzero))
    hi, lo = np.divmod(np.where(fast, mant, 0.0).astype(np.int64), 100_000)
    text[:, 0] = ord(" ")
    text[:, 1] = np.where(np.signbit(values), ord("-"), ord(" "))
    text[:, 2:8].view("V6")[:, 0] = lead.take(hi)
    text[:, 8:13].view("V5")[:, 0] = tail.take(lo)
    text[:, 13:].view("V4")[:, 0] = exponent.take(np.clip(e, -99, 99) + 99)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = np.frombuffer(
            "".join(("%.9e" % v).rjust(_SLOT)
                    for v in values[slow].tolist()).encode(),
            dtype=np.uint8).reshape(-1, _SLOT)


def _formatted(values) -> np.ndarray:
    """The "%.9e" text of each value, space-padded in a _SLOT-wide row."""
    values = np.asarray(values, dtype=float)
    text = np.empty((values.size, _SLOT), dtype=np.uint8)
    _format_e9(values, text)
    return text


def _write_grid_table(fh, outer, inner, columns, blank: bool = False) -> None:
    """Write the "%.9e" row outer[j], inner[i], columns[c][j, i] ... for
    each (j, i) of a 2-d grid to the binary file fh, and a blank line after
    each len(inner) rows when blank is set.

    Rows run by outer value, then inner index, as a stable sort places
    them: equal outer values form a group whose rows take each inner index
    in turn with every member.  Each axis value is formatted once, and the
    rows are written in blocks of whole groups, at most CSV_BLOCK rows each
    unless one group has more.  The row buffer and the mask of its written
    bytes are made once, for the largest block, and every block fills their
    leading rows; the text leaves in pieces of _WRITE_ROWS rows.  So no
    array a block long is made per block, and the write's peak RSS follows
    what it holds, not the order in which the heap sees each block's
    arrays come and go.
    """
    outer = np.asarray(outer, dtype=float)
    m = len(inner)
    axes = (_formatted(outer), _formatted(inner))
    new = np.r_[True, outer[1:] != outer[:-1]]  # each group's first value
    group = np.cumsum(new)
    ends = np.r_[np.flatnonzero(new)[1:], outer.size]
    per = max(1, CSV_BLOCK // m)
    blocks = []
    j0 = 0
    while j0 < outer.size:
        # whole groups: the last group end within per values, or the next
        j1 = ends[max(np.searchsorted(ends, j0 + per, "right") - 1,
                      np.searchsorted(ends, j0, "right"))]
        blocks.append((j0, j1))
        j0 = j1
    pitch = _SLOT + 1  # a slot and its separator
    width = (2 + len(columns)) * pitch + 1  # and room for a blank line
    largest = m * max((j1 - j0 for j0, j1 in blocks), default=0)
    block_buf = np.empty((largest, width), dtype=np.uint8)
    block_nonblank = np.empty(block_buf.shape, dtype=bool)
    for j0, j1 in blocks:
        # the block's (j, i), stably sorted by (group of j, i)
        key = (group[j0:j1, None] * m + np.arange(m)).ravel()
        jj, ii = np.divmod(np.argsort(key, kind="stable"), m)
        jj += j0
        buf = block_buf[:key.size]
        nonblank = block_nonblank[:key.size]  # the bytes written
        buf[:, :_SLOT] = axes[0][jj]
        buf[:, pitch:pitch + _SLOT] = axes[1][ii]
        for c, values in enumerate(columns, start=2):
            lo = c * pitch
            _format_e9(values[jj, ii], buf[:, lo:lo + _SLOT])
        buf[:, _SLOT::pitch] = ord(",")
        buf[:, width - 2] = ord("\n")
        buf[:, -1] = ord(" ")  # padding, or the newline of a blank line
        if blank:
            buf[m - 1::m, -1] = ord("\n")
        np.not_equal(buf, ord(" "), out=nonblank)
        for start in range(0, key.size, _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            fh.write(buf[rows][nonblank[rows]])


def write_chi_scan_csv(path: str | Path, r, delta_R, chi) -> Path:
    """Susceptibility scan: r_cm, delta_R_over_gamma, re_chi, im_chi.

    chi is the (len(delta_R), len(r)) map; one row per point, by radius and
    then detuning in the axes' order (see _write_grid_table for equal radii).
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(b"r_cm,delta_R_over_gamma,re_chi,im_chi\n")
        _write_grid_table(fh, r, delta_R, [chi.real.T, chi.imag.T])
    return path


def write_profile_csv(path: str | Path, field: ComplexField2D) -> Path:
    """Gnuplot-ready intensity profile: x_cm, y_cm, intensity (blank-line blocks)."""
    path = Path(path)
    x, y = field.grid.axes()
    with open(path, "wb") as fh:
        fh.write(b"x_cm,y_cm,intensity\n")
        _write_grid_table(fh, x, y, [np.abs(field.values) ** 2], blank=True)
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
        payload = asdict(self)
        payload["defaulted_keys"] = sorted(self.defaulted_keys)
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
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file, or a path under one, for example
            raise OutputLockError(f"no output directory: {exc}") from None
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
