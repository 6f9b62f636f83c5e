"""Stationary susceptibility of the driven three-level Raman medium.

The closed-form steady state is evaluated in gamma units (gamma = 1 inside the
formula).  An independent oracle obtains the same quantity as the attracting
fixed point of the density-matrix equations of motion, by a linear solve, and
is used to cross-validate the closed form.

Both one-photon detunings shift by the same kv in a moving atom, so for one
velocity class the susceptibility ratio is (n0 + n1 kv) / (d0 + d1 kv + d2 kv^2):
a numerator linear in kv over a real quadratic with no real root.
``_ratio_coefficients`` is the one formula for these five coefficients, and
``chi_doppler_averaged`` the one entry point to chi: a vapor at rest
(doppler_width = 0) gives the stationary value n0 / d0.

The thermal average over the Maxwellian distribution of Doppler shifts (width
D) is exact: the quadratic's two complex-conjugate poles turn it into the
plasma dispersion function Z (Fried & Conte 1961), evaluated through the
Faddeeva function w.  ``_faddeeva`` computes w in numpy from Weideman's
rational expansion (SIAM J. Numer. Anal. 31, 1994), whose coefficients are
made at the first average.  The module needs numpy alone.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .params import PhysicalParams, prefactor_over_gamma

# points per evaluation block of the velocity average: an average over any
# number of points holds its complex output plus one block's work (~160
# bytes a point, ~2.5 MiB at this size).  A guided-size table builds as fast
# as with 65,536-point blocks and ~25% slower with 4096-point ones.
AVERAGE_BLOCK = 16_384

# terms of Weideman's expansion of the Faddeeva function (within 1.8e-14
# relative of the tests' reference w for |Re z| <= 1e3, 1e-3 <= Im z <= 1e3)
FADDEEVA_TERMS = 36

# chi table: each axis spans FLOOR_RATIO times its top up to the top, is
# sized from a pilot of PILOT_NODES nodes and holds at most MAX_NODES
FLOOR_RATIO = 1.0e-4
PILOT_NODES = 64
MAX_NODES = 2048

# chi table tiles: TILE x TILE cells, a power of two, so that a lookup finds
# a cell's tile by a shift
TILE = 32

ORACLE_RHS_TOL = 1.0e-12  # steady_state_oracle's |dy/dt| bound (gamma units)


class OracleConvergenceError(RuntimeError):
    """The equations of motion have no attracting fixed point, or the solve
    for it leaves a residual above ORACLE_RHS_TOL."""


class FieldPoint(NamedTuple):
    """Local squared Rabi amplitudes |g|^2 and |G|^2, in gamma^2 units."""

    g_abs2: float
    G_abs2: float


def _ratio_coefficients(g2, G2, delta_p, delta_c, big_gamma):
    """Coefficients (n0, n1, d0, d1, d2) of the single-velocity ratio.

    The ratio for atoms with Doppler shift kv is
    (n0 + n1 kv) / (d0 + d1 kv + d2 kv^2); n0 and n1 are complex, the d's
    real.  Inputs broadcast.  All five are divided by c = |g|^2 + |G|^2,
    which leaves the ratio unchanged and keeps the coefficients of order one
    however weak the fields, so products of them cannot underflow.

    The denominator is positive for every real kv once |G|^2 > 0: with
    B = Gamma^2 + delta_R^2 >= delta_R^2, its |G|^2 group holds
    (delta_R dp - |G|^2)^2 and its |g|^2 group (|g|^2 + delta_R dc)^2, and
    every other term is non-negative.  d2 = B + 4 Gamma |g|^2 |G|^2 / c
    vanishes only in the dark state Gamma = delta_R = 0, where n0 = n1 = 0.

    The |G|^4 cross term of the kv = 0 denominator is (Gamma - delta_R dp);
    this is required for consistency with the equations of motion (verified
    against the exact steady state to ~1e-12 over the full parameter range)
    and mirrors the (Gamma + delta_R dc) term of the |g|^4 group under
    probe/control exchange.
    """
    g2 = np.asarray(g2, dtype=float)
    G2 = np.asarray(G2, dtype=float)
    bg = big_gamma
    c = g2 + G2
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(c > 0.0, g2 / c, 0.0)
        U = np.where(c > 0.0, G2 / c, 0.0)
    dR = delta_p - delta_c
    B = bg * bg + dR * dR
    K = 3.0 * (1.0 + 2.0 * bg)
    S = delta_p + delta_c
    a = 1j * bg - dR

    n0 = U * (a * G2 + a * (1.0 - 1j * delta_p) * (bg - 1j * dR)
              + g2 * (a + bg * S))
    n1 = U * (1j * a * (bg - 1j * dR) - 2.0 * bg * g2)
    d0 = (u * g2 * (g2 + K * G2 + 2.0 * (bg + dR * delta_c))
          + U * (B * (1.0 + delta_p * delta_p)
                 + 2.0 * G2 * (bg - dR * delta_p) + G2 * G2)
          + u * (K * G2 * G2 + (1.0 + delta_c * delta_c) * B
                 + (4.0 * bg + 6.0 * bg * bg + 4.0 * dR * dR + bg * S * S)
                 * G2))
    d1 = -2.0 * (u * g2 * dR + U * (B * delta_p - G2 * dR) + u * B * delta_c
                 + 2.0 * u * bg * S * G2)
    d2 = B + 4.0 * bg * u * G2
    return n0, n1, d0, d1, d2


def _affine_generator(g: float, G: float, big_gamma: float,
                      delta_p: float, delta_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Real 8-dim affine generator ydot = A y + b of the equations of motion.

    State ordering: [rho11, rho22, Re rho12, Im rho12, Re rho13, Im rho13,
    Re rho23, Im rho23]; rho33 is eliminated by the trace condition.
    Both decay arms share the rate gamma = 1.
    """
    def rhs(y: np.ndarray) -> np.ndarray:
        r11, r22 = y[0], y[1]
        r12 = y[2] + 1j * y[3]
        r13 = y[4] + 1j * y[5]
        r23 = y[6] + 1j * y[7]
        r33 = 1.0 - r11 - r22
        d11 = -2.0 * r11 + 1j * g * np.conj(r12) + 1j * G * np.conj(r13) \
            - 1j * g * r12 - 1j * G * r13
        d22 = r11 + 1j * g * r12 - 1j * g * np.conj(r12)
        d12 = -(1.0 + 1j * delta_p) * r12 + 1j * g * r22 \
            + 1j * G * np.conj(r23) - 1j * g * r11
        d13 = -(1.0 + 1j * delta_c) * r13 + 1j * g * r23 \
            + 1j * G * r33 - 1j * G * r11
        d23 = -(big_gamma - 1j * (delta_p - delta_c)) * r23 \
            + 1j * g * r13 - 1j * G * np.conj(r12)
        return np.array([d11.real, d22.real, d12.real, d12.imag,
                         d13.real, d13.imag, d23.real, d23.imag])

    b = rhs(np.zeros(8))
    A = np.empty((8, 8))
    for j in range(8):
        e = np.zeros(8)
        e[j] = 1.0
        A[:, j] = rhs(e) - b
    return A, b


def steady_state_oracle(point: FieldPoint, delta_p: float, delta_c: float,
                        big_gamma: float, prefactor: float) -> complex:
    """Susceptibility from the density-matrix equations of motion.

    The affine system ydot = A y + b relaxes to one fixed point from every
    start exactly when each eigenvalue of A has a negative real part.  The
    oracle checks that, solves A y = -b, and checks that every time
    derivative at y is below ORACLE_RHS_TOL (gamma units); it raises
    OracleConvergenceError if either check fails.  Returns the complex
    chi = prefactor * rho12 / g; the phase convention agrees with
    ``chi_doppler_averaged`` at doppler_width = 0 directly (verified
    numerically, no conjugation or sign flip needed).

    Undefined for g = 0 (chi is a response per unit probe amplitude).
    """
    g = float(np.sqrt(point.g_abs2))
    G = float(np.sqrt(point.G_abs2))
    if g == 0.0:
        raise ValueError("steady_state_oracle requires a nonzero probe amplitude")
    A, b = _affine_generator(g, G, big_gamma, delta_p, delta_c)
    growth = float(np.max(np.linalg.eigvals(A).real))
    if not growth < 0.0:
        raise OracleConvergenceError(
            f"no attracting steady state: the equations of motion have an "
            f"eigenvalue with real part {growth:.3e}")
    y = np.linalg.solve(A, -b)
    residual = float(np.max(np.abs(A @ y + b)))
    if not residual <= ORACLE_RHS_TOL:
        raise OracleConvergenceError(
            f"steady state not reached, residual {residual:.3e}")
    return prefactor * (y[2] + 1j * y[3]) / g


@functools.cache
def _faddeeva_coefficients() -> tuple[float, np.ndarray]:
    """Weideman's scale L and the FADDEEVA_TERMS coefficients a_N .. a_1.

    The a_n are the Fourier coefficients of e^(-t^2) (L^2 + t^2) at
    t = L tan(theta / 2), taken by an FFT over 4 N equispaced theta.
    """
    n = FADDEEVA_TERMS
    m = 2 * n
    L = np.sqrt(n / np.sqrt(2.0))
    t = L * np.tan(np.arange(1 - m, m) * (np.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return float(L), a[n:0:-1]


def _faddeeva(z) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z > 0.

    Weideman's expansion w = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz))
    with Z = (L + iz) / (L - iz) and p the degree N - 1 polynomial of
    ``_faddeeva_coefficients``, evaluated by Horner's rule in place.
    """
    L, coeffs = _faddeeva_coefficients()
    iz = 1j * np.asarray(z, dtype=complex)
    den = L - iz
    Z = iz  # in iz's buffer
    Z += L
    Z /= den
    p = coeffs[0] * Z
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= Z
        p += c
    p /= den
    p *= 2.0
    p += 1.0 / np.sqrt(np.pi)
    p /= den
    return p


def _maxwell_average(coeffs, doppler_width: float) -> np.ndarray:
    """Exact Maxwellian average of (n0 + n1 kv) / (d0 + d1 kv + d2 kv^2).

    With r = x + i y (y > 0) the root of the quadratic in the upper half
    plane, partial fractions give the residue sum A Z(r) + B conj(Z(r)), where
    Z(r) = <1 / (kv - r)> = (i sqrt(pi) / s) w(r / s), s = sqrt(2) D and w is
    the Faddeeva function.  Writing the numerator as
    (n0 + n1 x) + n1 (kv - x) turns that sum into
    [(n0 + n1 x) Im Z / y + n1 Re Z] / d2, which has no 1/y cancellation
    between the two residues.  D = 0 and the dark state (d2 = 0) reduce to
    n0 / d0.
    """
    n0, n1, d0, d1, d2 = coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        if doppler_width == 0.0:
            return n0 / d0
        s = np.sqrt(2.0) * doppler_width
        x = -0.5 * d1 / d2
        y = np.sqrt(d0 / d2 - x * x)
        w = _faddeeva((x + 1j * y) / s)
        avg = ((n0 + n1 * x) * (w.real / y) - n1 * w.imag) \
            * (np.sqrt(np.pi) / s) / d2
        return np.where(d2 == 0.0, n0 / d0, avg)


def chi_doppler_averaged(point: FieldPoint, params: PhysicalParams,
                         out=None):
    """Thermally averaged susceptibility <chi(delta_p - kv, delta_c - kv)>_v.

    Both one-photon detunings shift by the same kv (equal wavenumbers,
    co-propagating beams), so the two-photon detuning is velocity independent.
    The average is the exact Faddeeva form of ``_maxwell_average``.  Accepts
    broadcastable array-valued field points and returns a complex array of
    their broadcast shape.  Points with |G|^2 = 0 return exactly 0.

    The points are evaluated in blocks of whole slabs along the first axis
    (single points of a 1-d array, rows of a 2-d one), at most
    AVERAGE_BLOCK points each unless one slab is larger.  Each block is
    scaled by the prefactor and written into the one output array, so
    memory beyond the output is one block's work however many points there
    are; broadcast inputs are never expanded past one block.  The output of
    array-valued points is ``out``, a C-contiguous complex array of their
    broadcast shape (one element for scalar points), when it is given; an
    ``out`` of another shape, or one that is not C-contiguous, is a
    ValueError.  It may be complex64: each value is then the
    double-precision one rounded once, as the prefactor multiplies it
    before it is stored.
    """
    g2 = np.asarray(point.g_abs2, dtype=float)
    G2 = np.asarray(point.G_abs2, dtype=float)
    shape = np.broadcast_shapes(g2.shape, G2.shape)
    if out is None:
        out = np.empty(shape or (1,), dtype=complex)
    elif out.shape != (shape or (1,)) or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the points' "
                         "broadcast shape")
    g2 = np.broadcast_to(g2, out.shape)
    G2 = np.broadcast_to(G2, out.shape)
    prefactor = prefactor_over_gamma(params)
    slab = max(1, out[:1].size)  # points in one slab along the first axis
    rows = max(1, AVERAGE_BLOCK // slab)
    for start in range(0, out.shape[0], rows):
        block = slice(start, start + rows)
        G2_block = G2[block].ravel()
        coeffs = _ratio_coefficients(g2[block].ravel(), G2_block,
                                     params.delta_p, params.delta_c,
                                     params.big_gamma)
        chi = out[block].reshape(-1)  # a view: out is C-contiguous
        np.multiply(_maxwell_average(coeffs, params.doppler_width), prefactor,
                    out=chi)
        chi[G2_block == 0.0] = 0.0
    if shape == ():
        return complex(out[0])
    return out


class ChiTableError(RuntimeError):
    """The chi table has no finite range or misses its target accuracy."""


def _log_cells(q: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Cell index of each query in [nodes[0], nodes[-1]] on a log-uniform axis.

    The cell is floor((log q - log nodes[0]) (n - 1)
    / (log nodes[-1] - log nodes[0])), at most n - 2; a NaN query gets the
    last cell.  Every node sits within roundoff of its log-uniform position,
    so the cell brackets q to within a few ulps: a query just outside it
    reads the cell's bilinear formula within roundoff of the neighbouring
    cell's value, and a query on a node reads the node's value exactly from
    either cell.
    """
    log0 = np.log(nodes[0])
    t = np.log(q)
    t -= log0
    t *= (nodes.size - 1) / (np.log(nodes[-1]) - log0)
    # fmin also maps NaN to the last cell, so the cast never sees NaN
    np.fmin(t, nodes.size - 2, out=t)
    return t.astype(np.intp)


class _TileStore:
    """The nodes of a lattice, computed a tile of TILE x TILE cells at a
    time when a corner reader first reaches them.

    ``nodes(rows, cols, out)`` computes them: the nodes at integer indices
    ``rows`` (tiles, TILE + 1, 1) by ``cols`` (tiles, 1, TILE + 1), written
    into ``out``, the tiles' slots of one complex64 pool.  A last, partial
    tile of an axis asks for indices past the axis' end in the places past
    it, which no cell reads.  ``nodes`` is a bound method and is held
    weakly: its instance holds the store, and a reference back would keep a
    released instance's pool alive until the cyclic collector ran.

    A tile's (TILE + 1)^2 nodes, the edges it shares with its neighbours
    included, take the next slot of the pool.  ``_origin`` holds each
    tile's pool offset less its first node's offset in a table of TILE + 1
    columns, so node (iG, ig) sits at its tile's entry plus
    iG (TILE + 1) + ig; a tile not yet filled holds ``_MISSING``.  A full
    pool is replaced by one of twice the slots (at most one a tile) or as
    many as the tiles need, and only filled slots are written: the guided
    workload reallocates its pool twice, where growing it by the tiles
    added took ~40 reallocations and a ~0.3 MB higher peak RSS.
    """

    _SHIFT = TILE.bit_length() - 1
    _SIDE = TILE + 1
    _MISSING = np.iinfo(np.intp).min

    def __init__(self, shape: tuple[int, int], nodes):
        self._nodes = weakref.WeakMethod(nodes)
        self._tiles_g = -(-(shape[1] - 1) // TILE)  # tiles along the columns
        tiles = -(-(shape[0] - 1) // TILE) * self._tiles_g
        self._origin = np.full(tiles, self._MISSING, dtype=np.intp)
        self._pool = np.empty((0, self._SIDE, self._SIDE), dtype=np.complex64)
        self.filled = 0  # tiles filled, each in its own slot of the pool

    @property
    def nbytes(self) -> int:
        """Bytes the pool holds, its slots not yet filled included."""
        return self._pool.nbytes

    def fill(self, tiles: np.ndarray) -> None:
        """Compute the listed tiles, none of them filled yet, into the next
        free slots of the pool, in one call of the node routine."""
        first = self.filled
        self.filled += tiles.size
        if self.filled > len(self._pool):
            slots = max(self.filled,
                        min(2 * len(self._pool), self._origin.size))
            pool = np.empty((slots, self._SIDE, self._SIDE), np.complex64)
            pool[:first] = self._pool[:first]
            self._pool = pool
        # each tile's first node
        rows, cols = (TILE * i for i in np.divmod(tiles, self._tiles_g))
        self._origin[tiles] = ((first + np.arange(tiles.size)) * self._SIDE**2
                               - rows * self._SIDE - cols)
        self._nodes()(rows[:, None, None] + np.arange(self._SIDE)[:, None],
                      cols[:, None, None] + np.arange(self._SIDE),
                      self._pool[first:self.filled])

    def fill_all(self) -> None:
        """Fill every tile not yet filled, in one growth of the pool."""
        self.fill(np.flatnonzero(self._origin == self._MISSING))

    def corners(self, iG: np.ndarray, ig: np.ndarray):
        """Corner reader of cells (iG, ig), after filling the tiles they lie
        in that are missing: the complex64 nodes at the corner's offset
        (dG, dg) in {0, 1}^2 from each cell's first node."""
        tiles = iG >> self._SHIFT
        tiles *= self._tiles_g
        tiles += ig >> self._SHIFT
        offset = self._origin.take(tiles)
        if offset.min(initial=0) == self._MISSING:
            self.fill(np.unique(tiles[offset == self._MISSING]))
            offset = self._origin.take(tiles)
        offset += iG * self._SIDE
        offset += ig
        flat = self._pool.reshape(-1)
        return lambda dG, dg: flat.take(
            offset + (dG * self._SIDE + dg) if dG or dg else offset)


class ChiTable:
    """Bilinear interpolation table for the averaged susceptibility.

    chi depends only on (|G|^2, |g|^2) once the detunings and velocity
    average are fixed, so a run evaluates it through a tensor-product table
    over ``shape`` log-uniform samples of the two squared amplitudes, each
    axis ``np.geomspace`` from FLOOR_RATIO times its top up to the top.  The
    stored quantity is chi / |G|^2, and each lookup multiplies the
    interpolated value by |G|^2, so the table is exactly zero at |G|^2 = 0.
    chi / |G|^2 tends to a constant as |G|^2 -> 0 only while
    |g|^2 >> |G|^2: when both fields are weak, chi tends to a finite value,
    which a query below both node floors (read off the corner node times
    |G|^2) does not reproduce.  Both tops must be positive and finite;
    ``build_chi_table`` checks them.

    Nodes are computed when a lookup first reaches them, a tile of
    TILE x TILE cells at a time, as a guided run reads a few percent of its
    table: a ``_TileStore`` over the node lattice holds them, and the table
    never computes where in it a node sits.  Row 0 is computed once, at
    construction, into its own vector (``_row0``), and fills no tile: the
    below-both-floors shortcut reads its first node.  The one routine that
    reads every cell, ``_midpoint_errors``, fills the missing tiles once
    and measures both axes on them.

    ``_nodes`` is the one routine that computes nodes, 8 bytes a node: at
    integer node indices, the index past an axis' end clipped to its last
    node, chi / |G|^2 divided by ``_scale``, a power of two near
    prefactor / (|G|^2 top), so the stored values lie within a few decades
    of 1 for any density (1e-3 to 22 on the guided preset's table).  It
    averages for the medium thinned by ``_scale`` (chi is linear in the
    density, and a power-of-two thinning is exact) into complex64, so no
    value reaches single precision unscaled, and divides by |G|^2 in place,
    the second and last rounding: each node is within 1.2e-7 relative of
    the double-precision chi / |G|^2 / ``_scale``.  The average is
    elementwise, so a node's bits do not depend on the call that computes
    it.  A lookup widens the nodes it reads to double precision and
    multiplies the scale back, exactly.

    ``inert_G2(chi_max)`` is a |G|^2 at or below which every lookup the
    table accepts returns |chi| <= chi_max, whatever the |g|^2, though a
    NaN |g|^2 returns NaN where |G|^2 > 0.  A query at or below the |G|^2
    floor reads row 0 (tG = 0 exactly), or below both floors its corner
    node, so |chi| is at most |G|^2 max_j |node(0, j)| ``_scale`` up to a
    few ulps; the cut is half chi_max over that slope, at most the floor,
    read off ``_row0``.  The bound rests on chi vanishing with |G|^2 at any
    |g|^2: a table whose chi tends to a finite value as both fields vanish
    must restate it.
    """

    # no table is identically zero; perfbench/child.py and tracer.py still
    # read this flag, until the run telemetry moves into the package
    zero = False

    def __init__(self, G_abs2_max: float, g_abs2_max: float,
                 shape: tuple[int, int], params: PhysicalParams):
        self.params = params
        self._G2 = np.geomspace(G_abs2_max * FLOOR_RATIO, G_abs2_max, shape[0])
        self._g2 = np.geomspace(g_abs2_max * FLOOR_RATIO, g_abs2_max, shape[1])
        # about prefactor / |G|^2 top, held to the normal range of double
        # precision, where multiplying by it is exact
        exponent = (np.frexp(prefactor_over_gamma(params))[1]
                    - np.frexp(G_abs2_max)[1])
        self._scale = float(np.ldexp(1.0, min(max(exponent, -1022), 1023)))
        self._thinned = replace(params, density=params.density / self._scale)
        self._store = _TileStore(shape, self._nodes)
        self._row0 = self._nodes(0, np.arange(shape[1]),
                                 np.empty(shape[1], dtype=np.complex64))

    @property
    def G_abs2_max(self) -> float:
        return float(self._G2[-1])

    @property
    def g_abs2_max(self) -> float:
        return float(self._g2[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return self._G2.size, self._g2.size

    def _nodes(self, iG, ig, out: np.ndarray) -> np.ndarray:
        """chi / |G|^2 / ``_scale`` at the nodes of indices (iG, ig),
        broadcast, written into ``out``, a C-contiguous complex64 array of
        their shape; ``take`` clips an index past an axis' end to its last
        node.

        A fill of the store hands it its tiles' consecutive slots, which are
        averaged in one call, in blocks of whole tiles of at most
        AVERAGE_BLOCK points (``chi_doppler_averaged``), so a fill holds one
        block's work beside the run's arrays.
        """
        G2 = self._G2.take(iG, mode="clip")
        chi_doppler_averaged(FieldPoint(self._g2.take(ig, mode="clip"), G2),
                             self._thinned, out=out)
        return np.divide(out, G2, out=out)

    # relative overshoot absorbed by clamping (an integrator stage can nudge
    # a query a few permille past the field it starts from)
    OVERSHOOT = 0.05

    def __call__(self, G_abs2, g_abs2, out=None):
        """Interpolated averaged chi; clamps below the node floors.

        Below both node floors the clamped weights vanish (tG = tg = 0) and
        the bilinear formula reduces exactly to the corner node, so only the
        remaining queries are interpolated.  In a guided run that is a few
        percent of the grid: the probe's tail and the control's dark core
        and outer region sit under the floors.  The tiles those queries'
        cells lie in are filled first if they are not yet
        (``_TileStore.corners``).  A NaN query is never below a floor, so it
        is interpolated in the last cell and returns NaN.  Array queries are
        written into ``out``, a C-contiguous complex array of their
        broadcast shape, when it is given; any other ``out`` is a
        ValueError.
        """
        G2q = np.asarray(G_abs2, dtype=float)
        g2q = np.asarray(g_abs2, dtype=float)
        shape = np.broadcast(G2q, g2q).shape
        if out is not None and (out.shape != shape
                                or not out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous array of the "
                             "queries' broadcast shape")
        for name, q, nodes in (("|G|^2", G2q, self._G2),
                               ("|g|^2", g2q, self._g2)):
            # fmax ignores NaN, as the comparison it stands for would
            if (np.fmax.reduce(q, axis=None, initial=-np.inf)
                    > nodes[-1] * (1 + self.OVERSHOOT)):
                raise ValueError(f"{name} queried up to {np.nanmax(q):.6g}, "
                                 f"above the table top {nodes[-1]:.6g}")
        if G2q.ndim != 1 or g2q.shape != G2q.shape:
            G2q = np.broadcast_to(G2q, shape).ravel()
            g2q = np.broadcast_to(g2q, shape).ravel()
        out = np.multiply(G2q, complex(self._row0[0]) * self._scale,
                          out=None if out is None else out.reshape(-1))
        # written as "not below both floors" so NaN queries interpolate too
        live = np.flatnonzero(~((G2q <= self._G2[0]) & (g2q <= self._g2[0])))
        out[live] = self._interpolate(G2q.take(live), g2q.take(live),
                                      self._store.corners)
        out[G2q <= 0.0] = 0.0
        out = out.reshape(shape)
        if shape == ():
            return complex(out)
        return out

    def inert_G2(self, chi_max: float) -> float:
        """A |G|^2 at or below which every lookup returns |chi| <= chi_max.

        Half chi_max over the slope, max_j |node(0, j)| times ``_scale``,
        capped at the |G|^2 floor; a NaN node makes it NaN, which no |G|^2
        is at or below.
        """
        slope = float(np.max(np.abs(self._row0))) * self._scale
        if slope * self._G2[0] <= 0.5 * chi_max:
            return float(self._G2[0])
        return 0.5 * chi_max / slope

    def _computed_corners(self, iG: np.ndarray, ig: np.ndarray):
        """Corner reader of cells (iG, ig) that computes each corner node
        afresh (``_nodes``) and fills no tile."""
        return lambda dG, dg: self._nodes(
            iG + dG, ig + dg, np.empty(iG.shape, dtype=np.complex64))

    def _interpolate(self, G2q: np.ndarray, g2q: np.ndarray,
                     corners) -> np.ndarray:
        """|G|^2 times the clamped bilinear interpolant of chi / |G|^2.

        Each clamped query's cell is found from its logarithm alone
        (``_log_cells``).  ``corners(iG, ig)`` gives the reader of the
        cells' corner nodes, complex64 values by the corner's offset
        (dG, dg) in {0, 1}^2; each corner is read in turn, widened to
        complex128 by its first weight (complex64 times float64), and the
        scale is multiplied back last.
        """
        Gc = np.clip(G2q, self._G2[0], self._G2[-1])
        gc = np.clip(g2q, self._g2[0], self._g2[-1])
        iG = _log_cells(Gc, self._G2)
        ig = _log_cells(gc, self._g2)
        G1, G2v = self._G2.take(iG), self._G2.take(iG + 1)
        g1, g2v = self._g2.take(ig), self._g2.take(ig + 1)
        tG = (Gc - G1) / (G2v - G1)
        tg = (gc - g1) / (g2v - g1)
        sG = 1 - tG
        sg = 1 - tg
        corner = corners(iG, ig)
        # h00 sG sg + h10 tG sg + h01 sG tg + h11 tG tg, summed in place in
        # that order, so the terms are never all held at once
        out = corner(0, 0) * sG
        out *= sg
        for dG, dg, wG, wg in ((1, 0, tG, sg), (0, 1, sG, tg), (1, 1, tG, tg)):
            term = corner(dG, dg) * wG
            term *= wg
            out += term
        out *= G2q
        out *= self._scale
        return out

    def _relative_error(self, G2q: np.ndarray, g2q: np.ndarray,
                        chi=None) -> float:
        """Max relative deviation from the exact average of ``chi``, by
        default the lookup at the query points."""
        exact = chi_doppler_averaged(FieldPoint(g2q, G2q), self.params)
        if chi is None:
            chi = self(G2q, g2q)
        return float(np.max(np.abs(chi - exact) / np.abs(exact)))

    def max_relative_error(self) -> float:
        """Max relative interpolation error on 1000 log-uniform probes drawn
        with seed 0 over the node range.

        The probes' corner nodes are computed afresh (``_computed_corners``),
        so the check fills no tile; their interpolant has the lookup's bits.
        """
        rng = np.random.default_rng(0)
        G2q = np.exp(rng.uniform(np.log(self._G2[0]), np.log(self._G2[-1]), 1000))
        g2q = np.exp(rng.uniform(np.log(self._g2[0]), np.log(self._g2[-1]), 1000))
        return self._relative_error(
            G2q, g2q, self._interpolate(G2q, g2q, self._computed_corners))

    def _midpoint_errors(self) -> tuple[float, float]:
        """Worst relative interpolation error at the cell midpoints of each
        axis, (|G|^2, |g|^2).

        Midpoints are where bilinear interpolation is worst; measuring each
        axis separately sizes the table anisotropically.  The lattice
        reaches every cell, so the missing tiles are filled first, once for
        both axes (``_TileStore.fill_all``).  Each axis is measured in blocks
        of whole rows, at most AVERAGE_BLOCK points each (one row if a row
        is longer), and the max over blocks is the max over the lattice.
        """
        self._store.fill_all()
        errors = []
        for Gq, gq in ((np.sqrt(self._G2[:-1] * self._G2[1:]), self._g2),
                       (self._G2, np.sqrt(self._g2[:-1] * self._g2[1:]))):
            rows = max(1, AVERAGE_BLOCK // gq.size)
            errors.append(max(self._relative_error(Gq[i:i + rows, None], gq)
                              for i in range(0, Gq.size, rows)))
        return tuple(errors)


def build_chi_table(G_abs2_max: float, g_abs2_max: float,
                    params: PhysicalParams,
                    target_error: float = 1.0e-4) -> ChiTable:
    """Build a ChiTable covering [0, G_abs2_max] x [0, g_abs2_max].

    Each round measures the last table's worst midpoint error along each
    axis (``_midpoint_errors``, both axes from one fill of its missing
    tiles); as bilinear error falls with the square of the node spacing,
    that gives each axis the node count, at most MAX_NODES, that meets 0.6
    of the target.  The last table is released, and its successor is
    verified on ``max_relative_error``'s fixed probe set (1000 log-uniform
    points drawn with seed 0), which computes the probes' corner nodes and
    fills no tile: the table returned holds no tile, and a run fills the
    tiles its lookups reach.  The first round sizes from a pilot of
    PILOT_NODES per axis; a table that misses the target is sized once
    more from its own midpoint errors, unless both axes are at MAX_NODES
    already.  A midpoint measurement fills every tile of the table it
    measures and looks its lattice up in blocks of at most AVERAGE_BLOCK
    points, so the build holds at most one filled table plus one block of
    work (~4 MiB).  Raises
    ChiTableError if the |G|^2 top is not in (0, inf) or the |g|^2 top is
    not finite (a control-off run builds no table), or if the resized table
    still misses the target (direct evaluation is then advised); a
    ``target_error`` that is not above 0 is a ValueError.
    """
    if not target_error > 0.0:
        raise ValueError(f"target_error = {target_error!r} must be positive")
    if not (0.0 < G_abs2_max < np.inf and np.isfinite(g_abs2_max)):
        raise ChiTableError(
            f"table tops |G|^2 = {G_abs2_max:.6g} and |g|^2 = "
            f"{g_abs2_max:.6g} must be finite, with |G|^2 above 0")
    g_top = max(g_abs2_max, G_abs2_max * 1.0e-12)
    headroom = 0.6  # size below target so an independent probe set stays under
    table = ChiTable(G_abs2_max, g_top, (PILOT_NODES, PILOT_NODES), params)
    # sized from the pilot, then at most once more from the missed table;
    # each axis grows by at least one node, so the pilot is always resized
    for _ in range(2):
        shape = []
        for n, error in zip(table.shape, table._midpoint_errors()):
            factor = np.sqrt(error / (headroom * target_error))
            shape.append(min(MAX_NODES,
                             int(np.ceil(n * max(factor, 1.0))) + 1))
        if tuple(shape) == table.shape:  # both axes are at MAX_NODES already
            break
        del table  # free the last table before its successor is filled
        table = ChiTable(G_abs2_max, g_top, tuple(shape), params)
        err = table.max_relative_error()
        if err < target_error:
            return table
    raise ChiTableError(
        f"interpolation error {err:.3e} above {target_error:g} on the "
        f"{table.shape[0]}x{table.shape[1]} table (at most {MAX_NODES} "
        "nodes per axis); use direct evaluation for this configuration")
