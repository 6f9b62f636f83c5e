"""Stationary susceptibility of the driven three-level Raman medium.

The closed-form steady state is evaluated in gamma units (gamma = 1 inside the
formula).  An independent oracle obtains the same quantity by propagating the
density-matrix equations of motion to their fixed point with an exact
matrix-exponential stepper, which is used to cross-validate the closed form.

Both one-photon detunings shift by the same kv in a moving atom, so for one
velocity class the susceptibility ratio is (n0 + n1 kv) / (d0 + d1 kv + d2 kv^2):
a numerator linear in kv over a real quadratic with no real root.
``_ratio_coefficients`` is the one formula for these five coefficients; the
stationary ratio is n0 / d0.

The thermal average over the Maxwellian distribution of Doppler shifts (width
D) is exact: the quadratic's two complex-conjugate poles turn it into the
plasma dispersion function Z (Fried & Conte 1961), evaluated through the
Faddeeva function ``scipy.special.wofz`` (Weideman 1994).  Every run that
evaluates chi takes this average; scipy is imported at the first one, so a
run that evaluates no chi (a control-off propagation, an analysis of stored
snapshots) loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import PhysicalParams, prefactor_over_gamma

# points per evaluation block of the velocity average (bounds peak memory)
AVERAGE_BLOCK = 65_536

# chi table: each axis spans FLOOR_RATIO times its top up to the top, is
# sized from a pilot of PILOT_NODES nodes and holds at most MAX_NODES
FLOOR_RATIO = 1.0e-4
PILOT_NODES = 64
MAX_NODES = 2048


class OracleConvergenceError(RuntimeError):
    """The density-matrix propagation did not reach a fixed point."""

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"steady state not reached, residual {residual:.3e}")


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


def chi_ratio(g_abs2, G_abs2, delta_p, delta_c, big_gamma):
    """Susceptibility ratio (numerator over denominator) in gamma units.

    This is the steady-state coherence rho_12 divided by the probe Rabi
    amplitude g; multiplying by the dimensionless dipole prefactor gives chi.
    It is n0 / d0 of ``_ratio_coefficients`` (the atom at rest).  Accepts
    scalars or broadcastable arrays.  Entries with G_abs2 == 0 return
    exactly 0 (the numerator carries an overall |G|^2 factor and the medium is
    pumped fully into the control-arm ground state).
    """
    n0, _, d0, _, _ = _ratio_coefficients(g_abs2, G_abs2, delta_p, delta_c,
                                          big_gamma)
    with np.errstate(invalid="ignore"):
        out = np.where(np.asarray(G_abs2) == 0.0, 0.0 + 0.0j, n0 / d0)
    if out.shape == ():
        return complex(out)
    return out


def chi_stationary(point: FieldPoint, delta_p: float, delta_c: float,
                   big_gamma: float, prefactor: float):
    """Stationary complex susceptibility chi at one field point.

    All frequencies in gamma units; ``prefactor`` is the dimensionless scale
    N |d|^2 / (hbar gamma).
    """
    return prefactor * chi_ratio(point.g_abs2, point.G_abs2,
                                 delta_p, delta_c, big_gamma)


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


@dataclass(frozen=True)
class OracleResult:
    chi: complex
    populations: tuple[float, float, float]
    residual: float
    doublings: int


def steady_state_oracle(point: FieldPoint, delta_p: float, delta_c: float,
                        big_gamma: float, prefactor: float,
                        rhs_tol: float = 1.0e-12,
                        drift_tol: float = 1.0e-10,
                        max_doublings: int = 200,
                        full_result: bool = False):
    """Susceptibility from the density-matrix equations of motion.

    Starting from all population in the control-arm ground state, the affine
    system is propagated by its exact matrix exponential over horizons that
    double until every time derivative falls below ``rhs_tol`` (gamma units)
    and the extracted susceptibility is stationary between horizons.  Returns
    prefactor * rho12 / g; the phase convention agrees with chi_stationary
    directly (verified numerically, no conjugation or sign flip needed).

    Undefined for g = 0 (chi is a response per unit probe amplitude).
    """
    # imported here: scipy.linalg adds ~60 ms to every CLI start otherwise
    from scipy.linalg import expm

    g = float(np.sqrt(point.g_abs2))
    G = float(np.sqrt(point.G_abs2))
    if g == 0.0:
        raise ValueError("steady_state_oracle requires a nonzero probe amplitude")
    A, b = _affine_generator(g, G, big_gamma, delta_p, delta_c)
    M = np.zeros((9, 9))
    M[:8, :8] = A
    M[:8, 8] = b

    # y(0) = 0  (rho33 = 1), so after propagation y(T) is the affine column.
    P = expm(M)
    last_chi = None
    stable = 0
    residual = np.inf
    for doubling in range(max_doublings):
        y = P[:8, 8]
        residual = float(np.max(np.abs(A @ y + b)))
        chi = prefactor * (y[2] + 1j * y[3]) / g
        if residual < rhs_tol:
            if last_chi is not None and \
                    abs(chi - last_chi) <= drift_tol * max(abs(chi), 1e-300):
                stable += 1
                if stable >= 2:
                    pops = (float(y[0]), float(y[1]), float(1.0 - y[0] - y[1]))
                    if full_result:
                        return OracleResult(chi, pops, residual, doubling)
                    return chi
            else:
                stable = 0
            last_chi = chi
        P = P @ P
    raise OracleConvergenceError(residual)


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
    # imported here: scipy.special adds ~0.17 s to every CLI start otherwise
    from scipy.special import wofz

    n0, n1, d0, d1, d2 = coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        if doppler_width == 0.0:
            return n0 / d0
        s = np.sqrt(2.0) * doppler_width
        x = -0.5 * d1 / d2
        y = np.sqrt(d0 / d2 - x * x)
        w = wofz((x + 1j * y) / s)
        avg = ((n0 + n1 * x) * (w.real / y) - n1 * w.imag) \
            * (np.sqrt(np.pi) / s) / d2
        return np.where(d2 == 0.0, n0 / d0, avg)


def chi_doppler_averaged(point: FieldPoint, params: PhysicalParams):
    """Thermally averaged susceptibility <chi(delta_p - kv, delta_c - kv)>_v.

    Both one-photon detunings shift by the same kv (equal wavenumbers,
    co-propagating beams), so the two-photon detuning is velocity independent.
    The average is the exact Faddeeva form of ``_maxwell_average``.  Accepts
    array-valued field points and returns a matching complex array, evaluated
    in blocks of AVERAGE_BLOCK points.  Points with |G|^2 = 0 return exactly 0.
    """
    g2, G2 = np.broadcast_arrays(np.asarray(point.g_abs2, dtype=float),
                                 np.asarray(point.G_abs2, dtype=float))
    shape = g2.shape
    g2 = g2.ravel()
    G2 = G2.ravel()
    out = np.empty(g2.size, dtype=complex)
    for start in range(0, g2.size, AVERAGE_BLOCK):
        block = slice(start, start + AVERAGE_BLOCK)
        coeffs = _ratio_coefficients(g2[block], G2[block], params.delta_p,
                                     params.delta_c, params.big_gamma)
        out[block] = _maxwell_average(coeffs, params.doppler_width)
    out[G2 == 0.0] = 0.0
    out = prefactor_over_gamma(params) * out.reshape(shape)
    if shape == ():
        return complex(out)
    return out


class ChiTableError(RuntimeError):
    """The chi table has no finite range or misses its target accuracy."""


class _LogAxis:
    """``np.geomspace(FLOOR_RATIO * top, top, n)`` with a cell search by
    index arithmetic.

    Every node sits within roundoff of its log-uniform position, so for a
    query q in [nodes[0], nodes[-1]], floor((log q - log nodes[0]) / step)
    is off by at most one cell; one comparison against each neighbouring
    node corrects it, and ``cells`` returns exactly
    ``clip(searchsorted(nodes, q) - 1, 0, n - 2)``.
    """

    def __init__(self, top: float, n: int):
        self.nodes = np.geomspace(top * FLOOR_RATIO, top, n)
        logs = np.log(self.nodes)
        self._log0 = logs[0]
        self._per_log = (n - 1) / (logs[-1] - logs[0])
        self._last = n - 2
        # the cell i holds nodes[i] < q <= nodes[i + 1]; the open outer
        # bounds keep a query on the first or last node in its end cell
        self._lower = self.nodes[:-1].copy()
        self._lower[0] = -np.inf
        self._upper = self.nodes[1:].copy()
        self._upper[-1] = np.inf

    def cells(self, q: np.ndarray) -> np.ndarray:
        """Cell index of each query clamped to [nodes[0], nodes[-1]].

        A NaN query gets the last cell, as it does from searchsorted.
        """
        t = np.log(q)
        t -= self._log0
        t *= self._per_log
        # fmin also maps NaN to the last cell, so the cast never sees NaN
        np.fmin(t, self._last, out=t)
        i = t.astype(np.intp)
        i -= q <= self._lower.take(i)
        i += q > self._upper.take(i)
        return i


class ChiTable:
    """Bilinear interpolation table for the averaged susceptibility.

    chi depends only on (|G|^2, |g|^2) once the detunings and velocity
    average are fixed, so a run evaluates it through a tensor-product table
    over ``shape`` log-uniform samples of the two squared amplitudes, each
    axis a ``_LogAxis`` below its top.  The stored quantity is chi / |G|^2,
    and each lookup multiplies the interpolated value by |G|^2, so the table
    is exactly zero at |G|^2 = 0.  chi / |G|^2 tends to a constant as
    |G|^2 -> 0 only while |g|^2 >> |G|^2: when both fields are weak, chi
    tends to a finite value, which a query below both node floors (read off
    the corner node times |G|^2) does not reproduce.  Both tops must be
    positive and finite; ``build_chi_table`` checks them.
    """

    # no table is identically zero; perfbench/child.py and tracer.py still
    # read this flag, until the run telemetry moves into the package
    zero = False

    def __init__(self, G_abs2_max: float, g_abs2_max: float,
                 shape: tuple[int, int], params: PhysicalParams):
        self.params = params
        self._G_axis = _LogAxis(G_abs2_max, shape[0])
        self._g_axis = _LogAxis(g_abs2_max, shape[1])
        self._G2 = self._G_axis.nodes
        self._g2 = self._g_axis.nodes
        GG, gg = np.meshgrid(self._G2, self._g2, indexing="ij")
        chi = chi_doppler_averaged(FieldPoint(gg, GG), params)
        self._h = chi / self._G2[:, None]

    @property
    def G_abs2_max(self) -> float:
        return float(self._G2[-1])

    @property
    def g_abs2_max(self) -> float:
        return float(self._g2[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return self._h.shape

    # relative overshoot absorbed by clamping (an integrator stage can nudge
    # a query a few permille past the field it starts from)
    OVERSHOOT = 0.05

    def __call__(self, G_abs2, g_abs2):
        """Interpolated averaged chi; clamps below the node floors.

        Below both node floors the clamped weights vanish (tG = tg = 0) and
        the bilinear formula reduces exactly to the corner node, so only the
        remaining queries are interpolated.  In a guided run that is a few
        percent of the grid: the probe's tail and the control's dark core
        and outer region sit under the floors.  A NaN query is never below
        a floor, so it is interpolated and returns NaN.
        """
        G2q = np.asarray(G_abs2, dtype=float)
        g2q = np.asarray(g_abs2, dtype=float)
        shape = np.broadcast(G2q, g2q).shape
        for name, q, nodes in (("|G|^2", G2q, self._G2),
                               ("|g|^2", g2q, self._g2)):
            if np.any(q > nodes[-1] * (1 + self.OVERSHOOT)):
                raise ValueError(f"{name} queried up to {np.nanmax(q):.6g}, "
                                 f"above the table top {nodes[-1]:.6g}")
        G2q = np.broadcast_to(G2q, shape).ravel()
        g2q = np.broadcast_to(g2q, shape).ravel()
        out = G2q * self._h[0, 0]
        # written as "not below both floors" so NaN queries interpolate too
        live = np.flatnonzero(~((G2q <= self._G2[0]) & (g2q <= self._g2[0])))
        out[live] = self._interpolate(G2q.take(live), g2q.take(live))
        out[G2q <= 0.0] = 0.0
        out = out.reshape(shape)
        if shape == ():
            return complex(out)
        return out

    def _interpolate(self, G2q: np.ndarray, g2q: np.ndarray) -> np.ndarray:
        """|G|^2 times the clamped bilinear interpolant of chi / |G|^2.

        Each cell index is what ``clip(searchsorted(nodes, q) - 1, 0, n - 2)``
        gives for the clamped query, found by ``_LogAxis.cells``; the four
        corners are gathered from the flattened table.
        """
        Gc = np.clip(G2q, self._G2[0], self._G2[-1])
        gc = np.clip(g2q, self._g2[0], self._g2[-1])
        iG = self._G_axis.cells(Gc)
        ig = self._g_axis.cells(gc)
        G1, G2v = self._G2.take(iG), self._G2.take(iG + 1)
        g1, g2v = self._g2.take(ig), self._g2.take(ig + 1)
        tG = (Gc - G1) / (G2v - G1)
        tg = (gc - g1) / (g2v - g1)
        sG = 1 - tG
        sg = 1 - tg
        h = self._h.ravel()
        corner = iG * self._g2.size + ig
        h00 = h.take(corner)
        h01 = h.take(corner + 1)
        corner += self._g2.size
        h10 = h.take(corner)
        h11 = h.take(corner + 1)
        h = h00 * sG * sg + h10 * tG * sg + h01 * sG * tg + h11 * tG * tg
        return G2q * h

    def _relative_error(self, G2q: np.ndarray, g2q: np.ndarray) -> float:
        """Max relative deviation of the lookup from the exact average."""
        exact = chi_doppler_averaged(FieldPoint(g2q, G2q), self.params)
        return float(np.max(np.abs(self(G2q, g2q) - exact) / np.abs(exact)))

    def max_relative_error(self, n_probes: int = 1000, seed: int = 0) -> float:
        """Max relative interpolation error on a seeded log-uniform probe set."""
        rng = np.random.default_rng(seed)
        G2q = np.exp(rng.uniform(np.log(self._G2[0]), np.log(self._G2[-1]), n_probes))
        g2q = np.exp(rng.uniform(np.log(self._g2[0]), np.log(self._g2[-1]), n_probes))
        return self._relative_error(G2q, g2q)

    def _axis_midpoint_error(self, axis: int) -> float:
        """Worst relative interpolation error at cell midpoints of one axis.

        Midpoints are where bilinear interpolation is worst; measuring each
        axis separately sizes the table anisotropically.
        """
        if axis == 0:
            Gq = np.sqrt(self._G2[:-1] * self._G2[1:])
            gq = self._g2
        else:
            Gq = self._G2
            gq = np.sqrt(self._g2[:-1] * self._g2[1:])
        GG, gg = np.meshgrid(Gq, gq, indexing="ij")
        return self._relative_error(GG, gg)


def build_chi_table(G_abs2_max: float, g_abs2_max: float,
                    params: PhysicalParams,
                    target_error: float = 1.0e-4) -> ChiTable:
    """Build a ChiTable covering [0, G_abs2_max] x [0, g_abs2_max] in one pass.

    A pilot table of PILOT_NODES per axis measures the worst midpoint error
    along each axis; as bilinear error falls with the square of the node
    spacing, that gives each axis the node count, at most MAX_NODES, that
    meets 0.6 of the target.  The sized table is verified once on
    ``max_relative_error``'s fixed probe set (1000 log-uniform points drawn
    with seed 0).  Raises ChiTableError if the |G|^2 top is not in
    (0, inf) or the |g|^2 top is not finite (a control-off run builds no
    table), or if the table misses the target (direct evaluation is then
    advised).
    """
    if not (0.0 < G_abs2_max < np.inf and np.isfinite(g_abs2_max)):
        raise ChiTableError(
            f"table tops |G|^2 = {G_abs2_max:.6g} and |g|^2 = "
            f"{g_abs2_max:.6g} must be finite, with |G|^2 above 0")
    g_top = max(g_abs2_max, G_abs2_max * 1.0e-12)
    headroom = 0.6  # size below target so an independent probe set stays under
    pilot = ChiTable(G_abs2_max, g_top, (PILOT_NODES, PILOT_NODES), params)

    def sized(axis: int) -> int:
        factor = np.sqrt(pilot._axis_midpoint_error(axis)
                         / (headroom * target_error))
        return min(MAX_NODES, int(np.ceil(PILOT_NODES * max(factor, 1.0))) + 1)

    shape = (sized(0), sized(1))
    table = ChiTable(G_abs2_max, g_top, shape, params)
    err = table.max_relative_error()
    if err < target_error:
        return table
    raise ChiTableError(
        f"interpolation error {err:.3e} above {target_error:g} on the "
        f"{shape[0]}x{shape[1]} table (at most {MAX_NODES} nodes per axis); "
        "use direct evaluation for this configuration")
