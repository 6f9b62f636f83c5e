"""Generate the benchmark's independent susceptibility reference.

    PYTHONPATH=src python3 perfbench/reference/make_reference.py

Writes ``perfbench/reference/chi_reference.json``: the thermally averaged
susceptibility at fixed points, computed by brute force on a fine uniform
grid of Doppler shifts kv (2**22 intervals over +-8.5 Doppler widths,
trapezoid weights times the Maxwellian).  The benchmark compares two outputs
against it:

* ``chi_scan``: rows of ``chi_scan.csv`` from the chi_scan workload, picked
  by (radius index, Raman-detuning index), including the dark vortex core.
* ``table``: (|G|^2, |g|^2) points at which the traced guided run's final
  susceptibility table is evaluated.

Nothing here calls the averaging code the benchmark times
(``chi_doppler_averaged``, ``ChiTable``) or the single-velocity closed form
it is built on (``chi_ratio``).  The closed form is written out again below
and checked against the density-matrix fixed point
(``steady_state_oracle``), a different algorithm, before it is used.  The
control intensity comes from the analytic doughnut-mode formula.  The run
also records the change in every point when the grid is halved, as a
convergence estimate.  It takes about a minute on one core.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
OUT = HERE / "chi_reference.json"

INTERVALS = 2 ** 22
SPAN_SIGMAS = 8.5
CHUNK = 2 ** 19

# chi_scan rows: offsets from the on-axis radius index (0.2 um spacing) and
# Raman-detuning indices (-0.1, -0.015, 0.0 and +0.05 gamma).
SCAN_R_OFFSETS = (1, 5, 25, 100, 300, 565, 750)
SCAN_D_INDICES = (0, 85, 100, 150)

# Table points: the dark core (|G|^2 below the table floor and at it), the
# control ring's rise, its peak, and three probe levels.
TABLE_G2 = (1.0e-7, 2.0e-5, 1.0e-4, 1.0e-3, 1.0e-2, 5.0e-2, 0.18)
TABLE_g2 = (2.0e-3, 0.04, 0.3)


def read_ini(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read(path)
    return cp


def physics(cp: configparser.ConfigParser) -> dict:
    lam = cp.getfloat("atom", "lambda_cm")
    density = cp.getfloat("atom", "density_cm3")
    return {
        "big_gamma": cp.getfloat("atom", "big_gamma_over_gamma"),
        "doppler_width": cp.getfloat("atom", "doppler_width_over_gamma"),
        "delta_p": cp.getfloat("detuning", "delta_p_over_gamma"),
        # N |d|^2 / (hbar gamma) with |d|^2 = 3 hbar gamma lambda^3 / (32 pi^3)
        "prefactor": 3.0 * density * lam ** 3 / (32.0 * np.pi ** 3),
        "lambda_cm": lam,
    }


def single_velocity_ratio(g2: float, G2: float, dp, dc, big_gamma: float):
    """Steady-state rho_12 / g of the Lambda system, gamma units.

    dp and dc are the Doppler-shifted one-photon detunings (arrays over kv);
    their difference, the Raman detuning, is the same for every velocity.
    """
    bg = big_gamma
    dR = dp - dc
    a = 1j * bg - dR
    num = G2 * (a * (G2 + (1.0 - 1j * dp) * (bg - 1j * dR))
                + g2 * (a + bg * (dc + dp)))
    den = (g2 ** 3
           + g2 ** 2 * (3.0 * G2 * (1.0 + 2.0 * bg) + 2.0 * (bg + dR * dc))
           + G2 * ((bg * bg + dR * dR) * (1.0 + dp * dp)
                   + 2.0 * G2 * (bg - dR * dp) + G2 * G2)
           + g2 * (3.0 * G2 * G2 * (1.0 + 2.0 * bg)
                   + (1.0 + dc * dc) * (bg * bg + dR * dR)
                   + (4.0 * bg + 6.0 * bg * bg + 4.0 * dR * dR
                      + bg * (dc + dp) ** 2) * G2))
    return num / den


def check_against_oracle(phys: dict) -> float:
    """Largest relative gap between the formula above and the density-matrix
    fixed point over a spread of drives and Doppler shifts."""
    from rbprop.susceptibility import FieldPoint, steady_state_oracle

    worst = 0.0
    for g2 in (2.0e-3, 0.04, 0.4):
        for G2 in (2.0e-5, 1.0e-2, 0.18):
            for kv, dR in ((-170.0, -0.015), (0.0, 0.0), (35.0, 0.05),
                           (-169.5, -0.1)):
                dp = phys["delta_p"] - kv
                dc = phys["delta_p"] - dR - kv
                ours = single_velocity_ratio(g2, G2, np.array(dp),
                                             np.array(dc), phys["big_gamma"])
                oracle = steady_state_oracle(FieldPoint(g2, G2), dp, dc,
                                             phys["big_gamma"], 1.0)
                worst = max(worst, abs(complex(ours) - oracle) / abs(oracle))
    return worst


def maxwell_average(g2: float, G2: float, delta_R: float,
                    phys: dict) -> tuple[complex, complex]:
    """Brute-force <chi>_v on the full grid and on every other node."""
    D = phys["doppler_width"]
    half_span = SPAN_SIGMAS * D
    h = 2.0 * half_span / INTERVALS
    full = 0.0j
    half = 0.0j
    wsum_full = 0.0
    wsum_half = 0.0
    for start in range(0, INTERVALS + 1, CHUNK):
        idx = np.arange(start, min(start + CHUNK, INTERVALS + 1))
        kv = -half_span + idx * h
        w = np.exp(-0.5 * (kv / D) ** 2)
        w[(idx == 0) | (idx == INTERVALS)] *= 0.5
        ratio = single_velocity_ratio(g2, G2, phys["delta_p"] - kv,
                                      phys["delta_p"] - delta_R - kv,
                                      phys["big_gamma"])
        full += np.dot(w, ratio)
        wsum_full += w.sum()
        even = idx % 2 == 0
        w_half = np.exp(-0.5 * (kv[even] / D) ** 2)
        w_half[(idx[even] == 0) | (idx[even] == INTERVALS)] *= 0.5
        half += np.dot(w_half, ratio[even])
        wsum_half += w_half.sum()
    pref = phys["prefactor"]
    return pref * full / wsum_full, pref * half / wsum_half


def control_intensity(cp: configparser.ConfigParser, r: np.ndarray,
                      z: float) -> np.ndarray:
    """|G|^2 of the unit-charge doughnut beam, (G0 wc r / w^2)^2 exp(-2 r^2/w^2)."""
    G0 = cp.getfloat("control", "g0_over_gamma")
    wc = cp.getfloat("control", "waist_cm")
    z0 = cp.getfloat("control", "waist_position_cm")
    zR = np.pi * wc ** 2 / cp.getfloat("atom", "lambda_cm")
    w = wc * np.sqrt(1.0 + ((z - z0) / zR) ** 2)
    return (G0 * wc * r / w ** 2) ** 2 * np.exp(-2.0 * r ** 2 / w ** 2)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    scan_ini = BENCH / "workloads" / "chi_scan.ini"
    guided_ini = BENCH / "workloads" / "guided.ini"
    scan_cp = read_ini(scan_ini)
    guided_cp = read_ini(guided_ini)
    scan_phys = physics(scan_cp)
    guided_phys = physics(guided_cp)
    if scan_phys != guided_phys:
        print("chi_scan and guided workloads must share atom and detuning "
              "parameters", file=sys.stderr)
        return 1

    oracle_gap = check_against_oracle(scan_phys)
    print(f"closed form vs density-matrix oracle: max rel {oracle_gap:.2e}")
    # the oracle stops at an absolute residual of 1e-12, which is ~1e-7 of
    # the weakest chi checked; a wrong term in the formula shows at O(1)
    if oracle_gap > 1.0e-6:
        print("closed form disagrees with the oracle", file=sys.stderr)
        return 1

    s = scan_cp["scan"]
    r_values = np.linspace(float(s["r_min_cm"]), float(s["r_max_cm"]),
                           int(s["r_points"]))
    d_values = np.linspace(float(s["delta_R_min_over_gamma"]),
                           float(s["delta_R_max_over_gamma"]),
                           int(s["delta_R_points"]))
    axis = int(np.flatnonzero(r_values == 0.0)[0])
    g2_scan = float(scan_cp["probe"]["g0_over_gamma"]) ** 2
    convergence = 0.0

    scan_points = []
    for off in SCAN_R_OFFSETS:
        i = axis + off
        r = float(r_values[i])
        G2 = float(control_intensity(scan_cp, np.array(r),
                                     float(s["z_cm"])))
        for j in SCAN_D_INDICES:
            d = float(d_values[j])
            chi, chi_half = maxwell_average(g2_scan, G2, d, scan_phys)
            convergence = max(convergence, abs(chi - chi_half) / abs(chi))
            scan_points.append({"i": i, "j": j, "r_cm": r, "delta_R": d,
                                "G_abs2": G2, "g_abs2": g2_scan,
                                "re": chi.real, "im": chi.imag})
            print(f"scan r={r * 1e4:8.2f} um dR={d:+.3f}: {chi:.9e}")

    delta_R = float(guided_cp["detuning"]["delta_R_over_gamma"])
    table_points = []
    for G2 in TABLE_G2:
        for g2 in TABLE_g2:
            chi, chi_half = maxwell_average(g2, G2, delta_R, guided_phys)
            convergence = max(convergence, abs(chi - chi_half) / abs(chi))
            table_points.append({"G_abs2": G2, "g_abs2": g2,
                                 "re": chi.real, "im": chi.imag})
            print(f"table G2={G2:.1e} g2={g2:.1e}: {chi:.9e}")

    print(f"halved-grid change: max rel {convergence:.2e}")
    payload = {
        "generator": "perfbench/reference/make_reference.py",
        "method": ("trapezoid Maxwellian average of the single-velocity "
                   "closed form on a uniform kv grid"),
        "kv_intervals": INTERVALS,
        "span_doppler_widths": SPAN_SIGMAS,
        "oracle_max_rel_gap": oracle_gap,
        "halved_grid_max_rel_change": convergence,
        "chi_scan": {
            "config": "workloads/chi_scan.ini",
            "config_sha256": sha256(scan_ini),
            "r_points": int(s["r_points"]),
            "delta_R_points": int(s["delta_R_points"]),
            "points": scan_points,
        },
        "table": {
            "config": "workloads/guided.ini",
            "config_sha256": sha256(guided_ini),
            "delta_R": delta_R,
            "points": table_points,
        },
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
