"""rbprop benchmark: one workload through the ``rbprop`` CLI.

    python3 perfbench/run.py --workload {guided,free_space,chi_scan} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``./src``.

Every repetition is a fresh interpreter (``child.py``) with an empty output
directory, so the in-process chi-table cache never carries over.  The
parent times each child's lifetime (``wall_s``), reads its CPU time and
peak resident memory from ``wait4`` (``cpu_s``, ``peak_rss_mb``), and checks
its output (``checks.py``).  Repetitions run one at a time (a closed loop
with one client) until ``--seconds`` have passed, at least one.

The seed draws free_space's probe width (see ``workload_config``); guided
and chi_scan are fixed inputs.  The CLI runs with its default ``--seed 0``:
for propagate that seed picks the chi table's verification probes, and some
seeds grow the tables and the run time by more than 2x, so a benchmark seed
passed through would measure which seed was drawn rather than the code.

``--trace 0`` reports the end-to-end metrics, medians over repetitions;
``setup_s`` also pools set-up-only children, three before the first
repetition (after one warm-up) and three after each.  ``--trace 1`` first
runs the tracer self-check (``selfcheck.ini`` at splitting orders 2 and 4:
call counts must equal the step arithmetic), then traced repetitions
until ``--seconds`` have passed, and reports per-layer metrics (medians
over the traced repetitions).  The tracer's
cost, ``trace.overhead_s``, is the time its wrappers spend outside the
calls they wrap, measured in the traced child.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import CHECKS, check_table, load_reference, read_ini
from tracer import BUILD, LAYER_OF, LAYERS, LOOKUP

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / "_work"
REFERENCE = HERE / "reference" / "chi_reference.json"
CHILD_TIMEOUT_S = 170.0

WORKLOADS = {
    "guided": ("propagate", "guided.ini"),
    "free_space": ("propagate", "free_space.ini"),
    "chi_scan": ("chi-scan", "chi_scan.ini"),
}
SETUP_PROBES = 3  # set-up-only children per round, see run_untraced

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def workload_config(workload: str, seed: int) -> Path:
    """The input file of one run.

    free_space draws its probe width from the seed, 0.85 to 1.15 times the
    preset's 48 um; its cost does not depend on the width and its check is
    the analytic beam for whatever width it gets.  guided and chi_scan stay
    fixed: any change to guided's inputs moves its chi-table sizes, and
    chi_scan's reference rows are computed for its exact grid.
    """
    path = HERE / "workloads" / WORKLOADS[workload][1]
    if workload != "free_space":
        return path
    cp = read_ini(path)
    width = cp.getfloat("probe", "width_cm") \
        * random.Random(seed).uniform(0.85, 1.15)
    cp["probe"]["width_cm"] = repr(width)
    out = WORK / f"{workload}-seed{seed}.ini"
    with open(out, "w") as fh:
        cp.write(fh)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "RBPROP_WORKERS": str(nproc),
    })
    return env


def environment_record(env: dict) -> dict:
    import numpy
    import scipy

    def sha256(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "inputs_sha256": {p.name: sha256(p)
                          for p in sorted((HERE / "workloads").glob("*.ini"))},
        "threads": {k: env[k] for k in ("RBPROP_WORKERS", "OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")},
    }


class Child:
    """One finished child process: wall time, rusage and its result file."""

    def __init__(self, tag: str, mode: str, config: Path, cli_args: list[str],
                 env: dict):
        self.out_dir = WORK / tag
        result_path = WORK / f"{tag}.json"
        log_path = WORK / f"{tag}.log"
        argv = [sys.executable, str(HERE / "child.py"), str(result_path),
                mode, str(config), str(REFERENCE), "--", *cli_args,
                "--out", str(self.out_dir)]
        with open(log_path, "wb") as log:
            env = dict(env, PERFBENCH_SPAWN_TIME=repr(time.time()))
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.log = log_path.read_text(errors="replace")
        self.result = (json.loads(result_path.read_text())
                       if result_path.exists() else {})
        self.problems = []
        self.values = {}  # measured by the output check
        if self.exit_code != 0:
            self.problems.append(f"exit code {self.exit_code}")
        imported = self.result.get("rbprop_file", "")
        if not Path(imported).resolve().is_relative_to(ROOT / "src"):
            self.problems.append(f"rbprop imported from {imported!r}, "
                                 f"not {ROOT / 'src'}")

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def run_repetition(tag: str, workload: str, config: Path, env: dict,
                   traced: bool, reference: dict):
    child = Child(tag, "trace" if traced else "run", config,
                  [WORKLOADS[workload][0], "--config", str(config)], env)
    if not child.problems:
        problems, child.values = CHECKS[workload](child.out_dir, config,
                                                  reference)
        child.problems.extend(problems)
    if traced and workload == "guided" and not child.problems:
        child.problems.extend(check_table(child.result))
    child.cleanup()
    status = "ok" if not child.problems else "FAILED: " + "; ".join(
        child.problems)
    print(f"  {tag}: wall {child.wall_s:.3f} s, setup "
          f"{child.result.get('setup_s', float('nan')):.3f} s, cpu "
          f"{child.cpu_s:.3f} s, rss {child.peak_rss_mb:.1f} MB  {status}"
          + "".join(f", {k} {v:.3g}" for k, v in child.values.items()))
    if child.problems:
        print("    " + child.log[-2000:].replace("\n", "\n    "))
    return child


def self_check(env: dict) -> list[str]:
    """Traced tiny run at orders 2 and 4; counts must match the steps."""
    config = HERE / "workloads" / "selfcheck.ini"
    problems = []
    for order in (2, 4):
        child = Child(f"selfcheck-o{order}", "trace", config,
                      ["propagate", "--config", str(config), "--order",
                       str(order)], env)
        child.cleanup()
        if child.problems:
            problems.extend(f"order {order}: {p}" for p in child.problems)
            continue
        trace = child.result["trace"]
        spans = trace["spans"]
        (steps, substeps), = trace["propagations"]
        calls = {name: spans.get(name, {}).get("calls", 0) for name in (
            "solver.diffraction_step", "beams.control_intensity",
            "susceptibility.ChiTable.__call__")}
        stepping_lookups = (calls["susceptibility.ChiTable.__call__"]
                            - trace["lookups_in_builds"])
        n = steps * substeps
        for name, got, want in (
                ("diffraction_calls", calls["solver.diffraction_step"], 2 * n),
                ("control_intensity_calls", calls["beams.control_intensity"],
                 n),
                ("lookup_calls outside table builds", stepping_lookups,
                 4 * n)):
            if got != want:
                problems.append(f"order {order}: {name} = {got}, expected "
                                f"{want} ({steps} steps x {substeps} "
                                "substeps)")
        print(f"  self-check order {order}: {steps} steps x {substeps} "
              f"substeps, diffraction {calls['solver.diffraction_step']}, "
              f"control_intensity {calls['beams.control_intensity']}, "
              f"lookups {calls['susceptibility.ChiTable.__call__']} "
              f"({trace['lookups_in_builds']} inside table builds)")
    return problems


def layer_metrics(child: Child) -> dict:
    """Per-layer metrics of one traced repetition."""
    trace = child.result["trace"]
    spans = trace["spans"]
    counts = trace["counts"]

    def span(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    avg = "susceptibility.chi_doppler_averaged"
    steps = sum(s for s, _ in trace["propagations"])
    tables = trace["tables"]
    final_nodes = tables[-1]["shape"][0] * tables[-1]["shape"][1] \
        if tables else 0
    avg_points = counts.get("avg_points", 0)
    lookup_points = counts.get("lookup_points", 0)
    propagate_s = span("solver.propagate")
    table_err = child.result.get("table_ref_err", {})
    traced_wall = child.wall_s
    m = {
        "config.parse_s": span("config.parse_config"),
        "susceptibility.avg_calls": calls(avg),
        "susceptibility.avg_points": avg_points,
        "susceptibility.avg_s": span(avg),
        "susceptibility.avg_ns_per_point": per(span(avg), avg_points, 1e9),
        "susceptibility.table_builds": calls(BUILD),
        "susceptibility.table_build_s": span(BUILD),
        "susceptibility.table_nodes": final_nodes,
        "susceptibility.table_useful_frac": per(final_nodes, avg_points, 1.0),
        "susceptibility.table_ref_err": table_err.get("in_range", 0.0),
        "susceptibility.table_floor_err": table_err.get("below_floor", 0.0),
        "susceptibility.lookup_calls": calls(LOOKUP),
        "susceptibility.lookup_points": lookup_points,
        "susceptibility.lookup_s": span(LOOKUP),
        "susceptibility.lookup_ns_per_point": per(span(LOOKUP), lookup_points,
                                                  1e9),
        "beams.control_intensity_calls": calls("beams.control_intensity"),
        "beams.control_intensity_s": span("beams.control_intensity"),
        "solver.steps": steps,
        "solver.diffraction_calls": calls("solver.diffraction_step"),
        "solver.diffraction_s": span("solver.diffraction_step"),
        "solver.diffraction_us_per_call": per(span("solver.diffraction_step"),
                                              calls("solver.diffraction_step"),
                                              1e6),
        "solver.self_s": span("solver.propagate", "self_s"),
        "solver.step_ms": per(propagate_s - trace["build_in_propagate_s"],
                              steps, 1e3),
        "analysis.diagnose_calls": calls("analysis.diagnose"),
        "analysis.diagnose_s": span("analysis.diagnose"),
        "fieldio.snapshot_writes": calls("fieldio.write_field"),
        "fieldio.snapshot_bytes": counts.get("snapshot_bytes", 0),
        "fieldio.write_s": span("fieldio.write_field"),
        "fieldio.manifest_s": span("fieldio.RunManifest.write"),
        "fieldio.csv_s": span("fieldio.write_csv"),
        "fieldio.read_s": child.values.get("read_s", 0.0),
        "chi_ref_err": child.values.get("chi_ref_err", 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": trace["overhead_s"],
        "trace.spans": trace["span_count"],
    }
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, entry in spans.items():
        self_by_layer[LAYER_OF[name]] += entry["self_s"]
    # the rest of the child's lifetime: interpreter start, imports, exit
    self_by_layer["cli"] += traced_wall - span("cli.main")
    for layer in LAYERS:
        m[f"share.{layer}"] = self_by_layer[layer] / traced_wall
    return m


PER_LAYER_UNITS = {
    "_s": "s", "_calls": "count", "_points": "count", "_ns_per_point": "ns",
    "_builds": "count", "_nodes": "count", "_frac": "fraction",
    "_err": "relative", "steps": "count", "_us_per_call": "us",
    "_ms": "ms", "_writes": "count", "_bytes": "bytes", "spans": "count",
}


def unit_of(name: str) -> str:
    if name.startswith("share."):
        return "fraction"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def median_metrics(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rbprop" / "__init__.py").is_file():
        print(f"perfbench: no rbprop package under {ROOT / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for the checks' read-back
    reference = load_reference(REFERENCE)
    env = child_env()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        config = workload_config(args.workload, args.seed)
        record = environment_record(env)
        record.update(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      input_sha256=hashlib.sha256(
                          config.read_bytes()).hexdigest())
        print("environment " + json.dumps(record, sort_keys=True))
        run = run_traced if args.trace else run_untraced
        result = run(args, config, env, reference)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_untraced(args, config: Path, env: dict, reference: dict) -> dict:
    # Set-up-only children in rounds, one before the first repetition and
    # one after each, so that the set-up samples span the same stretch of
    # time as the repetitions and not only its first seconds.
    setups = []

    def probe_round(label: str, warm_up: bool = False) -> bool:
        for k in range(SETUP_PROBES + warm_up):
            probe = Child(f"setup-{label}-{k}", "setup", config, [], env)
            if probe.problems:
                print(f"  setup probe {label}-{k} FAILED: {probe.problems}\n"
                      f"{probe.log}")
                return False
            if k or not warm_up:  # the warm-up fills the page and .pyc caches
                setups.append(probe.result["setup_s"])
        return True

    reps = []
    start = time.perf_counter()
    ok = probe_round("first", warm_up=True)
    while ok and (not reps or time.perf_counter() - start < args.seconds):
        reps.append(run_repetition(f"rep-{len(reps)}", args.workload,
                                   config, env, False, reference))
        ok = probe_round(str(len(reps)))
    if not ok:
        return {"correct": False, "attempted": len(reps) + 1,
                "failed": sum(1 for c in reps if c.problems) + 1,
                "metrics": {}}
    print(f"  setup probes: {', '.join(f'{s:.3f}' for s in setups)} s")
    good = [c for c in reps if not c.problems]
    failed = len(reps) - len(good)
    setups += [c.result["setup_s"] for c in good]
    metrics = {}
    if good:
        values = {
            "wall_s": statistics.median(c.wall_s for c in good),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(c.cpu_s for c in good),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in good),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    print(f"{args.workload}: {len(reps)} repetitions, failed_frac "
          f"{failed / len(reps):g}")
    for name, entry in metrics.items():
        print(f"  {name:<14} {entry['value']:>12.4f} {entry['unit']}")
    return {"correct": failed == 0 and bool(good), "attempted": len(reps),
            "failed": failed, "metrics": metrics}


def run_traced(args, config: Path, env: dict, reference: dict) -> dict:
    problems = self_check(env)
    for p in problems:
        print(f"  self-check FAILED: {p}")
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        reps.append(run_repetition(f"traced-{len(reps)}", args.workload,
                                   config, env, True, reference))
    failed = sum(1 for c in reps if c.problems) + (1 if problems else 0)
    metrics = {}
    good = [c for c in reps if not c.problems]
    if good:
        values = median_metrics([layer_metrics(c) for c in good])
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
        builds = ", ".join(f"{t['shape'][0]}x{t['shape'][1]} in {d:.3f} s"
                           for t, d in zip(good[0].result["trace"]["tables"],
                                           good[0].result["trace"]["build_s"]))
        print(f"{args.workload}: failed_frac {failed / (len(reps) + 1):g}; "
              f"table builds of the first traced repetition: {builds or '-'}")
        print(f"per-layer metrics (median of {len(good)} traced "
              "repetitions)")
        for name, entry in metrics.items():
            print(f"  {name:<38} {entry['value']:>16.6g} {entry['unit']}")
    return {"correct": failed == 0 and bool(metrics),
            "attempted": len(reps) + 1, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
