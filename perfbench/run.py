"""Monte Carlo sweep benchmark for lensmimo.

Usage, from the repository root:

    python3 perfbench/run.py --workload random-angle --seed 3 --seconds 30 --trace 0

Every result of the package is a spectral-efficiency-versus-SNR curve from
a Monte Carlo sweep, so the end-to-end figure is trials completed per
second. One process drives whole preset sweeps through the public API
(``run_experiment``, or ``sweep`` with CSV for the pool workload) for
``--seconds``, checks every sweep's rows (see ``checks.py``) and prints the
end-to-end metrics as the last line of standard output.

``--trace 1`` instead runs the traced suite at one worker: the
ideal-wideband and random-angle sweeps with every public layer function
wrapped (see ``spans.py``), the same sweeps without wrappers, the pool
sweep, and one sweep per scheme. It prints the per-layer metrics of
PER_LAYER, each taken from the sweep of the workload it should move.

The benchmark reads the thread variables in THREAD_ENV and records them; it
never sets them, so pinning BLAS threads inside the program can show as a
gain. The program is imported from ``src/`` next to this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from checks import check_sweep, load_reference, parse_csv
from spans import Profile, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SIM_THREADS")
SETUP_SAMPLES = 5  # this process's own set-up plus four fresh processes
PROBE_TIMEOUT_S = 30


@dataclass(frozen=True)
class Workload:
    presets: tuple[str, ...]
    trials: int  # per preset sweep
    pool: bool  # sweep(...) with CSV at one worker per available core


WORKLOADS = {
    "ideal-wideband": Workload(("fig6",), 2, False),
    "random-angle": Workload(("fig9", "fig10"), 30, False),
    "random-angle-pool": Workload(("fig9", "fig10"), 30, True),
}

END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric, unit, better, and the end-to-end metric and workload it
# should move. Per-trial values come from the traced sweep of that workload.
PER_LAYER = (
    ("numerics.svd.calls", "calls/trial", "lower", "trials_per_s on ideal-wideband"),
    ("numerics.svd.self_ms", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("numerics.svd.gflop_computed", "GFLOP/trial", "lower", "trials_per_s on ideal-wideband"),
    ("numerics.water_fill.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("numerics.water_fill.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("numerics.water_fill.gains_in", "gains/trial", "lower", "trials_per_s on random-angle"),
    ("numerics.waterfill_capacity.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("upa.ofdm_subchannels.self_ms", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("upa.ofdm_subchannels.bytes_computed", "B/trial", "lower", "peak_rss_mb on ideal-wideband"),
    ("upa.ofdm_eigen_gains.self_ms", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("upa.upa_tapped_channel.self_ms", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("upa.ofdm_capacity_from_gains.self_ms", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("upa.power_select_antennas.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.mmse_combiners.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.mmse_combiners.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.pdm_sinr.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.pdm_sinr.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.mrc_combiners.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.mrc_combiners.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.mrt_precoders.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("pdm.mrt_precoders.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("grouping.grouped_capacity.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("grouping.group_channels.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("grouping.fallback_ratio", "ratio", "lower", "trials_per_s on random-angle"),
    ("selection.support_sets.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("selection.support_sets.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("arrays.lens_response_spatial.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("arrays.upa_response.calls", "calls/trial", "lower", "trials_per_s on random-angle"),
    ("arrays.lens_response_spatial.distinct_ratio", "ratio", "higher", "trials_per_s on random-angle"),
    ("arrays.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("opdm.self_ms", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("opdm.skip_ratio", "ratio", "lower", "trials_per_s on ideal-wideband"),
    ("channel.sample_paths.self_ms", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("experiments.overhead_ms", "ms/trial", "lower", "trials_per_s on random-angle-pool"),
    ("experiments.parallel_speedup", "x", "higher", "trials_per_s on random-angle-pool"),
    ("experiments.parallel_efficiency", "ratio", "higher", "trials_per_s on random-angle-pool"),
    ("experiments.cpu_per_wall", "ratio", "higher", "trials_per_s on random-angle-pool"),
    ("scheme.OPDM.ms_per_trial", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("scheme.UPA-OFDM.ms_per_trial", "ms/trial", "lower", "trials_per_s on ideal-wideband"),
    ("scheme.PDM-MRC.ms_per_trial", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("scheme.PDM-MMSE.ms_per_trial", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("scheme.PDM-grouping.ms_per_trial", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("scheme.UPA-OFDM-selection.ms_per_trial", "ms/trial", "lower", "trials_per_s on random-angle"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of the wrappers"),
)


class ProgramMissing(RuntimeError):
    pass


class Tally:
    """Sweeps attempted and failed (raised, or failed the output check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def load_program():
    """Import lensmimo from the checkout's src/, never from elsewhere."""
    pkg = SRC / "lensmimo"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no lensmimo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lensmimo

    if Path(lensmimo.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"lensmimo was imported from {lensmimo.__file__}, not {pkg}")
    return lensmimo


def pool_workers() -> int:
    return len(os.sched_getaffinity(0))


def run_sweep(lm, cfg, workers: int, pool: bool) -> tuple[int, str]:
    """One sweep: (wall ns of the run_experiment/sweep call, its CSV text)."""
    if pool:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{cfg.scenario}-seed{cfg.seed}.csv"
        start = time.perf_counter_ns()
        lm.sweep(cfg, str(path), workers=workers)
        wall = time.perf_counter_ns() - start
        return wall, path.read_text(encoding="utf-8")
    start = time.perf_counter_ns()
    rows = lm.run_experiment(cfg, workers=workers)
    wall = time.perf_counter_ns() - start
    return wall, lm.experiments.rows_to_csv(rows)


def checked_sweep(lm, cfg, workers, pool, reference, tally) -> tuple[int, str | None]:
    """run_sweep, counting a raise or a failed check against ``tally``."""
    try:
        wall, text = run_sweep(lm, cfg, workers, pool)
    except Exception:  # a failing sweep is a result to count, not a crash
        tally.record([f"{cfg.scenario} seed {cfg.seed} raised:\n{traceback.format_exc()}"])
        return 0, None
    tally.record(check_sweep(text, cfg, reference))
    return wall, text


def setup(name: str, seed: int):
    """Import, preset build and a one-trial warm-up sweep: (seconds, lm, cfgs)."""
    start = time.perf_counter()
    lm = load_program()
    work = WORKLOADS[name]
    cfgs = [lm.preset(p, trials=work.trials, seed=seed) for p in work.presets]
    workers = pool_workers() if work.pool else 1
    for cfg in cfgs:
        run_sweep(lm, replace(cfg, trials=1), workers, work.pool)
    return time.perf_counter() - start, lm, cfgs


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine(load_at_start: tuple[float, float, float]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": pool_workers(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_at_start": load_at_start,
    }


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def measure(name: str, seed: int, seconds: float, reference: dict, tally: Tally):
    """Timed sweeps of one workload: (metrics, report)."""
    setup_s, lm, cfgs = setup(name, seed)
    work = WORKLOADS[name]
    workers = pool_workers() if work.pool else 1
    wall_ns = trials = 0
    unit_rates = []
    deadline = time.perf_counter() + seconds
    while True:
        unit_ns = unit_trials = 0
        for cfg in cfgs:
            wall, text = checked_sweep(lm, cfg, workers, work.pool, reference, tally)
            if text is not None:
                unit_ns += wall
                unit_trials += cfg.trials
        wall_ns += unit_ns
        trials += unit_trials
        if unit_ns:
            unit_rates.append(unit_trials / (unit_ns / 1e9))
        if time.perf_counter() >= deadline:
            break
    # Pool workers are the only children so far, so RUSAGE_CHILDREN is theirs.
    own_rss, worker_rss = peak_rss_mb()
    setups = [setup_s] + [probe_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    if not trials:
        raise RuntimeError("every sweep failed:\n" + "\n".join(tally.problems))
    metrics = {
        "trials_per_s": trials / (wall_ns / 1e9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(own_rss, worker_rss),
    }
    report = {
        "workers": workers,
        "trials": trials,
        "sweep_wall_s": wall_ns / 1e9,
        "unit_trials_per_s": unit_rates,
        "setup_samples_s": setups,
        "rss_mb": {"benchmark": own_rss, "largest_pool_worker": worker_rss if work.pool else None},
    }
    return metrics, report


# ---------------------------------------------------------------- traced run


def _flag_count(text: str, scheme: str, flag: str) -> int:
    """Trials of ``scheme`` carrying ``flag`` in a sweep CSV."""
    for name, _, _, _, _, flags in parse_csv(text):
        if name == scheme:
            counts = dict(item.split(":") for item in flags.split(";") if item)
            return int(counts.get(flag, 0))
    return 0


def _scheme_lines(text: str, scheme: str) -> list[str]:
    return [line for line in text.splitlines()[1:] if line.split(",")[0] == scheme]


def traced_sweeps(lm, cfgs, reference, tally):
    """The sweeps without, then with wrappers; checks that both give the same
    CSV and that the spans account for the traced time.

    Returns (profile, untraced ns, traced ns, experiments overhead ns, CSVs).
    """
    plain_ns, plain = 0, []
    for cfg in cfgs:
        wall, text = checked_sweep(lm, cfg, 1, False, reference, tally)
        plain_ns += wall
        plain.append(text)
    traced_ns, traced = 0, []
    with Tracer() as tracer:
        for cfg in cfgs:
            wall, text = checked_sweep(lm, cfg, 1, False, reference, tally)
            traced_ns += wall
            traced.append(text)
    profile = Profile(tracer.spans)
    overhead_ns = traced_ns - profile.top_level_ns
    problems = []
    if traced != plain:
        problems.append("traced CSV differs from the untraced CSV")
    if profile.negative_self or overhead_ns < 0:
        problems.append("span self times do not fit inside their sweep")
    if profile.total_self_ns() + overhead_ns != traced_ns:
        problems.append("self times plus overhead do not add up to the traced sweep time")
    tally.record(problems)
    return profile, plain_ns, traced_ns, overhead_ns, traced


def per_trial(profile: Profile, trials: int) -> dict:
    """Per-trial calls and self ms of every traced function."""
    out = {}
    for name, calls in profile.calls.items():
        out[f"{name}.calls"] = calls / trials
        out[f"{name}.self_ms"] = profile.self_ns[name] / 1e6 / trials
    return out


def svd_gflop(shapes) -> float:
    """Thin complex SVD with U and V: 4 x Golub-Van Loan's 14mn^2 + 8n^3 (m >= n)."""
    total = 0.0
    for _, shape in shapes:
        m, n = max(shape), min(shape)
        total += 4.0 * (14.0 * m * n * n + 8.0 * n**3)
    return total / 1e9


def trace_suite(seed: int, reference: dict, tally: Tally) -> dict:
    """Every per-layer metric of PER_LAYER, from the traced suite."""
    _, lm, wide = setup("ideal-wideband", seed)
    _, _, spread = setup("random-angle", seed)
    n_wide = sum(c.trials for c in wide)
    n_spread = sum(c.trials for c in spread)

    wide_prof, wide_plain_ns, wide_traced_ns, _, wide_text = traced_sweeps(
        lm, wide, reference, tally
    )
    spread_prof, spread_plain_ns, spread_traced_ns, spread_overhead_ns, spread_text = (
        traced_sweeps(lm, spread, reference, tally)
    )
    w = per_trial(wide_prof, n_wide)
    r = per_trial(spread_prof, n_spread)

    workers = pool_workers()
    cpu0 = os.times()
    pool_ns = 0
    for cfg in spread:
        pool_ns += checked_sweep(lm, cfg, workers, True, reference, tally)[0]
    cpu1 = os.times()
    cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])

    schemes = {}
    for cfgs, texts in ((wide, wide_text), (spread, spread_text)):
        for scheme in cfgs[0].schemes:
            wall_ns, problems = 0, []
            for cfg, full in zip(cfgs, texts):
                try:
                    wall, text = run_sweep(lm, replace(cfg, schemes=(scheme,)), 1, False)
                except Exception:
                    problems.append(f"{scheme} sweep raised:\n{traceback.format_exc()}")
                    continue
                wall_ns += wall
                if full is None or _scheme_lines(text, scheme) != _scheme_lines(full, scheme):
                    problems.append(f"{cfg.scenario}: {scheme}-only rows differ from the full sweep")
            tally.record(problems)
            schemes[scheme] = wall_ns / 1e6 / sum(c.trials for c in cfgs)

    lens_keys = spread_prof.details.get("arrays.lens_response_spatial", [])
    speedup = spread_plain_ns / pool_ns
    metrics = {
        "numerics.svd.gflop_computed": svd_gflop(wide_prof.details.get("numerics.svd", []))
        / n_wide,
        "numerics.water_fill.gains_in": sum(
            g for _, g in spread_prof.details.get("numerics.water_fill", [])
        )
        / n_spread,
        "upa.ofdm_subchannels.bytes_computed": sum(
            k * m * n * 16 for _, ((m, n), k) in wide_prof.details.get("upa.ofdm_subchannels", [])
        )
        / n_wide,
        "grouping.fallback_ratio": sum(
            _flag_count(t, "PDM-grouping", "grouping-fallback") for t in spread_text if t
        )
        / n_spread,
        "arrays.lens_response_spatial.distinct_ratio": (
            len(set(lens_keys)) / len(lens_keys) if lens_keys else 1.0
        ),
        "arrays.self_ms": spread_prof.layer_self_ns("arrays") / 1e6 / n_spread,
        "opdm.self_ms": wide_prof.layer_self_ns("opdm") / 1e6 / n_wide,
        "opdm.skip_ratio": sum(_flag_count(t, "OPDM", "opdm-skip") for t in wide_text if t)
        / n_wide,
        "experiments.overhead_ms": spread_overhead_ns / 1e6 / n_spread,
        "experiments.parallel_speedup": speedup,
        "experiments.parallel_efficiency": speedup / workers,
        "experiments.cpu_per_wall": cpu_s / (pool_ns / 1e9),
        "trace.overhead_ratio": (wide_traced_ns + spread_traced_ns)
        / (wide_plain_ns + spread_plain_ns),
    }
    metrics.update({f"scheme.{s}.ms_per_trial": v for s, v in schemes.items()})
    for name, _, _, moves in PER_LAYER:
        if name not in metrics:  # plain per-trial calls or self time
            source = w if moves.endswith("ideal-wideband") else r
            metrics[name] = source.get(name, 0.0)
    return metrics


# ---------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup(args.workload, args.seed)[0]))
            return 0
        reference = load_reference()
        tally = Tally()
        if args.trace:
            values = trace_suite(args.seed, reference, tally)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            report = {}
        else:
            values, report = measure(args.workload, args.seed, args.seconds, reference, tally)
            units = dict(END_TO_END)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    fail_ratio = tally.failed / tally.attempted
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=tally.attempted, failed=tally.failed, fail_ratio=fail_ratio,
                  machine=machine(load_at_start))
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    for name, unit in units.items():
        beside = f" ({report['trials']} trials)" if name == "trials_per_s" else ""
        print(f"{name} = {values[name]!r} {unit}{beside}")
    print(f"fail_ratio = {fail_ratio!r} ratio ({tally.failed} of {tally.attempted} sweeps)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
