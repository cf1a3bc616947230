"""Quick self-test of the benchmark itself (about a minute on two cores).

    python3 perfbench/selftest.py      # or: python3 -m pytest perfbench/selftest.py

Runs every workload and the traced suite at one trial per sweep, checks that
the output check rejects perturbed rows, and that every metric named in
BENCHMARK.json is printed with its unit.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@contextlib.contextmanager
def tiny():
    """Every workload at one trial per sweep and no extra set-up processes."""
    saved = dict(run.WORKLOADS), run.SETUP_SAMPLES
    run.WORKLOADS.update({k: replace(w, trials=1) for k, w in saved[0].items()})
    run.SETUP_SAMPLES = 1
    try:
        yield
    finally:
        run.WORKLOADS.clear()
        run.WORKLOADS.update(saved[0])
        run.SETUP_SAMPLES = saved[1]


def run_main(*argv: str) -> tuple[list[str], dict]:
    out = io.StringIO()
    with tiny(), contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0, f"run.py {' '.join(argv)} exited with {code}"
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def expect_metrics(lines: list[str], result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics {got} differ from BENCHMARK.json {want}"
    for name, unit in [*want.items(), ("fail_ratio", "ratio")]:
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name


def test_every_workload_runs_tiny():
    for workload in SPEC["workloads"]:
        lines, result = run_main("--workload", workload["name"], "--seed", "7",
                                 "--seconds", "0.01", "--trace", "0")
        expect_metrics(lines, result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_suite_runs_tiny():
    lines, result = run_main("--workload", "random-angle", "--seed", "7",
                             "--seconds", "0.01", "--trace", "1")
    expect_metrics(lines, result, SPEC["per_layer"])


def test_check_rejects_perturbed_rows():
    lm = run.load_program()
    reference = checks.load_reference()
    cfg = lm.preset("fig9", trials=run.WORKLOADS["random-angle"].trials, seed=0)
    text = checks.reference_csv(reference, cfg)
    assert checks.check_sweep(text, cfg, reference) == []
    lines = text.splitlines()
    scheme, snr, se, err, trials, flags = lines[5].split(",")

    def with_row(row: str) -> str:
        return "\n".join(lines[:5] + [row] + lines[6:]) + "\n"

    within = with_row(",".join([scheme, snr, repr(float(se) * (1 + 1e-12)), err, trials, flags]))
    assert checks.check_sweep(within, cfg, reference) == []
    for bad in (
        [scheme, snr, repr(float(se) * (1 + 1e-6)), err, trials, flags],
        [scheme, snr, se, repr(float(err) * 1.001), trials, flags],
        [scheme, snr, se, err, str(int(trials) - 1), flags],
        [scheme, snr, se, err, trials, "grouping-fallback:1"],
    ):
        assert checks.check_sweep(with_row(",".join(bad)), cfg, reference), bad
    # A seed without reference rows falls back to the invariants.
    rows = checks.parse_csv(text)
    swapped = [(s, snr_, se_ * (0.5 if s == "PDM-MMSE" else 1.0), e, t, f)
               for s, snr_, se_, e, t, f in rows]
    assert checks.check_invariants(rows, cfg) == []
    assert checks.check_invariants(swapped, cfg)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"PASS {name}")
