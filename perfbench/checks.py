"""Output checks for the benchmark's sweeps.

For a seed with committed reference rows (``reference.json``) every row must
match: ``scheme``, ``snr_db``, ``trials`` and ``flags`` exactly, ``se_bpshz``
and ``stderr`` within REL_TOL relative error. The tolerance lets a change
that only moves the last digits (an exact water-fill, a low-rank OFDM
solver) pass, and nothing more.

For any other seed the rows must satisfy the invariants the acceptance tests
rely on: PDM-grouping >= PDM-MMSE >= PDM-MRC at each SNR, spectral
efficiency non-decreasing in SNR (except PDM-MRC, see NOT_MONOTONE), and on the ideal-angle wideband preset a
UPA-OFDM/OPDM ratio at the top SNR within 3% of the cyclic-prefix factor.
"""
from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
# Grouped transceivers see only their own antenna subsets, so PDM-MMSE may
# exceed PDM-grouping by sinc-tail leakage, up to this many bps/Hz.
GROUPING_SLACK = 0.01
CP_RATIO_TOL = 0.03
# MRC leaves inter-path interference while water-filling allocates power for
# interference-free gains, so its sum rate can fall at the top of the SNR
# grid (fig10 seeds 4 and 18 do). Every other scheme must not fall.
NOT_MONOTONE = frozenset({"PDM-MRC"})

_HEADER = "scheme,snr_db,se_bpshz,stderr,trials,flags"


def parse_csv(text: str) -> list[tuple]:
    """Rows of a sweep CSV as (scheme, snr_db, se, stderr, trials, flags)."""
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        scheme, snr, se, err, trials, flags = line.split(",")
        rows.append((scheme, float(snr), float(se), float(err), int(trials), flags))
    if not rows:
        raise ValueError("CSV has no rows")
    return rows


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_csv(reference: dict, cfg) -> str | None:
    """Committed CSV for the sweep of ``cfg``, or None if there is none."""
    entry = reference.get(cfg.scenario)
    if entry is None or (entry["trials"], entry["schemes"]) != (cfg.trials, list(cfg.schemes)):
        return None
    return entry["seeds"].get(str(cfg.seed))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or (a == 0.0 and b == 0.0)


def compare_rows(got: list[tuple], want: list[tuple]) -> list[str]:
    """Differences between sweep rows and reference rows (empty if equal)."""
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        exact = (g[0], g[1], g[4], g[5]) == (w[0], w[1], w[4], w[5])
        if not (exact and _close(g[2], w[2]) and _close(g[3], w[3])):
            problems.append(f"row {g} differs from reference {w}")
    return problems


def check_invariants(rows: list[tuple], cfg) -> list[str]:
    """Violations of the scheme-ordering, monotonicity and CP-ratio invariants."""
    by_scheme: dict[str, list[tuple]] = {}
    for row in rows:
        by_scheme.setdefault(row[0], []).append(row)
    se = {s: [r[2] for r in sorted(rs, key=lambda r: r[1])] for s, rs in by_scheme.items()}
    problems = []
    for scheme, values in se.items():
        if scheme in NOT_MONOTONE:
            continue
        for lo, hi in zip(values, values[1:]):
            if hi < lo * (1 - REL_TOL):
                problems.append(f"{scheme}: spectral efficiency falls as SNR rises ({lo} -> {hi})")
    if {"PDM-MRC", "PDM-MMSE", "PDM-grouping"} <= se.keys():
        for mrc, mmse, grp in zip(se["PDM-MRC"], se["PDM-MMSE"], se["PDM-grouping"]):
            if mmse < mrc * (1 - REL_TOL):
                problems.append(f"PDM-MMSE {mmse} below PDM-MRC {mrc}")
            if grp < mmse - GROUPING_SLACK:
                problems.append(f"PDM-grouping {grp} below PDM-MMSE {mmse}")
    if cfg.scenario.startswith("fig6") and {"OPDM", "UPA-OFDM"} <= se.keys():
        cp_factor = cfg.ofdm.subcarriers / (cfg.ofdm.subcarriers + cfg.ofdm.cp_samples)
        ratio = se["UPA-OFDM"][-1] / se["OPDM"][-1]
        if abs(ratio - cp_factor) / cp_factor >= CP_RATIO_TOL:
            problems.append(f"UPA-OFDM/OPDM ratio {ratio:.4f} not within 3% of {cp_factor:.4f}")
    return problems


def check_sweep(text: str, cfg, reference: dict) -> list[str]:
    """Problems with the CSV of one sweep of ``cfg`` (an ExperimentConfig):
    reference rows where committed, else invariants."""
    where = f"{cfg.scenario} seed {cfg.seed}"
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"{where}: unreadable CSV: {exc}"]
    want = reference_csv(reference, cfg)
    if want is not None:
        problems = compare_rows(rows, parse_csv(want))
    else:
        problems = check_invariants(rows, cfg)
    return [f"{where}: {p}" for p in problems]
