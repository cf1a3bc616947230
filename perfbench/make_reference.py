"""Regenerate reference.json: the sweep CSV of every benchmark preset for the
default seeds, at the trial counts the workloads use.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to alter its results, and
say so in CHANGES.md; the benchmark's output check compares against these rows.
"""
from __future__ import annotations

import json

from checks import REFERENCE_PATH
from run import WORKLOADS, load_program, run_sweep

DEFAULT_SEEDS = range(20)


def main() -> None:
    lm = load_program()
    reference = {}
    for work in WORKLOADS.values():
        for alias in work.presets:
            cfg = lm.preset(alias, trials=work.trials)
            entry = reference.setdefault(
                cfg.scenario, {"trials": cfg.trials, "schemes": list(cfg.schemes), "seeds": {}}
            )
            for seed in DEFAULT_SEEDS:
                if str(seed) not in entry["seeds"]:
                    _, text = run_sweep(lm, lm.preset(alias, trials=work.trials, seed=seed), 1, False)
                    entry["seeds"][str(seed)] = text
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
