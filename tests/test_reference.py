"""The benchmark's committed reference rows as a test: sweeps at the trial
counts of the ``perfbench`` workloads must match ``perfbench/reference.json``
under ``perfbench/checks.py`` (exact trials and flags, 1e-9 relative on
se_bpshz and stderr), so a change to a numeric kernel that moves a result
fails here, not only in the benchmark. Both perfbench files are read, never
written.
"""
import importlib.util
from pathlib import Path

import pytest

from lensmimo.experiments import preset, rows_to_csv, run_experiment

pytestmark = pytest.mark.blas_threads

CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load_checks()


# fig6 at every reference seed (2 trials, ~0.1 s in all); fig9 and fig10 at
# three of them (30 trials each).
@pytest.mark.parametrize(
    "name, trials, seeds",
    [("fig6", 2, range(20)), ("fig9", 30, (0, 7, 19)), ("fig10", 30, (0, 7, 19))],
    ids=["fig6", "fig9", "fig10"],
)
def test_sweeps_match_benchmark_reference(name, trials, seeds):
    reference = checks.load_reference()
    problems = []
    for seed in seeds:
        cfg = preset(name, trials=trials, seed=seed)
        assert checks.reference_csv(reference, cfg) is not None, (name, seed)
        text = rows_to_csv(run_experiment(cfg, workers=1))
        problems += checks.check_sweep(text, cfg, reference)
    assert not problems, "\n".join(problems)
