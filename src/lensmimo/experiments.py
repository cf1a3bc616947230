"""Monte Carlo spectral-efficiency experiments.

Runs the multiplexing schemes over random channel realizations on an SNR
grid and reports per-scheme mean spectral efficiency with standard errors.
Four scenario presets reproduce the reference comparisons at desk scale:
narrowband and wideband ideal-angle links (lens vs conventional UPA) and
two wideband random-angle links with small and large AoA spreads.

Determinism contract: trial t uses the RNG substream seeded by
(seed, t), and results are reduced in trial order, so identical (config,
seed) give identical output regardless of worker count.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .arrays import LensArrayConfig, UpaConfig
from .channel import ChannelStats, PathResponses, path_responses, sample_paths
from .errors import (
    ConfigError,
    IdealAngleError,
    InvalidInputError,
    NumericalError,
    UnsupportedConfigurationError,
)
from .grouping import group_channels, grouped_capacity
from .numerics import water_fill, waterfill_capacity
from .opdm import opdm_decompose
from .pdm import mmse_combiners, mrc_combiners, pdm_sinr
from .selection import restrict_to_support, support_sets
from .upa import OfdmConfig, eigenmode_capacity, ofdm_capacity, power_select_antennas

SCHEMES = (
    "OPDM",
    "PDM-MRC",
    "PDM-MMSE",
    "PDM-grouping",
    "UPA-eigenmode",
    "UPA-OFDM",
    "UPA-OFDM-selection",
)

# The schemes that read the lens path responses and support sets.
_LENS_SCHEMES = frozenset({"PDM-MRC", "PDM-MMSE", "PDM-grouping"})

_DEFAULT_SNR_DB = tuple(float(s) for s in range(-10, 31, 5))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo sweep."""

    scenario: str
    tx_aperture: float
    rx_aperture: float
    tx_azimuth_dim: float
    rx_azimuth_dim: float
    stats: ChannelStats
    schemes: tuple[str, ...]
    snr_db: tuple[float, ...] = _DEFAULT_SNR_DB
    trials: int = 500
    num_paths: int = 3
    delta: int = 1
    rx_rf: int | None = None
    tx_rf: int | None = None
    seed: int = 0
    ofdm: OfdmConfig = OfdmConfig()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidInputError("trials must be at least 1")
        if self.num_paths < 1 or self.delta < 1:
            raise InvalidInputError("num_paths and delta must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")
        if len(self.snr_db) == 0:
            raise InvalidInputError("snr_db must list at least one SNR point")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise InvalidInputError(f"snr_db values must be finite, got {tuple(self.snr_db)}")
        for i, s in enumerate(self.snr_db):
            if s in self.snr_db[:i]:
                raise InvalidInputError(f"snr_db lists {s:g} dB more than once")
            try:
                power = self.stats.tx_power(s)
            except OverflowError:
                power = math.inf
            if not 0.0 < power < math.inf:
                raise InvalidInputError(f"snr_db point {s:g} dB gives transmit power {power:g} mW")
        if len(self.schemes) == 0:
            raise InvalidInputError("schemes must name at least one scheme")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise InvalidInputError(f"unknown scheme {s!r}")
            if s in self.schemes[:i]:
                raise InvalidInputError(f"schemes lists {s!r} more than once")
        if "UPA-OFDM-selection" in self.schemes and (self.rx_rf is None or self.tx_rf is None):
            raise InvalidInputError("antenna selection requires rx_rf and tx_rf budgets")
        longest_tap = round(self.stats.max_excess_delay_s * self.stats.bandwidth_hz)
        if {"UPA-OFDM", "UPA-OFDM-selection"} & set(self.schemes) and (
            longest_tap > self.ofdm.cp_samples
        ):
            raise InvalidInputError(
                f"the cyclic prefix ({self.ofdm.cp_samples} samples) is shorter than the "
                f"longest channel tap ({longest_tap} samples)"
            )


@dataclass(frozen=True)
class ResultRow:
    """One (scheme, SNR) aggregate over the contributing trials."""

    scheme: str
    snr_db: float
    se_bpshz: float
    stderr: float
    trials: int
    flags: str = ""


_IDEAL_FREQS = (0.0, 0.2, -0.2)
_SPREAD_AODS = tuple(math.sin(math.radians(d)) for d in (-15.0, 10.0, 45.0))


def _preset_table() -> dict[str, ExperimentConfig]:
    ideal = dict(aoa_spatial_freqs=_IDEAL_FREQS, aod_spatial_freqs=_IDEAL_FREQS)
    small = dict(tx_aperture=20.0, rx_aperture=20.0, tx_azimuth_dim=10.0, rx_azimuth_dim=10.0)
    large = dict(tx_aperture=100.0, rx_aperture=50.0, tx_azimuth_dim=20.0, rx_azimuth_dim=10.0)
    spread = dict(aod_spatial_freqs=_SPREAD_AODS)
    return {
        "fig5-narrowband-ideal": ExperimentConfig(
            scenario="fig5-narrowband-ideal",
            stats=ChannelStats(max_excess_delay_s=0.0, **ideal),
            schemes=("OPDM", "UPA-eigenmode"),
            **small,
        ),
        "fig6-wideband-ideal": ExperimentConfig(
            scenario="fig6-wideband-ideal",
            stats=ChannelStats(**ideal),
            schemes=("OPDM", "UPA-OFDM"),
            **small,
        ),
        "fig9-wideband-spread150": ExperimentConfig(
            scenario="fig9-wideband-spread150",
            stats=ChannelStats(aoa_spread_deg=150.0, **spread),
            schemes=("PDM-MRC", "PDM-MMSE", "PDM-grouping", "UPA-OFDM-selection"),
            rx_rf=6,
            tx_rf=6,
            **large,
        ),
        "fig10-wideband-spread10": ExperimentConfig(
            scenario="fig10-wideband-spread10",
            stats=ChannelStats(aoa_spread_deg=10.0, **spread),
            schemes=("PDM-MRC", "PDM-MMSE", "PDM-grouping", "UPA-OFDM-selection"),
            rx_rf=6,
            tx_rf=6,
            **large,
        ),
    }


_ALIASES = {
    "fig5": "fig5-narrowband-ideal",
    "fig6": "fig6-wideband-ideal",
    "fig9": "fig9-wideband-spread150",
    "fig10": "fig10-wideband-spread10",
}


def preset_names() -> tuple[str, ...]:
    return tuple(_preset_table())


def preset(name: str, **overrides) -> ExperimentConfig:
    """Scenario preset by full name or short alias, with field overrides."""
    table = _preset_table()
    key = _ALIASES.get(name, name)
    if key not in table:
        known = ", ".join(list(table) + list(_ALIASES))
        raise ConfigError(f"unknown scenario {name!r}; known: {known}")
    try:
        return replace(table[key], **overrides)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _pdm_rates(
    support: PathResponses,
    tx: LensArrayConfig,
    rx: LensArrayConfig,
    budgets,
    noise: float,
    kind: str,
) -> np.ndarray:
    gains = np.abs(support.gains) ** 2 * rx.aperture * tx.aperture
    powers = water_fill(gains, budgets, noise)
    combiners = mrc_combiners(support) if kind == "MRC" else mmse_combiners(support, powers, noise)
    return pdm_sinr(support, combiners, powers, noise).sum_rate


def _run_trial(cfg: ExperimentConfig, trial: int) -> dict:
    """One channel realization, evaluated under every configured scheme.

    The realization's lens and UPA path responses and its support sets are
    built once and shared by the schemes; the lens responses and support
    sets only when a PDM or grouping scheme reads them. Returns scheme ->
    (rates over the SNR grid or None, flag or None); a rate that is not
    finite raises NumericalError.
    """
    rng = np.random.default_rng([cfg.seed, trial])
    paths = sample_paths(cfg.stats, cfg.num_paths, rng)
    noise = cfg.stats.noise_power
    budgets = np.array([cfg.stats.tx_power(s) for s in cfg.snr_db])
    tx = LensArrayConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
    rx = LensArrayConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
    rate = cfg.stats.bandwidth_hz
    upa_rx = UpaConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
    upa = path_responses(paths, UpaConfig(cfg.tx_aperture, cfg.tx_azimuth_dim), upa_rx, rate)
    if _LENS_SCHEMES.intersection(cfg.schemes):
        lens = path_responses(paths, tx, rx, rate)
        sets = support_sets(paths, tx, rx, cfg.delta)
        support = restrict_to_support(lens, sets)
    out: dict = {}
    for scheme in cfg.schemes:
        flag = None
        if scheme == "OPDM":
            try:
                rates = waterfill_capacity(opdm_decompose(paths, tx, rx), budgets, noise)
            except IdealAngleError:
                rates, flag = None, "opdm-skip"
        elif scheme == "PDM-MRC":
            rates = _pdm_rates(support, tx, rx, budgets, noise, "MRC")
        elif scheme == "PDM-MMSE":
            rates = _pdm_rates(support, tx, rx, budgets, noise, "MMSE")
        elif scheme == "PDM-grouping":
            try:
                rates = grouped_capacity(group_channels(lens, sets), budgets, noise)
            except UnsupportedConfigurationError:
                # No side is separated, so the grouped decomposition does not
                # apply; fall back to the MMSE transceiver and flag the trial.
                rates = _pdm_rates(support, tx, rx, budgets, noise, "MMSE")
                flag = "grouping-fallback"
        elif scheme == "UPA-eigenmode":
            rates = eigenmode_capacity(upa, budgets, noise)
        else:  # UPA-OFDM and UPA-OFDM-selection
            channel = upa
            if scheme == "UPA-OFDM-selection":
                rows, cols = power_select_antennas(upa, upa_rx, cfg.rx_rf, cfg.tx_rf)
                channel = upa.restrict(rows, cols)
            rates = ofdm_capacity(channel, budgets, noise, cfg.ofdm)
        if rates is not None and not np.all(np.isfinite(rates)):
            snr = cfg.snr_db[np.flatnonzero(~np.isfinite(rates))[0]]
            raise NumericalError(f"{scheme} rate at {snr:g} dB SNR is not finite (trial {trial})")
        out[scheme] = (rates, flag)
    return out


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else SIM_THREADS, else CPU count."""
    if workers is None:
        env = os.environ.get("SIM_THREADS", "")
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ConfigError(f"SIM_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise InvalidInputError("worker count must be at least 1")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list[ResultRow]:
    """Monte Carlo sweep: one ResultRow per (scheme, SNR).

    Rates are averaged over the trials where the scheme applies; skipped or
    fallback trials are counted in the flags column as name:count pairs.
    """
    workers = min(resolve_workers(workers), cfg.trials)
    if workers == 1:
        trial_results = [_run_trial(cfg, t) for t in range(cfg.trials)]
    else:
        # About two chunks per worker: one round trip per chunk rather than
        # per trial, with a second round left to even out the finish.
        chunk = math.ceil(cfg.trials / (2 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trial_results = list(
                pool.map(_run_trial, itertools.repeat(cfg), range(cfg.trials), chunksize=chunk)
            )
    rows: list[ResultRow] = []
    for scheme in cfg.schemes:
        rates = [r[scheme][0] for r in trial_results if r[scheme][0] is not None]
        flag_counts: dict[str, int] = {}
        for r in trial_results:
            f = r[scheme][1]
            if f is not None:
                flag_counts[f] = flag_counts.get(f, 0) + 1
        flags = ";".join(f"{k}:{v}" for k, v in sorted(flag_counts.items()))
        n = len(rates)
        if n == 0:
            mean = np.zeros(len(cfg.snr_db))
            err = np.zeros(len(cfg.snr_db))
        else:
            stacked = np.vstack(rates)
            mean = stacked.mean(axis=0)
            err = (
                stacked.std(axis=0, ddof=1) / math.sqrt(n)
                if n > 1
                else np.zeros(len(cfg.snr_db))
            )
        for j, snr in enumerate(cfg.snr_db):
            rows.append(
                ResultRow(
                    scheme=scheme,
                    snr_db=float(snr),
                    se_bpshz=float(mean[j]),
                    stderr=float(err[j]),
                    trials=n,
                    flags=flags,
                )
            )
    return rows


CSV_HEADER = "scheme,snr_db,se_bpshz,stderr,trials,flags"


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Deterministic CSV serialization of experiment results."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.scheme},{r.snr_db:.6g},{r.se_bpshz:.12g},{r.stderr:.12g},{r.trials},{r.flags}"
        )
    return "\n".join(lines) + "\n"


def sweep(cfg: ExperimentConfig, out_path: str, workers: int | None = None) -> list[ResultRow]:
    """Run the experiment and persist the rows as CSV at out_path."""
    rows = run_experiment(cfg, workers)
    text = rows_to_csv(rows)
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {out_path!r}: {exc}") from exc
    return rows
