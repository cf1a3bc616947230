"""Monte Carlo spectral-efficiency experiments.

Runs the multiplexing schemes over random channel realizations on an SNR
grid and reports per-scheme mean spectral efficiency with standard errors.
Four scenario presets reproduce the reference comparisons at desk scale:
narrowband and wideband ideal-angle links (lens vs conventional UPA) and
two wideband random-angle links with small and large AoA spreads.

Trials run in blocks. Every preset places its path angles the same way in
every trial, so a block builds the trial geometry once: the lens and UPA
responses and their factors, the support sets and the support view, the
path groups and the beamformer couplings. Its trials differ only in their
gains and delays, which the schemes take as (T, L) stacks.

Determinism contract: trial t draws its gains and delays from the RNG
substream seeded by (seed, t), every scheme computes each trial's rates
with the same arithmetic whatever block holds it, and results are reduced
in trial order. So identical (config, seed) give identical output
regardless of the block size and the worker count.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .arrays import LensArrayConfig, UpaConfig
from .channel import ChannelStats, PathResponses, PathSet, path_responses, sample_paths
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
from .selection import support_sets
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

# Trials per block: the geometry is built once per block, and a block's
# stacks (T x 512 subcarrier Grams on fig6) stay a few MB.
_BLOCK = 32

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


class _Block:
    """A block of trials on one geometry: the realizations' stacked (T, L)
    gains and delays, and the geometry each scheme reads, built on first
    use and shared by the schemes."""

    def __init__(self, cfg: ExperimentConfig, trials: range) -> None:
        draws = [
            sample_paths(cfg.stats, cfg.num_paths, np.random.default_rng([cfg.seed, t]))
            for t in trials
        ]
        aoa, aod = cfg.stats.placed_angles(cfg.num_paths)
        self.paths = PathSet(
            gains=np.stack([p.gains for p in draws]),
            delays_s=np.stack([p.delays_s for p in draws]),
            aoa_spatial_freqs=aoa,
            aod_spatial_freqs=aod,
        )
        self.cfg = cfg
        self.noise = cfg.stats.noise_power
        self.budgets = np.array([cfg.stats.tx_power(s) for s in cfg.snr_db])
        self.tx = LensArrayConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
        self.rx = LensArrayConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
        self.upa_rx = UpaConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)

    @cached_property
    def lens(self):
        return path_responses(self.paths, self.tx, self.rx, self.cfg.stats.bandwidth_hz)

    @cached_property
    def upa(self):
        upa_tx = UpaConfig(self.cfg.tx_aperture, self.cfg.tx_azimuth_dim)
        return path_responses(self.paths, upa_tx, self.upa_rx, self.cfg.stats.bandwidth_hz)

    @cached_property
    def sets(self):
        return support_sets(self.paths, self.tx, self.rx, self.cfg.delta)

    @cached_property
    def support(self):
        """The lens responses over the unions M_S x Q_S of the support sets."""
        return self.lens.restrict(self.sets.rx.any(axis=0), self.sets.tx.any(axis=0))

    @cached_property
    def pdm_powers(self):
        """(T, B, L) water-filled PDM stream powers, shared by MRC and MMSE."""
        gains = np.abs(self.support.gains) ** 2 * self.rx.aperture * self.tx.aperture
        return water_fill(gains, self.budgets, self.noise)

    def _pdm(self, combiners):
        return pdm_sinr(self.support, combiners, self.pdm_powers, self.noise).sum_rate

    def opdm(self):
        try:
            gains = opdm_decompose(self.paths, self.tx, self.rx)
        except IdealAngleError:
            return None, "opdm-skip"
        return waterfill_capacity(gains, self.budgets, self.noise), None

    def pdm_mrc(self):
        return self._pdm(mrc_combiners(self.support)), None

    def pdm_mmse(self):
        return self._pdm(mmse_combiners(self.support, self.pdm_powers, self.noise)), None

    def pdm_grouping(self):
        try:
            groups = group_channels(self.lens, self.sets)
        except UnsupportedConfigurationError:
            # No side is separated, so the grouped decomposition does not
            # apply; fall back to the MMSE transceiver and flag the trials.
            return self.pdm_mmse()[0], "grouping-fallback"
        return grouped_capacity(groups, self.budgets, self.noise), None

    def upa_eigenmode(self):
        return eigenmode_capacity(self.upa, self.budgets, self.noise), None

    def upa_ofdm(self):
        return ofdm_capacity(self.upa, self.budgets, self.noise, self.cfg.ofdm), None

    def upa_ofdm_selection(self):
        """Antennas picked per trial, as their near-tied picks depend on the
        per-trial arithmetic to the last bit. Trials whose picked antennas
        have the same responses (the n_z antennas of one azimuth index do)
        share one restricted channel and one capacity call."""
        upa, cfg = self.upa, self.cfg
        picked: dict[tuple[bytes, bytes], tuple[PathResponses, list[int]]] = {}
        for t in range(len(upa.gains)):
            trial = replace(upa, gains=upa.gains[t], delays=upa.delays[t])
            rows, cols = power_select_antennas(trial, self.upa_rx, cfg.rx_rf, cfg.tx_rf)
            channel = upa.restrict(rows, cols)
            key = (channel.rx.tobytes(), channel.tx.tobytes())
            picked.setdefault(key, (channel, []))[1].append(t)
        rates = np.empty((len(upa.gains), len(self.budgets)))
        for channel, trials in picked.values():
            channel = replace(channel, gains=channel.gains[trials], delays=channel.delays[trials])
            rates[trials] = ofdm_capacity(channel, self.budgets, self.noise, cfg.ofdm)
        return rates, None


_EVALUATE = {
    "OPDM": _Block.opdm,
    "PDM-MRC": _Block.pdm_mrc,
    "PDM-MMSE": _Block.pdm_mmse,
    "PDM-grouping": _Block.pdm_grouping,
    "UPA-eigenmode": _Block.upa_eigenmode,
    "UPA-OFDM": _Block.upa_ofdm,
    "UPA-OFDM-selection": _Block.upa_ofdm_selection,
}


def _run_block(cfg: ExperimentConfig, trials: range) -> dict:
    """The given trials, evaluated under every configured scheme on one
    geometry.

    Returns scheme -> (rates of shape (len(trials), len(snr_db)) or None,
    flag or None); the flag and the None hold for every trial of the block,
    as both follow from the geometry. A rate that is not finite raises
    NumericalError naming the first such trial, and so does a scheme that
    meets a numerical failure.
    """
    block = _Block(cfg, trials)
    out = {}
    for scheme in cfg.schemes:
        try:
            out[scheme] = _EVALUATE[scheme](block)
        except NumericalError as exc:
            raise NumericalError(f"{scheme}: {exc}") from None
    for i, trial in enumerate(trials):
        for scheme, (rates, _) in out.items():
            if rates is not None and not np.all(np.isfinite(rates[i])):
                snr = cfg.snr_db[np.flatnonzero(~np.isfinite(rates[i]))[0]]
                raise NumericalError(
                    f"{scheme} rate at {snr:g} dB SNR is not finite (trial {trial})"
                )
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
        size = _BLOCK
    else:
        # At least two blocks per worker, so a short sweep still spreads
        # over the pool, with a second round left to even out the finish.
        size = min(_BLOCK, math.ceil(cfg.trials / (2 * workers)))
    blocks = [range(t, min(t + size, cfg.trials)) for t in range(0, cfg.trials, size)]
    if workers == 1:
        results = [_run_block(cfg, b) for b in blocks]
    else:
        # About two chunks of blocks per worker: one round trip per chunk.
        chunk = math.ceil(len(blocks) / (2 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, itertools.repeat(cfg), blocks, chunksize=chunk))
    rows: list[ResultRow] = []
    for scheme in cfg.schemes:
        rates = [r[scheme][0] for r in results if r[scheme][0] is not None]
        flag_counts: dict[str, int] = {}
        for r, b in zip(results, blocks):
            f = r[scheme][1]
            if f is not None:
                flag_counts[f] = flag_counts.get(f, 0) + len(b)
        flags = ";".join(f"{k}:{v}" for k, v in sorted(flag_counts.items()))
        n = sum(len(r) for r in rates)
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
