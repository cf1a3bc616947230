"""Monte Carlo spectral-efficiency experiments.

Runs the multiplexing schemes over random channel realizations on an SNR
grid and reports per-scheme mean spectral efficiency with standard errors.
Four scenario presets reproduce the reference comparisons at desk scale:
narrowband and wideband ideal-angle links (lens vs conventional UPA) and
two wideband random-angle links with small and large AoA spreads.

Every preset places its path angles the same way in every trial, so a
config's geometry is fixed by the config alone: the lens and UPA responses
with their Grams, and with the factors and compound Grams that the
configured schemes read, the UPA routes (whether the UPA responses of
either side are orthogonal, which makes every subcarrier narrowband, and
of both, which makes the narrowband gains the Gram diagonals' path terms,
as on fig5 and fig6, where no factor is taken), the flags, the support
sets and the support view with its Grams and receive factor, and the
path groups with their factored rows. It is built at the config's first
block and kept on the config object for its later blocks and sweeps.
Trials run in blocks, which differ only in their gains and delays: each
trial's generator writes its four draws into the block's arrays, and the
schemes take them as (T, L) stacks on the geometry's rows.
UPA-OFDM-selection alone forms rows per trial in each block: it picks
(index, count) per side, builds the picked links from them, and scores
the block in one capacity call.

Determinism contract: trial t draws its gains and delays from the RNG
substream seeded by (seed, t), and every scheme computes each trial's
rates with the same arithmetic whatever block holds it. Each block fills
its trials' slice of one (trial, scheme, SNR) rate array, reduced once in
trial order. So identical (config, seed) give identical output regardless
of the block size and the worker count.

Parallelism: a sweep runs in-process unless the pool pays for itself. The
first block runs in-process and is timed; the other trials go to a pool of
forked worker processes only if the time that block predicts they save
exceeds the pool's cost. The workers inherit the caller's BLAS thread
count; a block's BLAS products are too small for a threaded BLAS to split,
so the workers do not compete with BLAS threads for the cores. The config
is pickled with each chunk of blocks sent to a worker, and its geometry,
built by the first block, with it: a worker builds none.
"""
from __future__ import annotations

import itertools
import math
import numbers
import os
import time
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import ClassVar

import numpy as np
from numpy.random import default_rng  # numpy 2 imports its random module on first use

from .arrays import LensArrayConfig, UpaConfig
from .channel import (
    BANDWIDTH_HZ,
    NOISE_POWER,
    ChannelStats,
    PathSet,
    _draw_block,
    path_responses,
    tx_power,
)
from .errors import ConfigError, InvalidInputError, NumericalError
from .grouping import group_channels, grouped_capacity, path_groups
from .numerics import water_fill, waterfill_capacity
from .opdm import is_ideal, path_gains
from .pdm import mmse_sinr, mrc_sinr, sum_rate
from .selection import support_sets
from .upa import (
    OfdmConfig,
    eigenmode_capacity,
    ofdm_capacity,
    power_select_antennas,
    selected_link,
)

# Trials per block: a block's stacks (T x 512 subcarriers of the selected
# UPA links on fig9 and fig10) stay a few MB.
_BLOCK = 32

# What the worker pool costs, per worker, beyond dividing the work. On a
# 2-vCPU VM (Python 3.11, numpy 2.4) a fork pool that ran no work started
# and stopped in 10-24 ms at 2 workers (median 13) and 29-38 ms at 8, and
# two workers running side by side each took 1.4-1.7x the time one process
# alone took for the same blocks. Forced 2-worker pools first beat the
# serial sweep (warm, medians of 7, fig5, fig6 and fig9 at 64-2000 trials)
# where this rule predicted a saving of 30-55 ms, so the pool starts only
# for a predicted saving above 50 ms at 2 workers.
_WORKER_COST_S = 0.025

_SKIP = "opdm-skip"  # the flag of a scheme whose rates are not taken

_DEFAULT_SNR_DB = tuple(float(s) for s in range(-10, 31, 5))


def _is_count(value) -> bool:
    """Whether ``value`` is an integer and not a bool (True is no count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    delta: int = 1
    rx_rf: int | None = None
    tx_rf: int | None = None
    seed: int = 0
    ofdm: ClassVar[OfdmConfig] = OfdmConfig()

    def __post_init__(self) -> None:
        for field, least in (("trials", 1), ("delta", 1), ("seed", 0)):
            value = getattr(self, field)
            if not (_is_count(value) and value >= least):  # NaN fails
                raise InvalidInputError(f"{field} must be an integer >= {least}, got {value!r}")
        if len(self.snr_db) == 0:
            raise InvalidInputError("snr_db must list at least one SNR point")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise InvalidInputError(f"snr_db values must be finite, got {tuple(self.snr_db)}")
        for i, s in enumerate(self.snr_db):
            if s in self.snr_db[:i]:
                raise InvalidInputError(f"snr_db lists {s:g} dB more than once")
            try:
                power = tx_power(s)
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
        _arrays(self, LensArrayConfig)  # every block builds the lenses
        if {"UPA-eigenmode", "UPA-OFDM", "UPA-OFDM-selection"} & set(self.schemes):
            upa_rx, upa_tx = _arrays(self, UpaConfig)
        if "UPA-OFDM-selection" in self.schemes:
            if self.rx_rf is None or self.tx_rf is None:
                raise InvalidInputError("antenna selection requires rx_rf and tx_rf budgets")
            for field, rf, upa, side in (
                ("rx_rf", self.rx_rf, upa_rx, "receive"),
                ("tx_rf", self.tx_rf, upa_tx, "transmit"),
            ):
                if not (_is_count(rf) and 1 <= rf <= upa.element_count):
                    raise InvalidInputError(
                        f"{field} must be an integer between 1 and {upa.element_count}, the "
                        f"{side} UPA element count; got {rf}"
                    )
        longest_tap = round(self.stats.max_excess_delay_s * BANDWIDTH_HZ)
        if {"UPA-OFDM", "UPA-OFDM-selection"} & set(self.schemes):
            if longest_tap > self.ofdm.cp_samples:
                raise InvalidInputError(
                    f"the cyclic prefix ({self.ofdm.cp_samples} samples) is shorter than the "
                    f"longest channel tap ({longest_tap} samples)"
                )

    @cached_property
    def _geometry(self) -> _Geometry:
        """The geometry of this config object, built at its first block and
        kept for every later block and sweep of it."""
        return _Geometry(self)


@dataclass(frozen=True)
class ResultRow:
    """One (scheme, SNR) aggregate over the contributing trials."""

    scheme: str
    snr_db: float
    se_bpshz: float
    stderr: float
    trials: int
    flags: str = ""


def _arrays(cfg: ExperimentConfig, kind: type) -> tuple:
    """The (receive, transmit) pair of ``kind`` (LensArrayConfig or UpaConfig)."""
    return kind(cfg.rx_aperture, cfg.rx_azimuth_dim), kind(cfg.tx_aperture, cfg.tx_azimuth_dim)


_IDEAL_FREQS = (0.0, 0.2, -0.2)
_SPREAD_AODS = tuple(math.sin(math.radians(d)) for d in (-15.0, 10.0, 45.0))


@cache
def _preset_table() -> dict[str, ExperimentConfig]:
    """The presets, built and validated once; read-only to every caller."""
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


def _read_only(value):
    """``value`` with every array in it made read-only: in its tuples, lists
    and attributes, cached factors included."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            _read_only(item)
    return value


class _Geometry:
    """What every block of a config reads and no draw changes: the budget
    vector, the array pairs, and what the path angles fix, which are the
    lens and UPA responses with their Grams, factors and compound Grams,
    the flags, the support sets, the support view with its Grams and
    receive factor (no combiner: both PDM SINRs are taken in path space),
    and the path groups with their factored rows. Each part is built when
    a block first asks for it, so only the configured schemes' parts are
    built, and each side's factor is taken at the first read of it by any
    block (``PathResponses.with_paths``). Its arrays are read-only in the
    process that built them. A config object keeps its geometry
    (``ExperimentConfig._geometry``) and pickles it with its fields."""

    def __init__(self, cfg: ExperimentConfig) -> None:
        self.cfg = cfg
        self.budgets = _read_only(np.array([tx_power(s) for s in cfg.snr_db]))
        self.rx, self.tx = _arrays(cfg, LensArrayConfig)
        aoa, aod = cfg.stats.placed_angles()
        # The angles, with zero gains and delays: each block has its own.
        self.paths = _read_only(
            PathSet(
                gains=np.zeros(len(aod), dtype=complex),
                delays_s=np.zeros(len(aod)),
                aoa_spatial_freqs=aoa,
                aod_spatial_freqs=aod,
            )
        )

    @cached_property
    def flags(self) -> dict[str, str]:
        """Scheme -> the flag of all its trials: OPDM is skipped off the focused
        grid, PDM-grouping takes the MMSE rates where no side is separated."""
        schemes, flags = self.cfg.schemes, {}
        if "OPDM" in schemes and not is_ideal(self.paths, self.tx, self.rx):
            flags["OPDM"] = _SKIP
        if "PDM-grouping" in schemes and self.groups is None:
            flags["PDM-grouping"] = "grouping-fallback"
        return flags

    @cached_property
    def lens(self):
        return _read_only(path_responses(self.paths, self.tx, self.rx))

    @cached_property
    def sets(self):
        return _read_only(support_sets(self.paths, self.tx, self.rx, self.cfg.delta))

    @cached_property
    def support(self):
        """The lens responses over the unions M_S x Q_S of the support sets."""
        return _read_only(self.lens.restrict(self.sets.rx.any(axis=0), self.sets.tx.any(axis=0)))

    @cached_property
    def groups(self):
        """``grouping.path_groups``: None where no side is separated."""
        return _read_only(path_groups(self.lens, self.sets))

    @cached_property
    def upas(self) -> tuple[UpaConfig, UpaConfig]:  # (receive, transmit)
        return _arrays(self.cfg, UpaConfig)

    @cached_property
    def upa(self):
        return _read_only(path_responses(self.paths, self.upas[1], self.upas[0]))


class _Block:
    """A block of trials on its config's geometry: the realizations' stacked
    (T, L) gains and delays, which each scheme reads with the geometry's
    rows and factors (``PathResponses.with_paths``). Each trial's generator
    makes only the draws of ``sample_paths``, into the block's arrays; the
    rest of their arithmetic runs once on the block's (T, L) arrays."""

    def __init__(self, cfg: ExperimentConfig, trials: range) -> None:
        self.cfg, self.geo = cfg, cfg._geometry
        rngs = [default_rng([cfg.seed, t]) for t in trials]
        gains, delays = _draw_block(cfg.stats, rngs)
        self.paths = PathSet(
            gains=gains,
            delays_s=delays,
            aoa_spatial_freqs=self.geo.paths.aoa_spatial_freqs,
            aod_spatial_freqs=self.geo.paths.aod_spatial_freqs,
        )
        self.delays = self.paths.delay_samples()

    def _on(self, responses):
        """The geometry's ``responses`` with this block's gains and delays."""
        return responses.with_paths(self.paths.gains, self.delays)

    @cached_property
    def path_gains(self):
        """(T, L) |alpha_l|^2 A_R A_T: the OPDM sub-channel gains, and the
        gains over which PDM water-fills its stream powers."""
        return path_gains(self.paths.gains, self.geo.tx, self.geo.rx)

    @cached_property
    def support(self):
        return self._on(self.geo.support)

    @cached_property
    def pdm_powers(self):
        """(T, B, L) water-filled PDM stream powers, shared by MRC and MMSE."""
        return water_fill(self.path_gains, self.geo.budgets, NOISE_POWER)

    def opdm(self):
        return waterfill_capacity(self.path_gains, self.geo.budgets, NOISE_POWER)

    @cached_property
    def mmse_rates(self):  # PDM-MMSE's, and PDM-grouping's where it falls back
        return sum_rate(mmse_sinr(self.support, self.pdm_powers, NOISE_POWER))

    def pdm_mrc(self):
        return sum_rate(mrc_sinr(self.support, self.pdm_powers, NOISE_POWER))

    def pdm_mmse(self):
        return self.mmse_rates

    def pdm_grouping(self):
        if self.geo.groups is None:  # no side separated: the geometry flags the fallback
            return self.mmse_rates
        cores = group_channels(self.geo.groups, self.paths.gains)
        return grouped_capacity(cores, self.geo.budgets, NOISE_POWER)

    @cached_property
    def upa(self):
        return self._on(self.geo.upa)

    def upa_eigenmode(self):
        return eigenmode_capacity(self.upa, self.geo.budgets, NOISE_POWER)

    def upa_ofdm(self):
        return ofdm_capacity(self.upa, self.geo.budgets, NOISE_POWER, self.cfg.ofdm)

    def upa_ofdm_selection(self):
        """Pick, link, capacity: the antennas picked for the whole block in
        one ranking, as (index, count) per side, with each trial's picks bit
        for bit those of its own call (the near-tied picks depend on the
        per-trial arithmetic to the last bit); each trial's picked link at
        azimuth resolution (``selected_link``), (T, L, g) rows of its own
        with one weighted column per picked azimuth index; and one
        ``ofdm_capacity`` call, which splits the links by side ranks and
        route. At the fig9/fig10 budgets g = 1 on both sides, so the link
        is rank 1 and makes no LAPACK call."""
        upa, cfg = self.upa, self.cfg
        picks = power_select_antennas(upa, *self.geo.upas, cfg.rx_rf, cfg.tx_rf)
        link = selected_link(upa, *self.geo.upas, *picks)
        return ofdm_capacity(link, self.geo.budgets, NOISE_POWER, cfg.ofdm)


_EVALUATE = {
    "OPDM": _Block.opdm,
    "PDM-MRC": _Block.pdm_mrc,
    "PDM-MMSE": _Block.pdm_mmse,
    "PDM-grouping": _Block.pdm_grouping,
    "UPA-eigenmode": _Block.upa_eigenmode,
    "UPA-OFDM": _Block.upa_ofdm,
    "UPA-OFDM-selection": _Block.upa_ofdm_selection,
}
SCHEMES = tuple(_EVALUATE)


def _run_block(cfg: ExperimentConfig, trials: range) -> np.ndarray:
    """The given trials, evaluated under every configured scheme on one
    geometry: their rates as one (len(trials), len(schemes), len(snr_db))
    array, with 0 in the columns of a scheme the geometry skips.

    A rate that is not finite raises NumericalError naming the first such
    trial, in (trial, scheme, SNR) order, and a scheme that meets a
    numerical failure, an overflow or an invalid operation (at budgets so
    large that a product leaves double range) raises it naming the scheme.
    """
    block = _Block(cfg, trials)
    out = np.zeros((len(trials), len(cfg.schemes), len(cfg.snr_db)))
    with np.errstate(over="raise", invalid="raise"):
        for k, scheme in enumerate(cfg.schemes):
            try:
                if block.geo.flags.get(scheme) != _SKIP:
                    out[:, k] = _EVALUATE[scheme](block)
            except (NumericalError, FloatingPointError) as exc:
                raise NumericalError(f"{scheme}: {exc}") from None
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        i, k, j = bad[0]
        raise NumericalError(
            f"{cfg.schemes[k]} rate at {cfg.snr_db[j]:g} dB SNR is not finite (trial {trials[i]})"
        )
    return out


def _blocks(start: int, stop: int, size: int) -> list[range]:
    return [range(t, min(t + size, stop)) for t in range(start, stop, size)]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else SIM_THREADS, else CPU count."""
    if workers is None:
        env = os.environ.get("SIM_THREADS", "")
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ConfigError(f"SIM_THREADS must be an integer, got {env!r}") from None
    if not (_is_count(workers) and workers >= 1):  # NaN fails
        raise InvalidInputError(f"worker count must be an integer >= 1, got {workers!r}")
    return workers


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list[ResultRow]:
    """Monte Carlo sweep: one ResultRow per (scheme, SNR).

    Every block fills its trials' slice of one (trial, scheme, SNR) rate
    array, reduced once, in trial order. A flag holds for every trial
    (``_Geometry.flags``); a skipped scheme reports 0 trials.

    The first block runs in-process and is timed. The other trials go to a
    pool of worker processes only if the time this predicts the pool saves
    exceeds its cost; otherwise they run in-process as well.
    """
    workers = resolve_workers(workers)
    blocks = _blocks(0, cfg.trials, _BLOCK)
    rates = np.empty((cfg.trials, len(cfg.schemes), len(cfg.snr_db)))
    start = time.perf_counter()
    rates[: len(blocks[0])] = _run_block(cfg, blocks[0])
    block_s = time.perf_counter() - start
    rest = cfg.trials - len(blocks[0])
    workers = min(workers, rest)
    if workers > 1 and (
        block_s * rest / len(blocks[0]) * (1 - 1 / workers) > _WORKER_COST_S * workers
    ):
        # At least two blocks per worker, so the pool's share still spreads
        # over every worker, with a second round left to even out the finish.
        size = min(_BLOCK, math.ceil(rest / (2 * workers)))
        blocks[1:] = _blocks(len(blocks[0]), cfg.trials, size)
        # About two chunks of blocks per worker: one round trip per chunk.
        chunk = math.ceil((len(blocks) - 1) / (2 * workers))
        # Imported here: it loads multiprocessing, which no in-process sweep needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_run_block, itertools.repeat(cfg), blocks[1:], chunksize=chunk)
            for b, block_rates in zip(blocks[1:], done):
                rates[b.start : b.stop] = block_rates
    else:
        for b in blocks[1:]:
            rates[b.start : b.stop] = _run_block(cfg, b)
    # ndarray.mean and std(ddof=1) of every column, with their arithmetic
    # (sums down the trials in trial order), without their Python-level
    # wrappers; the deviations overwrite the rates, and are 0 at one trial.
    n = cfg.trials
    mean = np.add.reduce(rates, axis=0) / n
    np.subtract(rates, mean, out=rates)
    np.multiply(rates, rates, out=rates)
    err = np.sqrt(np.add.reduce(rates, axis=0) / max(n - 1, 1)) / math.sqrt(n)
    rows: list[ResultRow] = []
    for scheme, se, se_err in zip(cfg.schemes, mean.tolist(), err.tolist()):
        flag = cfg._geometry.flags.get(scheme)
        count = 0 if flag == _SKIP else n
        rows += (
            ResultRow(scheme, float(snr), m, e, count, f"{flag}:{n}" if flag else "")
            for snr, m, e in zip(cfg.snr_db, se, se_err)
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
