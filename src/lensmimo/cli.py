"""Command line front end.

`simulate response` emits lens array response samples, `simulate channel`
prints one random channel realization, `simulate run` runs a Monte Carlo
sweep to stdout, and `simulate sweep` persists it as CSV. Scenario presets
or a flat key=value config file select the experiment; command line flags
override config file values.

Exit codes: 0 success, 2 configuration error or non-finite rate, 3 I/O error.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .arrays import LensArrayConfig
from .channel import sample_paths
from .errors import ConfigError, LensMimoError
from .experiments import (
    ExperimentConfig,
    preset,
    preset_names,
    rows_to_csv,
    run_experiment,
    sweep,
)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# Experiment settings: config file key, its converter and help. Each one is
# also a flag (--snr-db for snr_db) that overrides the config file.
_SETTINGS = {
    "scenario": (str, f"scenario preset: {', '.join(preset_names())} (or fig5..fig10)"),
    "trials": (int, "Monte Carlo trial count"),
    "seed": (int, "experiment seed"),
    "snr_db": (_floats, "SNR grid in dB, comma or space separated"),
    "schemes": (_names, "comma-separated schemes to run"),
    "delta": (int, "support-set radius in antenna indices"),
    "rx_rf": (int, "receive RF chains for UPA antenna selection"),
    "tx_rf": (int, "transmit RF chains for UPA antenna selection"),
}


def parse_config_file(path: str) -> dict:
    """Flat key=value config with # comments; unknown or repeated keys are
    errors."""
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out


def _build_experiment(args) -> ExperimentConfig:
    settings = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _SETTINGS}
    settings.update({key: text for key, text in flags.items() if text is not None})
    try:
        values = {key: _SETTINGS[key][0](text) for key, text in settings.items()}
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    scenario = values.pop("scenario", None)
    if scenario is None:
        raise ConfigError("a scenario is required (--scenario or config file)")
    return preset(scenario, **values)


def _cmd_response(args) -> str:
    cfg = _build_experiment(args)
    rx = LensArrayConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
    freqs = np.linspace(-1.0, 1.0, 81)
    lines = ["spatial_freq,element,response"]
    for freq, resp in zip(freqs, rx.responses(freqs).real):
        for m, value in zip(rx.element_indices, resp):
            lines.append(f"{freq:.6g},{m},{value:.12g}")
    return "\n".join(lines) + "\n"


def _cmd_channel(args) -> str:
    cfg = _build_experiment(args)
    rng = np.random.default_rng([cfg.seed, 0])
    paths = sample_paths(cfg.stats, rng)
    lines = ["path,gain_real,gain_imag,delay_s,aoa_spatial_freq,aod_spatial_freq"]
    for l in range(paths.num_paths):
        g = paths.gains[l]
        lines.append(
            f"{l},{g.real:.12g},{g.imag:.12g},{paths.delays_s[l]:.12g},"
            f"{paths.aoa_spatial_freqs[l]:.12g},{paths.aod_spatial_freqs[l]:.12g}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Lens-array MIMO link simulator (response tables, channel "
        "realizations, Monte Carlo spectral-efficiency sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("response", "emit lens array response samples as CSV"),
        ("channel", "print one random channel realization"),
        ("run", "run a Monte Carlo experiment and print CSV results"),
        ("sweep", "run a Monte Carlo experiment and write CSV to --out"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="output path (default stdout)")
        for key, (_, flag_help) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=flag_help)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "response":
            _emit(_cmd_response(args), args.out)
        elif args.command == "channel":
            _emit(_cmd_channel(args), args.out)
        elif args.command == "run":
            _emit(rows_to_csv(run_experiment(_build_experiment(args))), args.out)
        else:
            cfg = _build_experiment(args)
            if args.out is None:
                raise ConfigError("sweep requires --out")
            sweep(cfg, args.out)
    except LensMimoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
