"""Command-line front end: codes, spectra, soundings, and figures of merit.

Subcommands:
  pn gen        write one code period as an ASCII chip string
  pn validate   check every maximal-sequence law, report as JSON
  spectrum      write the code waveform's power spectrum CSV plus a JSON
                summary of line spacing and detected nulls
  sound         run the full simulation chain (TX -> channel -> sliding
                correlator -> profile -> paths) into an output directory
  metrics       print instrument figures of merit as JSON

Exit codes: 0 success; 1 a generated sequence violates a maximal-sequence
law; 2 configuration problems (unreadable file, bad JSON, invalid rates,
FFT shorter than one period); 3 a well-configured run that cannot complete
(capture shorter than one dilated period, no sync peak found).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import extract_paths, instrument_metrics
from .channel import ChannelModel, apply_channel, identity_channel
from .config import RunManifest, load_config
from .errors import ConfigError, InsufficientLength, NotMaximal, SounderSimError
from .fileio import (
    atomic_write_text,
    write_paths_csv,
    write_profile_csv,
    write_slow_capture_csv,
    write_spectrum_csv,
)
from .pn import generate_period, validate_m_sequence
from .sounder import Mode, extract_pdp, sliding_correlate, tx_baseband
from .waveform import chips_to_waveform, find_spectral_nulls, power_spectrum


def _emit_json(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _resolve_threads(flag: int | None, configured: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("SOUNDER_SIM_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(
                f"SOUNDER_SIM_THREADS must be an integer, got {env!r}"
            ) from None
    if configured:
        return configured
    return 1


def cmd_pn_gen(args) -> int:
    spec = load_config(args.config)
    seq = generate_period(spec.pn)
    atomic_write_text(args.out, seq.to_ascii() + "\n")
    return 0


def cmd_pn_validate(args) -> int:
    spec = load_config(args.config)
    try:
        seq = generate_period(spec.pn)
    except NotMaximal as err:
        report = {
            "stages": spec.pn.stages,
            "period": err.period,
            "expected_period": err.expected,
            "violations": [
                f"period: sequence repeats after {err.period} chips;"
                f" a maximal register of this size gives {err.expected}"
            ],
        }
        _emit_json(report, args.out)
        return 1
    report = validate_m_sequence(seq)
    _emit_json(report, args.out)
    return 0 if not report["violations"] else 1


def cmd_spectrum(args) -> int:
    spec = load_config(args.config)
    sp = spec.spectrum
    chip_rate = sp.chip_rate if sp.chip_rate is not None else spec.alpha
    if chip_rate is None:
        raise ConfigError(
            "spectrum needs spectrum.chip_rate or a sounder section with alpha"
        )
    seq = generate_period(spec.pn, chip_rate=chip_rate)
    w = chips_to_waveform(seq, sp.samples_per_chip, sp.periods)
    ps = power_spectrum(w, fft_size=sp.fft_size)
    nulls = find_spectral_nulls(ps, count=sp.null_count)
    write_spectrum_csv(args.out, ps)
    summary = {
        "chip_rate_hz": chip_rate,
        "code_length": spec.pn.length,
        "line_spacing_hz": ps.line_spacing_hz,
        "resolution_bw_hz": ps.resolution_bw,
        "nulls_hz": [float(f) for f in nulls],
        "first_null_hz": float(nulls[0]),
    }
    _emit_json(summary, str(Path(args.out).with_suffix(".json")))
    return 0


def cmd_metrics(args) -> int:
    spec = load_config(args.config)
    _emit_json(instrument_metrics(spec.sounder_config(Mode.RX)), args.out)
    return 0


def cmd_sound(args) -> int:
    spec = load_config(args.config)
    threads = _resolve_threads(args.threads, spec.threads)
    periods = args.periods if args.periods is not None else spec.periods
    if args.channel:
        channel = ChannelModel.from_json_file(args.channel)
    elif spec.channel is not None:
        channel = spec.channel
    else:
        channel = identity_channel()
    if args.seed is not None:
        channel = dataclasses.replace(channel, rng_seed=args.seed)
    effective = dataclasses.replace(
        spec, channel=channel, periods=periods, threads=threads
    )

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    tx = tx_baseband(effective.sounder_config(Mode.TX))
    received = apply_channel(tx, channel)
    del tx  # the correlator needs only the received copy
    trace = sliding_correlate(received, effective.sounder_config(Mode.RX))
    profile = extract_pdp(
        trace, periods, bins_per_chip=effective.bins_per_chip, threads=threads
    )
    paths = extract_paths(profile, floor_db=effective.floor_db)
    duration = time.perf_counter() - started

    trace_path = outdir / "trace.csv"
    profile_path = outdir / "profile.csv"
    paths_path = outdir / "paths.csv"
    write_slow_capture_csv(str(trace_path), trace)
    write_profile_csv(str(profile_path), profile)
    write_paths_csv(str(paths_path), paths)

    rx_cfg = effective.sounder_config(Mode.RX)
    derived = instrument_metrics(rx_cfg)
    derived["slow_rate_hz"] = rx_cfg.slow_rate
    derived["decimation"] = rx_cfg.decimation
    derived["paths_found"] = len(paths)
    manifest = RunManifest(
        config=effective.to_json_dict(),
        seeds={"channel": channel.rng_seed},
        derived=derived,
        outputs=(str(trace_path), str(profile_path), str(paths_path)),
        duration_s=duration,
        tool_version=__version__,
    )
    _emit_json(manifest.to_json_dict(), str(outdir / "manifest.json"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sounder-sim",
        description="Sliding-correlator channel sounding simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("pn", help="generate or validate the spreading code")
    pn_sub = pn.add_subparsers(dest="pn_command", required=True)
    gen = pn_sub.add_parser("gen", help="write one code period as ASCII chips")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_pn_gen)
    val = pn_sub.add_parser("validate", help="check maximal-sequence laws")
    val.add_argument("--config", required=True)
    val.add_argument("--out", help="report JSON path (default: stdout)")
    val.set_defaults(func=cmd_pn_validate)

    spectrum = sub.add_parser("spectrum", help="export the code power spectrum")
    spectrum.add_argument("--config", required=True)
    spectrum.add_argument(
        "--out", required=True, help="CSV path; a .json summary lands beside it"
    )
    spectrum.set_defaults(func=cmd_spectrum)

    sound = sub.add_parser("sound", help="run the full sounding chain")
    sound.add_argument("--config", required=True)
    sound.add_argument("--channel", help="channel JSON (default: config or identity)")
    sound.add_argument("--out", default=".", help="output directory")
    sound.add_argument("--seed", type=int, help="override the channel noise seed")
    sound.add_argument(
        "--periods", type=int, help="dilated periods to average (default: config)"
    )
    sound.add_argument(
        "--threads", type=int,
        help="worker threads (default: $SOUNDER_SIM_THREADS, then config, then 1)",
    )
    sound.set_defaults(func=cmd_sound)

    metrics = sub.add_parser("metrics", help="instrument figures of merit as JSON")
    metrics.add_argument("--config", required=True)
    metrics.add_argument("--out", help="JSON path (default: stdout)")
    metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotMaximal as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConfigError, InsufficientLength) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SounderSimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
