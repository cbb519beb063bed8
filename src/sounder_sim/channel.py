"""Static multipath channel: a tapped delay line plus optional AWGN.

Each path is a delayed copy of the input scaled by a complex gain, and the
copies superpose. Delays are quantized to the nearest sample; test fixtures
keep them on the sample grid so quantization never moves a path by more
than half a sample. Noise is complex circular Gaussian with variance set
by snr_db relative to the strongest path's received power.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DelayExceedsDuration, InvalidSnr
from .waveform import SampledWaveform


def check_keys(section: dict, allowed: set, where: str) -> None:
    """Reject a section that is not a JSON object or holds unknown keys."""
    if not isinstance(section, dict):
        raise ConfigError(f'"{where}" must be a JSON object')
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: delay in seconds, gain in dB, phase in radians."""

    delay: float
    gain_db: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ConfigError(f"path delay must be finite and >= 0, got {self.delay}")
        if not math.isfinite(self.gain_db):
            raise ConfigError(f"path gain must be finite, got {self.gain_db}")
        if not math.isfinite(self.phase):
            raise ConfigError(f"path phase must be finite, got {self.phase}")

    @property
    def complex_gain(self) -> complex:
        return 10.0 ** (self.gain_db / 20.0) * cmath.exp(1j * self.phase)

    @property
    def delay_ns(self) -> float:
        return self.delay * 1e9


@dataclass(frozen=True)
class ChannelModel:
    """A set of paths plus an optional noise level (None = noiseless).

    Construction normalizes the path list: sorted by delay, and paths with
    exactly equal delays are merged by adding their complex gains. A merged
    gain of exactly zero drops the path; a channel whose paths all cancel is
    rejected.
    """

    paths: tuple[PathSpec, ...]
    snr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        paths = tuple(self.paths)
        if not paths:
            raise ConfigError("channel needs at least one path")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise InvalidSnr(f"snr_db must be finite or None, got {self.snr_db}")

        merged: dict[float, complex] = {}
        scales: dict[float, float] = {}
        for p in sorted(paths, key=lambda p: p.delay):
            merged[p.delay] = merged.get(p.delay, 0j) + p.complex_gain
            scales[p.delay] = scales.get(p.delay, 0.0) + abs(p.complex_gain)
        kept = []
        for delay, gain in merged.items():
            if abs(gain) <= 1e-12 * scales[delay]:
                continue
            kept.append(
                PathSpec(
                    delay=delay,
                    gain_db=20.0 * math.log10(abs(gain)),
                    phase=cmath.phase(gain),
                )
            )
        if not kept:
            raise ConfigError("all paths cancel; channel would be identically zero")
        object.__setattr__(self, "paths", tuple(kept))

    @property
    def strongest_gain_db(self) -> float:
        return max(p.gain_db for p in self.paths)

    def to_json_dict(self) -> dict:
        return {
            "paths": [
                {
                    "delay_ns": p.delay * 1e9,
                    "gain_db": p.gain_db,
                    "phase_deg": math.degrees(p.phase),
                }
                for p in self.paths
            ],
            "snr_db": self.snr_db,
            "seed": self.rng_seed,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ChannelModel":
        check_keys(obj, {"paths", "snr_db", "seed"}, "channel")
        try:
            raw_paths = obj["paths"]
        except KeyError:
            raise ConfigError('channel JSON needs a "paths" list') from None
        if not isinstance(raw_paths, list) or not raw_paths:
            raise ConfigError('channel JSON "paths" must be a nonempty list')
        paths = []
        for entry in raw_paths:
            check_keys(entry, {"delay_ns", "gain_db", "phase_deg"}, "channel path")
            try:
                delay_ns = float(entry["delay_ns"])
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"bad path entry: {entry!r}") from None
            paths.append(
                PathSpec(
                    delay=delay_ns * 1e-9,
                    gain_db=float(entry.get("gain_db", 0.0)),
                    phase=math.radians(float(entry.get("phase_deg", 0.0))),
                )
            )
        snr = obj.get("snr_db")
        return cls(
            paths=tuple(paths),
            snr_db=None if snr is None else float(snr),
            rng_seed=int(obj.get("seed", 0)),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "ChannelModel":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"channel file {path}: {err}") from None
        return cls.from_json_dict(obj)


def identity_channel() -> ChannelModel:
    return ChannelModel(paths=(PathSpec(delay=0.0),))


def apply_channel(w: SampledWaveform, ch: ChannelModel) -> SampledWaveform:
    """Superpose delayed, complex-scaled copies of the input, then add noise.

    Output has the input's length; each copy is shifted right by its delay
    rounded to the nearest sample (zero-fill at the head, tail truncated).
    """
    n = len(w)
    out = np.zeros(n, dtype=np.complex128)
    for p in ch.paths:
        if p.delay >= w.duration:
            raise DelayExceedsDuration(
                f"path delay {p.delay:g} s >= waveform duration {w.duration:g} s"
            )
        shift = int(round(p.delay * w.sample_rate))
        if shift >= n:
            continue
        out[shift:] += p.complex_gain * w.samples[: n - shift]

    if ch.snr_db is not None:
        signal_power = w.power() * 10.0 ** (ch.strongest_gain_db / 10.0)
        noise_var = signal_power * 10.0 ** (-ch.snr_db / 10.0)
        rng = np.random.default_rng(ch.rng_seed)
        scale = math.sqrt(noise_var / 2.0)
        out = out + scale * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )

    return SampledWaveform(
        samples=out,
        sample_rate=w.sample_rate,
        start_time=w.start_time,
        chip_rate=w.chip_rate,
        chips_per_period=w.chips_per_period,
    )
