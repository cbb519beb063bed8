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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DelayExceedsDuration, InvalidSnr
from .waveform import SampledWaveform, block_length


def read_json_file(path, what: str):
    """The JSON document in the UTF-8 file at path.

    Any failure to read or decode it is a ConfigError naming what and path;
    ValueError covers a file that is not UTF-8 or not JSON, and an integer
    literal past Python's digit limit, RecursionError one nested too deep.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from None
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{what} {path} is not valid UTF-8 JSON: {err}") from None


def check_keys(section: dict, allowed, where: str) -> None:
    """Reject a section that is not a JSON object or holds unknown keys."""
    if not isinstance(section, dict):
        raise ConfigError(f'"{where}" must be a JSON object')
    unknown = sorted(set(section).difference(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def strict_int(value) -> int:
    """A JSON integer: an int or an integral float; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def read_value(section: dict, key: str, converter, where: str, default=None):
    """section[key] through converter, or default when the key is absent or null.

    A value the converter refuses with TypeError, ValueError or OverflowError,
    or one that converts to a non-finite float, is a ConfigError naming
    where.key; a ConfigError the converter raises itself passes unchanged.
    """
    raw = section.get(key)
    if raw is None:
        return default
    try:
        value = converter(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"config: {where}.{key}: {err}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {raw!r}")
    return value


def read_section(section, table: dict, where: str, defaults) -> dict:
    """read_value of every table key; table maps allowed keys to converters.

    An absent or null key takes defaults.get(key); a null section is empty.
    """
    section = {} if section is None else section
    check_keys(section, table, where)
    return {
        key: read_value(section, key, converter, where, defaults.get(key))
        for key, converter in table.items()
    }


_MAX_GAIN_DB = 20.0 * sys.float_info.max_10_exp  # 10 ** (dB / 20) stays finite


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: delay in seconds, gain in dB, phase in radians."""

    delay: float
    gain_db: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ConfigError(f"path delay must be finite and >= 0, got {self.delay}")
        if not -math.inf < self.gain_db <= _MAX_GAIN_DB:  # also refuses nan
            raise ConfigError(
                f"path gain must be finite and <= {_MAX_GAIN_DB:g} dB,"
                f" got {self.gain_db}"
            )
        if not math.isfinite(self.phase):
            raise ConfigError(f"path phase must be finite, got {self.phase}")

    @property
    def complex_gain(self) -> complex:
        return 10.0 ** (self.gain_db / 20.0) * cmath.exp(1j * self.phase)


_PATH = {"delay_ns": float, "gain_db": float, "phase_deg": float}


def _paths(entries) -> tuple[PathSpec, ...]:
    """The PathSpecs of a channel document's "paths" list."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError('channel JSON "paths" must be a nonempty list')
    paths = []
    for i, entry in enumerate(entries):
        where = f"channel.paths[{i}]"
        f = read_section(entry, _PATH, where, {"gain_db": 0.0, "phase_deg": 0.0})
        if f["delay_ns"] is None:
            raise ConfigError(f'{where} needs a "delay_ns"')
        paths.append(PathSpec(delay=f["delay_ns"] * 1e-9, gain_db=f["gain_db"],
                              phase=math.radians(f["phase_deg"])))
    return tuple(paths)


_CHANNEL = {"paths": _paths, "snr_db": float, "seed": strict_int}


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
        if self.rng_seed < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.rng_seed}")

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
        f = read_section(obj, _CHANNEL, "channel", {"seed": 0})
        if f["paths"] is None:
            raise ConfigError('channel JSON needs a "paths" list')
        return cls(paths=f["paths"], snr_db=f["snr_db"], rng_seed=f["seed"])

    @classmethod
    def from_json_file(cls, path: str) -> "ChannelModel":
        return cls.from_json_dict(read_json_file(path, "channel file"))


def identity_channel() -> ChannelModel:
    return ChannelModel(paths=(PathSpec(delay=0.0),))


def apply_channel(w: SampledWaveform, ch: ChannelModel) -> SampledWaveform:
    """Superpose delayed, complex-scaled copies of the input, then add noise.

    Output has the input's length; each copy is shifted right by its delay
    rounded to the nearest sample (zero-fill at the head, tail truncated).
    Paths and noise are added block by block into the one output array. The
    noise takes all real parts from the seeded stream, then all imaginary
    parts, which is the order of two whole-length standard_normal draws, so
    block size cannot change the output.
    """
    n = len(w)
    shifted_gains = []
    for p in ch.paths:
        if p.delay >= w.duration:
            raise DelayExceedsDuration(
                f"path delay {p.delay:g} s >= waveform duration {w.duration:g} s"
            )
        shift = int(round(p.delay * w.sample_rate))
        if shift < n:
            shifted_gains.append((shift, p.complex_gain))
    # power first: its whole-capture |x| temporary is freed before out exists
    if ch.snr_db is not None:
        power = w.power()
        try:
            signal_power = power * 10.0 ** (ch.strongest_gain_db / 10.0)
            noise_var = signal_power * 10.0 ** (-ch.snr_db / 10.0)
        except OverflowError:
            noise_var = math.inf
        if not math.isfinite(noise_var):
            raise ConfigError(
                f"channel noise variance is not a finite float: input power"
                f" {power:g}, strongest path {ch.strongest_gain_db:g} dB,"
                f" snr_db {ch.snr_db:g}"
            )
        scale = math.sqrt(noise_var / 2.0)

    block = block_length()
    out = np.zeros(n, dtype=np.complex128)
    scratch = np.empty(min(block, n), dtype=np.complex128)
    for start in range(0, n, block):
        stop = min(start + block, n)
        for shift, gain in shifted_gains:
            lo = max(start, shift)
            if lo < stop:
                copy = scratch[: stop - lo]
                # gain first, as in gain * x: SIMD complex products can
                # differ in the last bit when the operands are swapped
                np.multiply(gain, w.samples[lo - shift : stop - shift], out=copy)
                out[lo:stop] += copy

    if ch.snr_db is not None:
        rng = np.random.default_rng(ch.rng_seed)
        draw = np.empty(min(block, n))
        for part in (out.real, out.imag):
            for start in range(0, n, block):
                stop = min(start + block, n)
                noise = draw[: stop - start]
                rng.standard_normal(out=noise)
                noise *= scale
                part[start:stop] += noise

    return SampledWaveform(
        samples=out,
        sample_rate=w.sample_rate,
        samples_per_chip=w.samples_per_chip,
        chips_per_period=w.chips_per_period,
    )
