"""Static multipath channel: a tapped delay line plus an optional noise level.

Each path is a delayed copy of the input scaled by a complex gain, and the
copies superpose. A path holds the channel document's own numbers (delay in
ns, gain in dB, phase in degrees), so a channel written with to_json_dict
reads back with every complex gain bit for bit. Delays are quantized to the
nearest sample; test fixtures keep them on the sample grid so quantization
never moves a path by more than half a sample. An input that states it
repeats bit for bit, so its output repeats from the last path's arrival
on: when a whole period fits after it, apply_channel sums the paths only
up to one period past it and returns those samples as a waveform that
states that repeat (waveform.repeating). The noise is complex
circular Gaussian with variance set by snr_db relative to the strongest
path's received power for a unit-power input (noise_std). apply_channel
adds none: the receiver draws it, per decimation window (see
sliding_correlate).
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    DelayExceedsDuration,
    InvalidSnr,
    finite_real,
    refuse_beyond_memory,
    whole_count,
)
from .waveform import SampledWaveform, block_length, repeating


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
    """A JSON integer under the count rule; an integral float such as 4.0 is one."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return whole_count(value, "value", None, TypeError)


def strict_float(value) -> float:
    """A JSON number under the real rule (never a bool), or a numeric string."""
    if isinstance(value, str):
        return float(value)
    return finite_real(value, "value", error=TypeError)


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
    if isinstance(value, float):
        finite_real(value, f"{where}.{key}")
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


@dataclass(frozen=True, kw_only=True)
class PathSpec:
    """One propagation path: delay in ns, gain in dB, phase in degrees."""

    delay_ns: float
    gain_db: float = 0.0
    phase_deg: float = 0.0

    def __post_init__(self):
        if finite_real(self.delay_ns, "path delay") < 0:
            raise ConfigError(f"path delay must be >= 0, got {self.delay_ns} ns")
        if finite_real(self.gain_db, "path gain") > _MAX_GAIN_DB:
            raise ConfigError(f"path gain must be <= {_MAX_GAIN_DB:g} dB, got {self.gain_db}")
        finite_real(self.phase_deg, "path phase")

    @classmethod
    def from_seconds(cls, delay: float, gain_db: float = 0.0, phase: float = 0.0) -> "PathSpec":
        """A path from a delay in seconds and a phase in radians.

        Each converts once into the document's units, so the delay and phase
        properties may read back an ulp away from the given values.
        """
        return cls(delay_ns=delay * 1e9, gain_db=gain_db, phase_deg=math.degrees(phase))

    @property
    def delay(self) -> float:
        """Delay in seconds."""
        return self.delay_ns * 1e-9

    @property
    def phase(self) -> float:
        """Phase in radians."""
        return math.radians(self.phase_deg)

    @property
    def complex_gain(self) -> complex:
        return 10.0 ** (self.gain_db / 20.0) * cmath.exp(1j * self.phase)


_PATH = {"delay_ns": strict_float, "gain_db": strict_float, "phase_deg": strict_float}


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
        paths.append(PathSpec(**f))
    return tuple(paths)


_CHANNEL = {"paths": _paths, "snr_db": strict_float, "seed": strict_int}


@dataclass(frozen=True)
class ChannelModel:
    """A set of paths plus an optional noise level (None = noiseless).

    Construction normalizes the path list: sorted by delay, and paths with
    exactly equal delays are merged by adding their complex gains; a lone
    path is kept as given. A merged gain of exactly zero drops the path; a
    channel whose paths all cancel is rejected.
    """

    paths: tuple[PathSpec, ...]
    snr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        paths = tuple(self.paths)
        if not paths:
            raise ConfigError("channel needs at least one path")
        if self.snr_db is not None:
            finite_real(self.snr_db, "snr_db", error=InvalidSnr)
        object.__setattr__(self, "rng_seed", whole_count(self.rng_seed, "noise seed", 0))

        groups: dict[float, list[PathSpec]] = {}
        for p in sorted(paths, key=lambda p: p.delay_ns):
            groups.setdefault(p.delay_ns, []).append(p)
        kept = []
        for delay_ns, group in groups.items():
            gain = sum((p.complex_gain for p in group), 0j)
            if abs(gain) <= 1e-12 * sum(abs(p.complex_gain) for p in group):
                continue
            if len(group) == 1:
                # re-deriving gain_db and phase_deg from the gain would move
                # its last bit, so a rebuilt channel (replace, or a JSON round
                # trip) would not keep its gains
                kept.append(group[0])
                continue
            kept.append(
                PathSpec(
                    delay_ns=delay_ns,
                    gain_db=20.0 * math.log10(abs(gain)),
                    phase_deg=math.degrees(cmath.phase(gain)),
                )
            )
        if not kept:
            raise ConfigError("all paths cancel; channel would be identically zero")
        object.__setattr__(self, "paths", tuple(kept))
        self.noise_std()  # a level float64 cannot hold is refused here

    @property
    def strongest_gain_db(self) -> float:
        return max(p.gain_db for p in self.paths)

    def noise_std(self) -> float | None:
        """Standard deviation of each noise component (real or imaginary).

        Relative to a unit-power input, as every code waveform is; None for
        a noiseless channel. A variance float64 cannot hold is a ConfigError.
        """
        if self.snr_db is None:
            return None
        try:
            signal_power = 10.0 ** (self.strongest_gain_db / 10.0)
            noise_var = signal_power * 10.0 ** (-self.snr_db / 10.0)
        except OverflowError:
            noise_var = math.inf
        if not math.isfinite(noise_var):
            raise ConfigError(
                f"channel noise variance is not a finite float: strongest path"
                f" {self.strongest_gain_db:g} dB, snr_db {self.snr_db:g}"
            )
        return math.sqrt(noise_var / 2.0)

    def to_json_dict(self) -> dict:
        return {
            "paths": [asdict(p) for p in self.paths],
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
    return ChannelModel(paths=(PathSpec(delay_ns=0.0),))


def apply_channel(w: SampledWaveform, ch: ChannelModel) -> SampledWaveform:
    """Superpose delayed, complex-scaled copies of the input.

    Output has the input's length; each copy is shifted right by its delay
    rounded to the nearest sample (zero-fill at the head, tail truncated).
    Paths are added block by block, reading the input through w.source.
    The channel's noise is left to the receiver (sliding_correlate).

    An input that states it repeats with period P from sample s (repeats:
    every chips_to_waveform output and every tx_baseband output at a whole
    fs/alpha, from s = 0) repeats in the output from s + last on, where
    last is the largest path shift: each output sample there takes the same
    operations on the same bits as the sample P before it. Whenever one
    whole period fits there (s + last + P <= n), the paths are summed only
    up to s + last + P, and the output stores just those samples and states
    repeats = (s + last, P): samples_per_period P when s + last is 0, else
    None. Any other input is summed path by path into all n samples and
    states nothing. Either output, and the input's tiled copy that source
    reads, is refused first if it cannot fit in memory.
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

    block = block_length()
    last = max((shift for shift, _ in shifted_gains), default=0)
    summed, repeats = n, None
    if w.repeats is not None and w.repeats[0] + last + w.repeats[1] <= n:
        repeats = (w.repeats[0] + last, w.repeats[1])
        summed = sum(repeats)
    refuse_beyond_memory(16 * (summed + w.source_copy(block)),
                         f"channel output of {summed:.4g} samples")
    read = w.source(block)
    out = np.zeros(summed, dtype=np.complex128)
    scratch = np.empty(min(block, summed), dtype=np.complex128)
    for start in range(0, summed, block):
        stop = min(start + block, summed)
        for shift, gain in shifted_gains:
            lo = max(start, shift)
            if lo < stop:
                copy = scratch[: stop - lo]
                # gain first, as in gain * x: SIMD complex products can
                # differ in the last bit when the operands are swapped
                np.multiply(gain, read(lo - shift, stop - lo), out=copy)
                out[lo:stop] += copy
    if repeats is None:
        return SampledWaveform(out, w.sample_rate, w.samples_per_chip)
    return repeating(out, w.sample_rate, w.samples_per_chip, repeats, n)
