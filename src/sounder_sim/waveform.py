"""Sampled baseband waveforms, the one code sampler, and spectra.

Every code waveform is rectangular NRZ complex baseband (zero rise time, no
pulse shaping) from code_source. Spectra come from an averaged periodogram
with no window, so a whole-period FFT puts every spectral line exactly on a
bin and the sinc^2 envelope nulls collapse to numerical zero.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InsufficientLength,
    JitterTooLarge,
    approx,
    finite_real,
    freeze_arrays,
    read_only,
    refuse_beyond_memory,
    whole_count,
)
from .pn import ChipSequence

DB_FLOOR = -300.0  # power ratios are clipped here so log10 never sees zero
NULL_CLIP_DB = -120.0  # null depths are ranked on power clipped here

# power_spectrum's complex128 input and FFT output (16 B per sample each)
# and |X| (8 B), squared in place or, for 8 B more, not. Measured 41.6 B per
# sample at peak on an N=11 code at 100 and 200 samples per chip.
_SPECTRUM_BYTES_PER_SAMPLE = 48

# Streaming block length in samples, shared by the TX, channel and
# correlator stages, sized so that one block's working set stays in a core's
# L2 cache (2 MiB on the 2-core Xeon VM it was measured on). At 1 << 14 a
# channel path step touches 0.75 MiB (input slice, scratch, output) and a
# correlator block about 1 MiB (input, three product rows, code lookup
# temporaries). TX + channel + correlator CPU time on the paper-gamma inputs,
# min of 5, two sweeps: 0.42-0.45 s at 1 << 13, 0.39-0.41 s at 1 << 14,
# 0.42-0.45 s at 1 << 15, 0.50-0.52 s at 1 << 16 and 0.56 s at 1 << 18, where
# every block streamed from L3. Larger blocks cost memory too: a freed block
# raises glibc's mmap threshold and peak RSS with it.
BLOCK = 1 << 14


def block_length(multiple: int = 1) -> int:
    """Samples per streaming block: a whole number of multiple, near BLOCK."""
    return max(multiple, (BLOCK // multiple) * multiple)


def tile_forward(array: np.ndarray, start: int, period: int) -> None:
    """Repeat array[..., start:start + period] over the rest of array, in place.

    Each copy doubles the repeated span, which stays a whole number of
    periods, so every copy lands in phase: afterwards array[..., k] is
    array[..., k - period] for every k >= start + period. The last axis is
    tiled, every row of it alike.
    """
    filled, size = period, array.shape[-1] - start
    while filled < size:
        copied = min(filled, size - filled)
        array[..., start + filled : start + filled + copied] = array[
            ..., start : start + copied
        ]
        filled += copied


def code_copy(size: int, rate: float, sample_rate: float, span: int, total: int) -> int:
    """Samples in code_source's copy of a size-chip code table, 8 bytes each."""
    samples_per_chip = sample_rate / rate
    if samples_per_chip.is_integer():
        return min(total, span + size * min(int(samples_per_chip), span) - 1)
    # a call whose first chip sits at first % L <= L - 1 spans at most
    # span * chips_per_sample + 1 more chips, the float64 rounding of both
    # end products included while 2 * start + count < 2**53
    reach = size + int(span * (rate / sample_rate)) + 1
    return -(-reach // size) * size


def code_source(table: np.ndarray, rate: float, sample_rate: float, span: int, total: int):
    """code(start, count): the bipolar code at samples start..start+count-1.

    Sample n carries chip floor(n * rate / sample_rate) mod L, for count <= span
    and start + count <= total. At a whole m = sample_rate / rate that is chip
    (n // m) mod L, and code() slices one read-only tiled copy of the code
    with each chip run = min(m, span) samples long, min(total, span + L * run
    - 1) in all: at most 8 bytes per capture sample. A call spans at most two
    chips once m >= span, so a chip longer than run enters the copy run
    samples before its end. Otherwise n * (rate / sample_rate) is truncated
    in float64 (>= 0, so floor) to index a copy of the table repeated to
    cover one call. code_copy gives either copy's length.
    """
    copied = code_copy(table.size, rate, sample_rate, span, total)
    samples_per_chip = sample_rate / rate
    if samples_per_chip.is_integer():
        m = int(samples_per_chip)
        run = min(m, span)
        period = table.size * run
        tiled = np.empty(copied)
        head = min(period, tiled.size)
        tiled[:head] = table[np.arange(head) // run]
        tile_forward(tiled, 0, period)
        tiled.setflags(write=False)

        def code(start: int, count: int) -> np.ndarray:
            chip, into = divmod(start, m)
            # start % period when run == m; never past start, so within total
            offset = chip % table.size * run + max(0, into - (m - run))
            return tiled[offset : offset + count]

        return code

    chips_per_sample = rate / sample_rate
    repeated = np.tile(table, copied // table.size)

    def code(start: int, count: int) -> np.ndarray:
        n = np.arange(start, start + count, dtype=np.float64)
        n *= chips_per_sample
        idx = n.astype(np.int64)
        first = int(idx[0])
        idx -= first - first % table.size
        return repeated[idx]

    return code


def sample_code(table: np.ndarray, rate: float, sample_rate: float, count: int):
    """count samples of the code_source code, as complex baseband, block by block."""
    block = min(block_length(), count)
    code = code_source(table, rate, sample_rate, block, count)
    samples = np.zeros(count, dtype=np.complex128)
    for start in range(0, count, block):
        stop = min(start + block, count)
        samples.real[start:stop] = code(start, stop - start)
    return samples


def ratio_to_db(ratio: np.ndarray) -> np.ndarray:
    """10*log10 of a power ratio, clipped at DB_FLOOR."""
    return 10.0 * np.log10(np.maximum(ratio, 10.0 ** (DB_FLOOR / 10.0)))


@dataclass(frozen=True)
class SampledWaveform:
    """Complex baseband samples at a fixed rate.

    ``samples_per_chip`` (whole) frames waveforms built from a chip
    sequence; ``chip_rate`` derives from it. ``repeats``, the one period a
    waveform states, is None or (start, period): samples[k] holds the bits
    of samples[k - period] for every k >= start + period. Only repeating()
    sets it, for the code that makes the samples so: periodic_code (from 0)
    and apply_channel's tiled route (from the last path's arrival); the
    constructor cannot, and replace resets it. ``samples_per_period`` is
    the period of a repeat from sample 0, else None.

    A waveform that repeats stores only its first min(len, start + period)
    samples (``stored``); ``samples`` tiles them over the whole length on
    first use and keeps the result, and source() reads blocks without it.
    """

    samples: np.ndarray
    sample_rate: float
    samples_per_chip: int | None = None
    repeats: tuple[int, int] | None = field(default=None, init=False)

    def __post_init__(self):
        freeze_arrays(self, np.complex128, "samples")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ConfigError("samples must be a nonempty 1-D array")
        finite_real(self.sample_rate, "sample_rate", positive=True)
        if self.samples_per_chip is not None:
            whole_count(self.samples_per_chip, "samples_per_chip")
        object.__setattr__(self, "stored", self.samples)
        object.__setattr__(self, "_length", self.samples.size)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the samples of a
        # waveform that repeats, until they are first built here
        if name != "samples" or "stored" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        n = self._length
        refuse_beyond_memory(16 * n, f"waveform of {approx(n)} samples")
        vars(self)["samples"] = samples = self._tiled(n)
        return samples

    def _tiled(self, size: int) -> np.ndarray:
        """The first size samples, as a read-only array tiled from stored."""
        tiled = np.empty(size, dtype=np.complex128)
        tiled[: self.stored.size] = self.stored
        tile_forward(tiled, *self.repeats)
        return read_only(tiled)

    def __len__(self) -> int:
        return self._length

    @property
    def duration(self) -> float:
        return self._length / self.sample_rate

    @property
    def chip_rate(self) -> float | None:
        m = self.samples_per_chip
        return None if m is None else self.sample_rate / m

    @property
    def samples_per_period(self) -> int | None:
        r = self.repeats
        return r[1] if r is not None and r[0] == 0 else None

    def source_copy(self, span: int) -> int:
        """Samples in source(span)'s copy, 16 bytes each."""
        if self.repeats is None:
            return 0
        return min(self._length, sum(self.repeats) + span - 1)

    def source(self, span: int):
        """read(start, count): samples[start:start + count], for count <= span.

        A waveform that repeats (start s, period P) is read, as code_source
        reads a code, from one read-only tiled copy of its first
        min(len, s + P + span - 1) samples (source_copy): a read from s on
        starts at s + (start - s) % P. Any other waveform is read from its
        samples.
        """
        if self.repeats is None:
            samples = self.samples
            return lambda start, count: samples[start : start + count]
        first, period = self.repeats
        tiled = self._tiled(self.source_copy(span))

        def read(start: int, count: int) -> np.ndarray:
            if start > first:
                start = first + (start - first) % period
            return tiled[start : start + count]

        return read


def repeating(stored, sample_rate, samples_per_chip, repeats, length) -> SampledWaveform:
    """A waveform of length samples stating repeats, holding only the first
    min(length, start + period) of them, stored; the caller made them repeat so."""
    if length > sys.maxsize:
        raise ConfigError(f"waveform of {approx(length)} samples is too long to index")
    w = SampledWaveform(stored, sample_rate, samples_per_chip)
    del vars(w)["samples"]
    object.__setattr__(w, "repeats", repeats)
    object.__setattr__(w, "_length", length)
    return w


@dataclass(frozen=True)
class PowerSpectrum:
    """Two-sided spectrum: the unnormalized power of n bins, ascending in frequency.

    n and sample_rate fix the grid, sample_rate/n apart; ``freqs``, ``power_db``
    (dB relative to the peak) and ``resolution_bw`` derive from them, on first
    use. ``line_spacing_hz``, set for periodic inputs, drives null finding.
    """

    power_linear: np.ndarray
    sample_rate: float
    line_spacing_hz: float | None = None
    chip_rate: float | None = None

    def __post_init__(self):
        freeze_arrays(self, np.float64, "power_linear")
        if self.power_linear.ndim != 1 or self.power_linear.size == 0:
            raise ConfigError("power_linear must be a nonempty 1-D array")
        if float(self.power_linear.max()) <= 0:
            raise ConfigError("all-zero waveform has no spectrum peak")
        finite_real(self.sample_rate, "sample_rate", positive=True)

    @functools.cached_property
    def freqs(self) -> np.ndarray:
        n = self.power_linear.size
        return read_only(np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / self.sample_rate)))

    @functools.cached_property
    def power_db(self) -> np.ndarray:
        return read_only(ratio_to_db(self.power_linear / float(self.power_linear.max())))

    @property
    def resolution_bw(self) -> float:
        return self.sample_rate / self.power_linear.size


def periodic_code(
    table: np.ndarray, m: int, count: int, sample_rate: float
) -> SampledWaveform:
    """count samples of the code table at a whole m samples per chip.

    Sample n carries chip (n // m) mod L, so the samples repeat bit for bit
    every L * m samples from sample 0, as the result's repeats states; only
    the first period is sampled and stored.
    """
    period = table.size * m
    stored = sample_code(table, 1.0, m, min(count, period))
    return repeating(stored, sample_rate, m, (0, period), count)


def chips_to_waveform(
    seq: ChipSequence, samples_per_chip: int = 1, periods: int = 1
) -> SampledWaveform:
    """Rectangular-hold bipolar waveform: chip 0 -> +1, chip 1 -> -1.

    Each chip is held for samples_per_chip samples; the result is periods
    identical concatenated periods, sample_rate = samples_per_chip x chip_rate.
    """
    m = whole_count(samples_per_chip, "samples_per_chip")
    count = len(seq) * m * whole_count(periods, "periods")
    # the stored complex128 period and the sampler's tiled copy of it are
    # live together
    period = len(seq) * m
    refuse_beyond_memory(period * 24, f"waveform period of {approx(period)} samples")
    return periodic_code(seq.bipolar(), m, count, seq.chip_rate * m)


def power_spectrum(w: SampledWaveform, fft_size: int | None = None) -> PowerSpectrum:
    """Averaged periodogram, two-sided, normalized to 0 dB at the peak.

    The waveform is cut into consecutive non-overlapping fft_size blocks and
    the block periodograms |X[k]|^2 / fft_size^2 are averaged, so the total
    linear power equals the mean square of the covered samples (Parseval).
    """
    period = w.samples_per_period
    if fft_size is None:
        fft_size = period if period is not None else len(w)
    fft_size = whole_count(fft_size, "fft_size")
    if period is not None and fft_size < period:
        raise InsufficientLength(
            f"fft_size {fft_size} shorter than one period ({period} samples); "
            "spectral lines would not resolve"
        )
    if len(w) < fft_size:
        raise InsufficientLength(
            f"waveform has {len(w)} samples, need at least fft_size = {fft_size}"
        )

    refuse_beyond_memory(len(w) * _SPECTRUM_BYTES_PER_SAMPLE, f"spectrum of {len(w):.4g} samples")
    n_seg = len(w) // fft_size
    segments = w.samples[: n_seg * fft_size].reshape(n_seg, fft_size)
    scale = 1.0 / fft_size**2
    spectra = np.fft.fft(segments, axis=1)
    power = np.mean(np.abs(spectra) ** 2, axis=0) * scale

    return PowerSpectrum(
        power_linear=np.fft.fftshift(power),
        sample_rate=w.sample_rate,
        # one line per harmonic of the period repetition rate
        line_spacing_hz=None if period is None else w.sample_rate / period,
        chip_rate=w.chip_rate,
    )


def plateau_peaks(values: np.ndarray, cyclic: bool) -> list[int]:
    """Ascending center indices of local maxima; a plateau counts once.

    A plateau (a run of equal values) qualifies when the values on both sides
    of it are strictly lower. In a linear array a run touching either end has
    one side only and never qualifies. A cyclic array wraps, so its first and
    last runs are one run; a single sample is a peak and a constant array has
    none. Pass -values for minima.
    """
    v = np.asarray(values)
    n = v.size
    if cyclic and n == 1:
        return [0]
    starts = np.flatnonzero(v[1:] != v[:-1]) + 1
    if starts.size == 0:
        return []
    starts = np.concatenate(([0], starts))
    ends = np.append(starts[1:], n) - 1
    if cyclic and v[0] == v[-1]:
        # the first run continues the last one across the seam
        ends[-1] = ends[0] + n
        starts, ends = starts[1:], ends[1:]
    top = v[starts]
    peak = (v[(starts - 1) % n] < top) & (v[(ends + 1) % n] < top)
    if not cyclic:
        peak[[0, -1]] = False
    return np.sort((starts + ends)[peak] // 2 % n).tolist()


def find_spectral_nulls(ps: PowerSpectrum, count: int) -> list[float]:
    """Positive frequencies of the count deepest envelope minima, ascending.

    For a periodic input the envelope is the spectrum sampled on the line
    grid; the sinc^2 nulls show up as line positions whose power collapses.
    Power below NULL_CLIP_DB is clipped first so the depth ranking is not
    decided by numerical noise at the bottom of a null.
    """
    whole_count(count, "null count")
    if ps.chip_rate is not None:
        span = float(ps.freqs[-1])
        if span < count * ps.chip_rate:
            raise ConfigError(
                f"spectrum spans {span:g} Hz, cannot hold {count} nulls "
                f"of a {ps.chip_rate:g} Hz chip rate"
            )

    if ps.line_spacing_hz is not None:
        spacing = ps.line_spacing_hz
        k_lo = int(np.ceil(ps.freqs[0] / spacing))
        k_hi = int(np.floor(ps.freqs[-1] / spacing))
        grid = np.arange(k_lo, k_hi + 1) * spacing
        idx = np.clip(
            np.rint((grid - ps.freqs[0]) / ps.resolution_bw).astype(int),
            0,
            ps.freqs.size - 1,
        )
    else:
        idx = np.arange(ps.freqs.size)

    envelope = np.maximum(ps.power_db[idx], NULL_CLIP_DB)
    found = []
    for j in plateau_peaks(-envelope, cyclic=False):
        freq = float(ps.freqs[idx[j]])
        if freq > 0:
            found.append((float(envelope[j]), freq))
    found.sort(key=lambda t: (t[0], t[1]))
    chosen = sorted(freq for _, freq in found[:count])
    return chosen


def inject_jitter(
    w: SampledWaveform, rms_jitter: float, rng_seed: int
) -> SampledWaveform:
    """Displace chip edges by independent zero-mean Gaussian offsets.

    Offsets are quantized to the sample grid. Edges that would cross after
    jittering are collapsed in order (the squeezed chip loses samples), which
    keeps the output length exact. rms_jitter = 0 returns the input as-is;
    any other output states no period, since its chip edges move.
    """
    if finite_real(rms_jitter, "rms_jitter") < 0:
        raise ConfigError(f"rms_jitter must be finite and >= 0, got {rms_jitter!r}")
    whole_count(rng_seed, "rng_seed", 0)
    m = w.samples_per_chip
    if m is None:
        raise ConfigError("waveform carries no chip framing; cannot jitter edges")
    chip_period = 1.0 / w.chip_rate
    if rms_jitter >= 0.5 * chip_period:
        raise JitterTooLarge(
            f"rms_jitter {rms_jitter:g} s >= half a chip period ({0.5 * chip_period:g} s)"
        )
    if rms_jitter == 0:
        return w

    n = len(w)
    if n % m:
        raise ConfigError("waveform must hold a whole number of chips")
    total_chips = n // m
    # chip values read back off the clean grid (rectangular hold)
    chip_values = w.samples[::m]

    rng = np.random.default_rng(rng_seed)
    offsets = rng.normal(0.0, rms_jitter, size=total_chips - 1)
    shifts = np.rint(offsets * w.sample_rate).astype(np.int64)
    edges = np.arange(1, total_chips) * m + shifts
    edges = np.clip(edges, 0, n)
    edges = np.maximum.accumulate(edges)
    bounds = np.concatenate(([0], edges, [n]))
    lengths = np.diff(bounds)
    samples = np.repeat(chip_values, lengths)
    return SampledWaveform(samples=samples, sample_rate=w.sample_rate, samples_per_chip=m)
