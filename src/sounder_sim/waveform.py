"""Sampled baseband waveforms and their spectra.

Chip streams become rectangular NRZ complex-baseband waveforms (zero rise
time, no pulse shaping). Spectra come from an averaged periodogram with no
window, so a whole-period FFT puts every spectral line exactly on a bin and
the sinc^2 envelope nulls collapse to numerical zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientLength,
    JitterTooLarge,
    freeze_arrays,
    refuse_beyond_memory,
)
from .pn import ChipSequence

DB_FLOOR = -300.0  # power ratios are clipped here so log10 never sees zero

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


def ratio_to_db(ratio: np.ndarray) -> np.ndarray:
    """10*log10 of a power ratio, clipped at DB_FLOOR."""
    return 10.0 * np.log10(np.maximum(ratio, 10.0 ** (DB_FLOOR / 10.0)))


@dataclass(frozen=True)
class SampledWaveform:
    """Complex baseband samples at a fixed rate.

    ``chip_rate``/``chips_per_period`` are optional provenance for waveforms
    built from a chip sequence; spectral-null search and jitter injection
    need them, generic math does not.
    """

    samples: np.ndarray
    sample_rate: float
    chip_rate: float | None = None
    chips_per_period: int | None = None

    def __post_init__(self):
        freeze_arrays(self, np.complex128, "samples")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ConfigError("samples must be a nonempty 1-D array")
        if not self.sample_rate > 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def samples_per_chip(self) -> int | None:
        if self.chip_rate is None:
            return None
        m = self.sample_rate / self.chip_rate
        return int(round(m))

    @property
    def samples_per_period(self) -> int | None:
        m = self.samples_per_chip
        if m is None or self.chips_per_period is None:
            return None
        return m * self.chips_per_period

    def power(self) -> float:
        """Mean square magnitude."""
        magnitude = np.abs(self.samples)
        return float(np.mean(np.square(magnitude, out=magnitude)))


@dataclass(frozen=True)
class PowerSpectrum:
    """Two-sided spectrum, dB relative to the peak bin.

    ``power_linear`` keeps the unnormalized periodogram so energy bookkeeping
    stays exact; ``line_spacing_hz`` is set for periodic inputs (reciprocal of
    the period) and drives null finding.
    """

    freqs: np.ndarray
    power_db: np.ndarray
    resolution_bw: float
    power_linear: np.ndarray | None = None
    line_spacing_hz: float | None = None
    chip_rate: float | None = None

    def __post_init__(self):
        freeze_arrays(self, np.float64, "freqs", "power_db", "power_linear")
        if self.freqs.shape != self.power_db.shape or self.freqs.ndim != 1:
            raise ConfigError("freqs and power_db must be matching 1-D arrays")
        if self.freqs.size > 1 and not np.all(np.diff(self.freqs) > 0):
            raise ConfigError("freqs must be strictly increasing")


def chips_to_waveform(
    seq: ChipSequence, samples_per_chip: int = 1, periods: int = 1
) -> SampledWaveform:
    """Rectangular-hold bipolar waveform: chip 0 -> +1, chip 1 -> -1.

    Each chip is held for samples_per_chip samples; the result is periods
    identical concatenated periods, sample_rate = samples_per_chip x chip_rate.
    """
    if int(samples_per_chip) != samples_per_chip or samples_per_chip < 1:
        raise ConfigError(f"samples_per_chip must be an integer >= 1, got {samples_per_chip}")
    if int(periods) != periods or periods < 1:
        raise ConfigError(f"periods must be an integer >= 1, got {periods}")
    m = int(samples_per_chip)
    count = len(seq) * m * int(periods)
    # the tiled float64 copy and its complex128 cast are live together
    refuse_beyond_memory(count * 24, f"waveform of {count:.4g} samples")
    one = np.repeat(seq.bipolar(), m)
    samples = np.tile(one, int(periods)).astype(np.complex128)
    return SampledWaveform(
        samples=samples,
        sample_rate=seq.chip_rate * m,
        chip_rate=seq.chip_rate,
        chips_per_period=len(seq),
    )


def power_spectrum(w: SampledWaveform, fft_size: int | None = None) -> PowerSpectrum:
    """Averaged periodogram, two-sided, normalized to 0 dB at the peak.

    The waveform is cut into consecutive non-overlapping fft_size blocks and
    the block periodograms |X[k]|^2 / fft_size^2 are averaged, so the total
    linear power equals the mean square of the covered samples (Parseval).
    """
    period = w.samples_per_period
    if fft_size is None:
        fft_size = period if period is not None else len(w)
    fft_size = int(fft_size)
    if fft_size < 1:
        raise ConfigError("fft_size must be >= 1")
    if period is not None and fft_size < period:
        raise InsufficientLength(
            f"fft_size {fft_size} shorter than one period ({period} samples); "
            "spectral lines would not resolve"
        )
    if len(w) < fft_size:
        raise InsufficientLength(
            f"waveform has {len(w)} samples, need at least fft_size = {fft_size}"
        )

    n_seg = len(w) // fft_size
    segments = w.samples[: n_seg * fft_size].reshape(n_seg, fft_size)
    scale = 1.0 / fft_size**2
    spectra = np.fft.fft(segments, axis=1)
    power = np.mean(np.abs(spectra) ** 2, axis=0) * scale

    power = np.fft.fftshift(power)
    freqs = np.fft.fftshift(np.fft.fftfreq(fft_size, d=1.0 / w.sample_rate))
    peak = float(power.max())
    if peak <= 0:
        raise ConfigError("all-zero waveform has no spectrum peak")
    power_db = ratio_to_db(power / peak)

    line_spacing = None
    if period is not None:
        # one line per harmonic of the period repetition rate
        line_spacing = w.sample_rate / period
    return PowerSpectrum(
        freqs=freqs,
        power_db=power_db,
        resolution_bw=w.sample_rate / fft_size,
        power_linear=power,
        line_spacing_hz=line_spacing,
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


def find_spectral_nulls(
    ps: PowerSpectrum, count: int, clip_db: float = -120.0
) -> list[float]:
    """Positive frequencies of the count deepest envelope minima, ascending.

    For a periodic input the envelope is the spectrum sampled on the line
    grid; the sinc^2 nulls show up as line positions whose power collapses.
    Power below clip_db is clipped first so the depth ranking is not decided
    by numerical noise at the bottom of a null.
    """
    if count < 0:
        raise ConfigError("count must be >= 0")
    if ps.chip_rate is not None and count > 0:
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

    envelope = np.maximum(ps.power_db[idx], clip_db)
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
    keeps the output length exact. rms_jitter = 0 returns the input as-is.
    """
    if rms_jitter < 0:
        raise ConfigError("rms_jitter must be >= 0")
    if w.chip_rate is None:
        raise ConfigError("waveform carries no chip framing; cannot jitter edges")
    chip_period = 1.0 / w.chip_rate
    if rms_jitter >= 0.5 * chip_period:
        raise JitterTooLarge(
            f"rms_jitter {rms_jitter:g} s >= half a chip period ({0.5 * chip_period:g} s)"
        )
    if rms_jitter == 0:
        return w

    m = w.samples_per_chip
    if m is None or m < 1 or w.sample_rate != w.chip_rate * m:
        raise ConfigError("sample_rate must be an integer multiple of chip_rate")
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
    return SampledWaveform(
        samples=samples,
        sample_rate=w.sample_rate,
        chip_rate=w.chip_rate,
        chips_per_period=w.chips_per_period,
    )
