"""Dual-mode sounding baseband: TX code generation and the sliding correlator.

TX mode emits the spread-spectrum sounding waveform at chip rate alpha. RX
mode runs the received complex baseband against a local replica of the same
code clocked slightly slower at beta, through a pair of mixers and one-pole
low-pass filters, producing slow-time I/Q correlation traces plus a Sync
trace (local TX code times RX code) that marks the zero-delay reference.
The filter and the integrate-and-dump that follows it are evaluated in
closed form per decimation window: beyond the mixer products, the correlator
forms two weighted sums of each window's products, with no per-sample
filter pass. The filter state then steps once per window, in lanes of
windows that numpy steps side by side. Each lane's state is checked, as a
bit pattern, against its predecessor's exact state, and a lane that fails
is stepped again in Python floats, so every state has the bits of the
direct-form filter (lfilter); numpy is the only library the package needs.

The relative code slip sweeps one full code period every dilated_period
L*gamma/alpha seconds, with gamma = alpha/(alpha - beta); a true propagation
delay tau therefore appears gamma*tau after the sync peak in slow time. Each
code is generated by sample-indexed chip lookup (waveform.code_source):
sample n of a code clocked at rate carries chip floor(n * (rate/fs)) mod L,
exactly n // m at a whole m samples per chip, else with the product
evaluated in float64, so the slip is exact and no resampling error enters.

At a whole gamma and a whole m = fs/alpha, with no RX clock error, both
codes realign every Pd = L*gamma*m samples, and the RX code at sample n is
defined as the code at n mod Pd, as the hardware's counters wrap: float
truncation alone does not promise that trunc(n * fl(beta/fs)) repeats.
Against a static channel every mixer product then repeats every lcm(Pd, P)
samples from where the received signal's period P starts, so the correlator
multiplies one repeat of whole windows and copies their sums over the rest
of the capture (slow-time tiling, see sliding_correlate).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CaptureTooShort,
    ConfigError,
    InvalidRates,
    NoSyncPeak,
    SampleRateMismatch,
    approx,
    finite_real,
    freeze_arrays,
    read_only,
    refuse_beyond_memory,
    whole_count,
)
from .channel import ChannelModel
from .pn import ChipSequence, PnConfig, generate_period
from .waveform import (
    SampledWaveform,
    block_length,
    code_copy,
    code_source,
    periodic_code,
    ratio_to_db,
    sample_code,
    tile_forward,
)

# An unframed TX (fractional fs/alpha) is sampled whole, so its TX and
# received complex128 arrays are live together, 32 bytes per sample; the
# code copies beside them are small (code_copy). A framed TX stores one
# period, and so does every stage after it (waveform.repeating): the route
# is charged its stored samples and source's tiled copy of them instead.
_CAPTURE_BYTES_PER_SAMPLE = 32
# The correlator's arrays per window, live while the carry term joins the
# means: six window sums (48 B), four noise normals (32 B), the recursion's
# 3 states (24 B) and the carry term (24 B). _one_pole's lanes add a few
# states per lane, not per window. At decimation 1 (N=9, gamma 10, 20 dB)
# each added window raised the tracemalloc peak by 128 B and the peak RSS
# by 136 B.
_WINDOW_BYTES = 144


class Mode(enum.Enum):
    TX = "tx"
    RX = "rx"


def sliding_factor(alpha: float, beta: float) -> float:
    """gamma = alpha / (alpha - beta), the slow-time dilation ratio."""
    alpha = finite_real(alpha, "alpha", positive=True, error=InvalidRates)
    beta = finite_real(beta, "beta", positive=True, error=InvalidRates)
    if not beta < alpha:
        raise InvalidRates(
            f"need finite 0 < beta < alpha, got alpha={alpha!r}, beta={beta!r}"
        )
    return alpha / (alpha - beta)


@dataclass(frozen=True)
class SounderConfig:
    """Rates and filter settings for one sounding run.

    The single pn config drives both code generators (they sit on one device
    and share the code programming). beta_ppm_error models residual RX clock
    offset from an imperfect frequency reference; the derived gamma and all
    delay mapping use the nominal beta, so a nonzero error skews the measured
    axis exactly as it would on the bench. It must leave the RX chip rate
    beta_effective in (0, alpha). An unset sample_rate defaults to
    2*alpha, lpf_cutoff to 2*(alpha - beta), capture to 5.25 dilated periods.
    """

    pn: PnConfig
    alpha: float
    beta: float
    sample_rate: float | None = None
    lpf_cutoff: float | None = None
    capture: float | None = None
    mode: Mode = Mode.RX
    beta_ppm_error: float = 0.0

    def __post_init__(self):
        sliding_factor(self.alpha, self.beta)
        finite_real(self.beta_ppm_error, "beta_ppm_error")
        if not 0.0 < self.beta_effective < self.alpha:
            raise InvalidRates(
                f"beta_ppm_error {self.beta_ppm_error:g} puts the RX chip rate at"
                f" {self.beta_effective!r} Hz, outside (0, alpha = {self.alpha!r} Hz)"
            )
        if self.sample_rate is None:
            object.__setattr__(self, "sample_rate", 2.0 * self.alpha)
        finite_real(self.sample_rate, "sample_rate", error=InvalidRates)
        if self.sample_rate < 2 * self.alpha:
            raise InvalidRates(
                f"sample_rate {self.sample_rate:g} below Nyquist for alpha={self.alpha:g}"
            )
        if self.lpf_cutoff is None:
            object.__setattr__(self, "lpf_cutoff", 2.0 * (self.alpha - self.beta))
        finite_real(self.lpf_cutoff, "lpf_cutoff", error=InvalidRates)
        if not self.lpf_cutoff > (self.alpha - self.beta):
            raise ConfigError(
                f"lpf_cutoff {self.lpf_cutoff:g} must exceed alpha-beta ="
                f" {self.alpha - self.beta:g} or the correlation envelope is lost"
            )
        # the sync search, the fold and the slow-time tiling count it
        if not math.isfinite(self.dilated_period * self.sample_rate):
            raise ConfigError(
                f"one dilated period ({self.dilated_period:g} s) at sample_rate"
                f" {self.sample_rate:g} holds more samples than float64 can count"
            )
        if self.capture is None:
            object.__setattr__(self, "capture", 5.25 * self.dilated_period)
        finite_real(self.capture, "capture", positive=True)

    @property
    def gamma(self) -> float:
        return sliding_factor(self.alpha, self.beta)

    @property
    def beta_effective(self) -> float:
        return self.beta * (1.0 + self.beta_ppm_error * 1e-6)

    @property
    def dilated_period(self) -> float:
        """Slow-time spacing of code realignments, L*gamma/alpha seconds."""
        return self.pn.length * self.gamma / self.alpha

    @property
    def decimation(self) -> int:
        return max(1, int(self.sample_rate // (8.0 * self.lpf_cutoff)))

    @property
    def slow_rate(self) -> float:
        return self.sample_rate / self.decimation


@dataclass(frozen=True)
class PdpTrace:
    """Slow-time correlator outputs, decimated to config.slow_rate."""

    i_out: np.ndarray
    q_out: np.ndarray
    sync: np.ndarray
    config: SounderConfig

    def __post_init__(self):
        freeze_arrays(self, np.float64, "i_out", "q_out", "sync")
        if not (self.i_out.shape == self.q_out.shape == self.sync.shape):
            raise ConfigError("i_out, q_out, sync must have equal length")
        for name in ("i_out", "q_out", "sync"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(
                    f"slow-time {name} holds a non-finite value; the received"
                    " signal overflows or is not finite"
                )

    def __len__(self) -> int:
        return int(self.sync.size)

    def times(self) -> np.ndarray:
        return np.arange(self.sync.size) / self.config.slow_rate


@dataclass(frozen=True)
class PdpProfile:
    """Power-delay profile on the code's delay grid.

    power_linear holds one power per delay bin, normalised to the 0 dB peak;
    averaged_over counts the dilated periods folded into it. The grid is the
    code period cut into bins_per_chip bins per chip of rate alpha, so bin k
    sits at absolute delay k/(alpha*bins_per_chip) seconds and one chip is
    bins_per_chip bins. delays and power_db (10*log10 of power_linear,
    clipped at DB_FLOOR) derive from those fields, each computed on first use.
    """

    power_linear: np.ndarray
    alpha: float
    bins_per_chip: int
    averaged_over: int

    def __post_init__(self):
        freeze_arrays(self, np.float64, "power_linear")
        if np.ndim(self.power_linear) != 1:
            raise ConfigError("a profile needs 1-D power")
        finite_real(self.alpha, "alpha", positive=True)
        whole_count(self.bins_per_chip, "bins_per_chip")
        whole_count(self.averaged_over, "averaged_over")

    @functools.cached_property
    def delays(self) -> np.ndarray:
        """Absolute delay of each bin in seconds."""
        bins = np.arange(self.power_linear.size)
        return read_only(bins / (self.alpha * self.bins_per_chip))

    @functools.cached_property
    def power_db(self) -> np.ndarray:
        """Power of each bin in dB relative to the peak."""
        return read_only(ratio_to_db(self.power_linear))

    @property
    def code_length(self) -> int:
        return int(self.power_linear.size // self.bins_per_chip)


@functools.lru_cache(maxsize=32)
def _bipolar_table(pn: PnConfig) -> np.ndarray:
    return read_only(generate_period(pn).bipolar())


def _window_weights(omega: float, dec: int):
    """The one-pole low-pass and integrate-and-dump of dec samples, per window.

    The filter y[n] = p*y[n-1] + (1 - p)*x[n], p = exp(-omega), entered with
    state s (the output before the window) and fed x[0..dec-1], has
    window mean    c*s + sum_k A[k]*x[k],  A[k] = (1 - p**(dec-k)) / dec,
    final output   P*s + sum_k B[k]*x[k],  B[k] = (1 - p) * p**(dec-1-k),
    with c = p*(1 - p**dec) / ((1 - p)*dec) and P = p**dec. Returns the rows
    [A, B], c and P, each 1 - p**m formed by expm1 to keep its low digits.
    """
    remaining = np.arange(dec, 0, -1, dtype=np.float64)  # dec - k
    weights = np.empty((2, dec))
    weights[0] = -np.expm1(-omega * remaining) / dec
    weights[1] = -math.expm1(-omega) * np.exp(-omega * (remaining - 1.0))
    carry = math.exp(-omega) * math.expm1(-omega * dec) / (math.expm1(-omega) * dec)
    return weights, carry, math.exp(-omega * dec)


def _window_noise_factor(weights: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of W Wᵀ, W the rows [A, B] of _window_weights.

    White noise of unit variance gives each window's two sums covariance
    W Wᵀ, so L times two independent standard normals has their law. At
    decimation 1 the rows are equal and W Wᵀ is singular; the second pivot
    is clamped at 0.
    """
    cov = np.einsum("ik,jk->ij", weights, weights)
    first = math.sqrt(cov[0, 0])
    below = cov[1, 0] / first
    return np.array([[first, 0.0],
                     [below, math.sqrt(max(cov[1, 1] - below * below, 0.0))]])


def _dilated_samples(cfg: SounderConfig) -> int | None:
    """Pd = L*gamma*m, when both codes realign every Pd samples; else None.

    That needs a whole gamma, a whole m = fs/alpha and no RX clock error:
    the TX code then repeats every L*m samples, and Pd samples hold
    L*(gamma - 1) whole RX chips. The correlator reads the RX code at sample
    n mod Pd (_wrapped), so it repeats every Pd samples bit for bit.
    """
    gamma, m = cfg.gamma, cfg.sample_rate / cfg.alpha
    if cfg.beta_ppm_error != 0 or not gamma.is_integer() or not m.is_integer():
        return None
    return cfg.pn.length * int(gamma) * int(m)


def _wrapped(code, period: int):
    """code(start, count) read at sample n mod period, for any start.

    A call that crosses a multiple of period joins the pieces on each side,
    so code itself is only asked for samples below period.
    """

    def wrapped(start: int, count: int) -> np.ndarray:
        start %= period
        if start + count <= period:
            return code(start, count)
        pieces = []
        while count:
            take = min(count, period - start)
            pieces.append(code(start, take))
            start, count = 0, count - take
        return np.concatenate(pieces)

    return wrapped


def _window_repeat(
    received: SampledWaveform, dilated: int | None, dec: int, windows: int
) -> tuple[int, int] | None:
    """(first, period) in windows, when the window sums repeat and some remain.

    When both codes repeat every dilated samples (_dilated_samples) and the
    received signal repeats every P samples from sample s, every product
    from s on repeats every lcm(dilated, P) samples, so every window sum
    from first = ceil(s/dec) on repeats every lcm(dilated, P, dec)/dec
    windows. None when either repeat is missing, or when the capture ends
    before first + period windows, so there is nothing to copy.
    """
    if dilated is None or received.repeats is None:
        return None
    start, period = received.repeats
    first, period = -(-start // dec), math.lcm(dilated, period, dec) // dec
    return (first, period) if first + period < windows else None


def _lane_length(pole: float) -> int:
    """Windows per lane: enough that pole**W <= 2**-64, so a state started
    W windows early from 0 has, in all but rare rows, forgotten the state it
    missed to below half an ulp of its own. Only a guess; _one_pole checks.
    0 at a pole of 1 or more, whose states never forget."""
    if not pole < 1.0:
        return 0
    if pole <= 0.0:
        return 1
    return max(1, math.ceil(64.0 / -math.log2(pole)))


def _float_walk(xs: np.ndarray, pole: float, y: float) -> list:
    """The states after each of xs, stepped in Python floats from state y."""
    ys = []
    for x in xs.tolist():
        y = x + pole * y
        ys.append(y)
    return ys


def _one_pole(rows: np.ndarray, pole: float) -> np.ndarray:
    """y[w] = rows[w] + pole*y[w-1] along each row from y[-1] = 0.

    Each step is x + pole*y: one rounded product, then one rounded sum, so
    for finite input the bits are lfilter([1], [1, -pole])'s. Each row is cut
    into lanes of W = _lane_length(pole) windows, and every lane of every
    row steps together, two in-place ufuncs per window: the same two
    roundings in numpy. Lane j > 0 starts from state 0 at the start of lane
    j - 1 and warms up over its W windows; once its state at the last of
    them has the bits (a uint64 view, so that -0.0 and 0.0 differ) of lane
    j - 1's exact state there, every later step of lane j is exact too.
    Lane 0 starts at window 0 from 0, so it is exact. A lane whose check
    fails is stepped again in Python floats from its predecessor's exact
    state, as are the windows after the last whole lane, a row shorter
    than two lanes and every row at a pole of 1 or more.
    """
    n_rows, length = rows.shape
    out = np.empty((n_rows, length))  # C order: y below is a view of it
    width = _lane_length(pole)
    lanes = length // width if width else 0
    if lanes < 2:
        for dest, row in zip(out, rows):
            dest[:] = _float_walk(row, pole, 0.0)
        return out
    whole = lanes * width
    x = rows[:, :whole].reshape(n_rows, lanes, width)
    y = out[:, :whole].reshape(n_rows, lanes, width)
    # warm[:, j]: lane j + 1's state stepped from 0 over lane j's windows
    warm = np.zeros((n_rows, lanes - 1))
    for k in range(width):
        np.multiply(warm, pole, out=warm)
        np.add(x[:, :-1, k], warm, out=warm)
    state = np.zeros((n_rows, lanes))
    state[:, 1:] = warm
    step = state
    for k in range(width):
        np.multiply(step, pole, out=state)
        np.add(x[:, :, k], state, out=y[:, :, k])
        step = y[:, :, k]
    # lane j + 1 is exact when warm[:, j] has the bits of lane j's exact end
    warm, ends = warm.view(np.uint64), y[:, :, -1].view(np.uint64)
    unsettled = warm != ends[:, :-1]
    for row in range(n_rows):
        exact = 1  # the lanes below this one hold exact states
        for lane in (np.flatnonzero(unsettled[row]) + 1).tolist():
            if lane < exact:
                continue
            # a repaired lane's end may unsettle the lane after it
            while True:
                y[row, lane] = _float_walk(x[row, lane], pole, float(y[row, lane - 1, -1]))
                lane += 1
                if lane == lanes or warm[row, lane - 1] == ends[row, lane - 1]:
                    break
            exact = lane + 1
        out[row, whole:] = _float_walk(rows[row, whole:], pole, float(y[row, -1, -1]))
    return out


def _refuse_capture(samples: float, nbytes: float, dec: int) -> None:
    """Refuse a capture of samples if nbytes, beside the correlator's
    windows of dec samples over it, cannot fit."""
    nbytes += samples / dec * _WINDOW_BYTES
    refuse_beyond_memory(nbytes, f"capture of {approx(samples)} samples")


def tx_baseband(cfg: SounderConfig) -> SampledWaveform:
    """The sounding waveform: capture seconds of the bipolar code at rate alpha.

    Chip k spans [k/alpha, (k+1)/alpha); sample n takes the chip at t = n/fs,
    so chip boundaries sit on the exact time grid for any fs >= 2*alpha. Only
    at a whole m = fs/alpha is the waveform framed in chips, and then it
    states repeats = (0, L*m) and stores that one period (periodic_code).
    A capture is refused first if its samples, or at a whole m its stored
    period, or the correlator's windows over it, cannot fit in memory.
    """
    if cfg.mode is not Mode.TX:
        raise ConfigError("tx_baseband needs a config with mode=TX")
    samples = cfg.capture * cfg.sample_rate
    m = cfg.sample_rate / cfg.alpha
    if m.is_integer():
        # the stored period and apply_channel's tiled copy of it
        period = min(samples, cfg.pn.length * m)
        nbytes = 16 * (2 * period + block_length())
    else:
        nbytes = samples * _CAPTURE_BYTES_PER_SAMPLE
    _refuse_capture(samples, nbytes, cfg.decimation)
    count = int(round(samples))
    if count < 1:
        raise ConfigError("capture too short for even one sample")
    table = _bipolar_table(cfg.pn)
    if m.is_integer():
        return periodic_code(table, int(m), count, cfg.sample_rate)
    return SampledWaveform(sample_code(table, cfg.alpha, cfg.sample_rate, count), cfg.sample_rate)


def sliding_correlate(
    received: SampledWaveform,
    cfg: SounderConfig,
    channel: ChannelModel | None = None,
) -> PdpTrace:
    """Stream the received samples through the sliding correlator.

    Per sample n at t = n/fs: mix Re/Im of the input and the clean local TX
    replica s(t) with the slower RX code r(t), low-pass each product with a
    one-pole IIR at lpf_cutoff, then integrate-and-dump: each run of
    decimation consecutive filter outputs averages into one slow sample.
    The averaging is the anti-alias guard the one-pole filter alone cannot
    provide; plain subsampling would fold the filter's high-frequency tail
    back into the slow band. A trailing partial window is dropped. Every
    block is read through received.source, so an input that repeats is
    never built whole. An input whose windows' arrays, code copies and
    source copy cannot fit in memory beside what it stores is refused first.

    The filtered samples themselves are never formed: each window's mean
    and final filter output are weighted sums of its products plus a
    multiple of the state before it (_window_weights), so the products meet
    the weights in one einsum per block and the filter recurrence runs at
    the slow rate, once over all windows (_one_pole): numpy steps lanes of
    windows side by side, each lane started early from state 0; a lane
    whose warm-up state differs, as a bit pattern, from its predecessor's
    exact state is stepped again in Python floats from that state, so every
    state has lfilter's bits. einsum sums each window in one
    order whatever else the block holds; a BLAS product may change its
    summation with the number of rows and so with the block size. Blocks
    are cut at window boundaries, so block size cannot change results.

    A noisy channel's noise, complex white Gaussian with σ =
    channel.noise_std() per component, is added at the window rate: mixing
    with a ±1 code, the filter and the dump are linear, so each window's A-
    and B-sums of the noise on one arm are jointly Gaussian with covariance
    σ² W Wᵀ (_window_noise_factor), independent across windows and arms.
    After the block loop one default_rng(channel.rng_seed) call draws 2
    normals per window per arm, in window order, so block size cannot
    change them. The sync row, the local TX code times the RX code, carries
    no noise; the channel's paths are apply_channel's.

    Slow-time tiling. When _dilated_samples gives Pd (a whole gamma and
    fs/alpha, no RX clock error), the RX code at sample n is the code at
    n mod Pd, on every route. If the received signal also states that it
    repeats (received.repeats = (s, P)), every product from sample s on
    repeats every lcm(Pd, P) samples, so the window sums repeat every
    D = lcm(Pd, P, dec)/dec windows from window ceil(s/dec) on. The block
    loop then stops after window ceil(s/dec) + D, and tile_forward copies
    those D windows' sums over the rest: einsum summed each window in one
    order, so the copies carry the same bits. The noise, the filter
    recurrence and the sync row run after the loop, on every window, as
    before. Otherwise (an RX clock error, a fractional gamma or fs/alpha,
    an input that states no repeat, or a capture shorter than the head
    plus one repeat) the loop multiplies every whole window.
    """
    if cfg.mode is not Mode.RX:
        raise ConfigError("sliding_correlate needs a config with mode=RX")
    if received.sample_rate != cfg.sample_rate:
        raise SampleRateMismatch(
            f"received at {received.sample_rate:g} Hz, config says {cfg.sample_rate:g} Hz"
        )
    n_total = len(received)
    if n_total / cfg.sample_rate < cfg.dilated_period:
        raise CaptureTooShort(
            f"{n_total / cfg.sample_rate:g} s of input covers less than one "
            f"dilated period ({cfg.dilated_period:g} s)"
        )

    noise_std = None if channel is None else channel.noise_std()

    fs = cfg.sample_rate
    dec = cfg.decimation
    weights, carry, pole_d = _window_weights(2.0 * math.pi * cfg.lpf_cutoff / fs, dec)
    windows = n_total // dec
    dilated = _dilated_samples(cfg)
    repeat = _window_repeat(received, dilated, dec, windows)
    multiplied = dec * (windows if repeat is None else sum(repeat))
    block = min(block_length(dec), multiplied)
    table = _bipolar_table(cfg.pn)
    # the received samples held, source's copy of them, and both codes' copies
    held = received.stored.size + received.source_copy(block)
    codes = sum(code_copy(table.size, rate, fs, block, multiplied)
                for rate in (cfg.alpha, cfg.beta_effective))
    _refuse_capture(n_total, 16 * held + 8 * codes, dec)
    read = received.source(block)
    rx_code = code_source(table, cfg.beta_effective, fs, block, multiplied)
    if dilated is not None:
        rx_code = _wrapped(rx_code, dilated)
    tx_code = code_source(table, cfg.alpha, fs, block, multiplied)

    # rows: I product, Q product, sync product (local TX code times RX code);
    # the RX code is staged in the sync row so no fourth block is live. The
    # buffer is flat so that every block's rows, the last one's too, are
    # contiguous and reshape into windows without a copy.
    products = np.empty(3 * block)
    sums = np.empty((2, 3, windows))  # per window: sum A_k x_k, then sum B_k x_k
    for start in range(0, multiplied, block):
        count = min(block, multiplied - start)
        x = read(start, count)
        rows = products[: 3 * count].reshape(3, count)
        rows[2] = rx_code(start, count)
        np.multiply(x.real, rows[2], out=rows[0])
        np.multiply(x.imag, rows[2], out=rows[1])
        rows[2] *= tx_code(start, count)
        first = start // dec
        sums[:, :, first : first + count // dec] = np.einsum(
            "wk,jk->jw", rows.reshape(-1, dec), weights
        ).reshape(2, 3, -1)
    if repeat is not None:
        tile_forward(sums, *repeat)
    if noise_std is not None:
        normals = np.random.default_rng(channel.rng_seed).standard_normal((2, 2, windows))
        factor = noise_std * _window_noise_factor(weights)
        sums[0, :2] += factor[0, 0] * normals[0]
        sums[1, :2] += factor[1, 0] * normals[0] + factor[1, 1] * normals[1]
    means, ends = sums
    # filter output at the end of each window: s[w] = P*s[w-1] + ends[w]
    states = _one_pole(ends, pole_d)
    means[:, 1:] += carry * states[:, :-1]  # the state before window 0 is zero
    i_out, q_out, sync = means

    return PdpTrace(i_out=i_out, q_out=q_out, sync=sync, config=cfg)


def find_sync_peaks(trace: PdpTrace) -> list[int]:
    """Slow-time indices of sync-channel peaks, one per dilated period.

    Rule: within each dilated-period window the sync maximum counts as a peak
    only if its power is at least 6 dB above the whole-trace median power.
    Windows are walked outward from the global maximum in exact
    dilated-period steps, searching +-1/8 period around each predicted spot.
    """
    sync = trace.sync
    n = sync.size
    period = trace.config.dilated_period * trace.config.slow_rate
    if n < 1:
        raise NoSyncPeak("empty sync trace")
    median_power = float(np.median(sync**2))
    threshold = 4.0 * median_power  # 6 dB in power

    # the filters start from zero state, so an alignment right at the trace
    # head produces a distorted, late-peaking lobe; ignore that region
    warmup = period / 8.0

    anchor = int(np.argmax(sync))
    if sync[anchor] <= 0 or sync[anchor] ** 2 < threshold:
        raise NoSyncPeak(
            "sync trace has no maximum 6 dB above its median; "
            "check the clock rates and filter cutoff, or extend the capture"
        )

    half_win = max(1, int(round(period / 8.0)))
    peaks = [anchor] if anchor >= warmup else []
    for direction in (-1, 1):
        k = 1
        while True:
            center = anchor + direction * k * period
            lo = int(round(center)) - half_win
            hi = int(round(center)) + half_win + 1
            if hi <= 0 or lo >= n:
                break
            lo_c, hi_c = max(lo, 0), min(hi, n)
            j = lo_c + int(np.argmax(sync[lo_c:hi_c]))
            if j >= warmup and sync[j] > 0 and sync[j] ** 2 >= threshold:
                peaks.append(j)
            k += 1
    if not peaks:
        raise NoSyncPeak("no sync peak clear of the filter warm-up region")
    return sorted(peaks)


def profile_bins(code_length: int, periods: int, bins_per_chip: int) -> int:
    """Bins of a profile folding periods segments; refuses one that cannot fit."""
    whole_count(periods, "periods_to_average")
    n_bins = code_length * whole_count(bins_per_chip, "bins_per_chip")
    # float64 per bin: the running sum of segment powers, plus about eight
    # working arrays for the segment being folded
    refuse_beyond_memory(n_bins * 8 * 9, f"profile of {n_bins:.4g} bins")
    return n_bins


def extract_pdp(
    trace: PdpTrace,
    periods_to_average: int = 4,
    bins_per_chip: int = 1,
) -> PdpProfile:
    """Fold the slow-time trace into an absolute power-delay profile.

    Each complete dilated period after a sync peak becomes one segment; slow
    time maps to delay as tau = (t_slow - t_sync)/gamma, binned to
    bins_per_chip bins per chip. Within a segment, I and Q average coherently
    per bin (the channel is static over a segment) before the power I^2+Q^2
    is formed; the per-segment powers then average into the profile in slow
    time order.
    """
    cfg = trace.config
    n_bins = profile_bins(cfg.pn.length, periods_to_average, bins_per_chip)
    n = len(trace)
    period = cfg.dilated_period * cfg.slow_rate
    seg_len = int(math.floor(period + 1e-9))
    if n < seg_len:
        raise CaptureTooShort(
            f"trace holds {n} slow samples, one dilated period needs {seg_len}"
        )

    peaks = find_sync_peaks(trace)
    usable = [p for p in peaks if p + seg_len <= n]
    if len(usable) < periods_to_average:
        raise CaptureTooShort(
            f"only {len(usable)} complete dilated periods in the trace, "
            f"need {periods_to_average}; extend capture"
        )
    usable = usable[:periods_to_average]

    # delay-bin index for each in-segment sample; identical for all segments.
    # The +0.5 centers bins on whole-chip delays so an on-grid path apex sits
    # mid-bin instead of on a bin edge.
    scale = cfg.alpha * bins_per_chip / (cfg.gamma * cfg.slow_rate)
    bins = np.floor(np.arange(seg_len) * scale + 0.5).astype(np.int64) % n_bins
    counts = np.bincount(bins, minlength=n_bins).astype(np.float64)
    filled = counts > 0

    linear = np.zeros(n_bins)
    with np.errstate(over="ignore"):  # a power past float64 is refused below
        for start in usable:
            sum_i = np.bincount(
                bins, weights=trace.i_out[start : start + seg_len], minlength=n_bins
            )
            sum_q = np.bincount(
                bins, weights=trace.q_out[start : start + seg_len], minlength=n_bins
            )
            mean_i = np.divide(sum_i, counts, out=np.zeros(n_bins), where=filled)
            mean_q = np.divide(sum_q, counts, out=np.zeros(n_bins), where=filled)
            linear += mean_i**2 + mean_q**2
    linear /= len(usable)
    peak = float(linear.max())
    if not math.isfinite(peak):
        raise ConfigError(
            "profile power overflows float64; the channel's path gains are too large"
        )
    if peak <= 0:
        raise NoSyncPeak("profile is identically zero")
    return PdpProfile(
        power_linear=linear / peak,
        alpha=cfg.alpha,
        bins_per_chip=bins_per_chip,
        averaged_over=len(usable),
    )


def fast_pdp_oracle(seq: ChipSequence, ch: ChannelModel) -> PdpProfile:
    """Brute-force PDP at chip resolution, no sliding simulation.

    The received period is built by cyclically shifting the bipolar code to
    each path delay (rounded to the nearest chip) and summing complex gains;
    the profile is the cyclic cross-correlation against the clean code,
    computed in the frequency domain. Noiseless channels only.
    """
    if ch.snr_db is not None:
        raise ConfigError("oracle is defined for noiseless channels only")
    code = seq.bipolar()
    length = code.size
    chip_rate = seq.chip_rate
    received = np.zeros(length, dtype=np.complex128)
    for p in ch.paths:
        shift = int(round(p.delay * chip_rate)) % length
        received += p.complex_gain * np.roll(code, shift)

    spec_rx = np.fft.fft(received)
    spec_code = np.fft.fft(code)
    corr = np.fft.ifft(spec_rx * np.conj(spec_code)) / length
    linear = np.abs(corr) ** 2
    peak = float(linear.max())
    if peak <= 0:
        raise ConfigError("channel annihilates the code; empty profile")
    return PdpProfile(
        power_linear=linear / peak, alpha=chip_rate, bins_per_chip=1, averaged_over=1
    )
