"""Exception types, the count and real-number rules every argument check uses,
the memory refusal, and the read-only array rule."""

import decimal
import math
import os

import numpy as np


class SounderSimError(Exception):
    """Base class for all sounder-sim errors."""


class ConfigError(SounderSimError, ValueError):
    """A configuration value violates its contract."""


class TapOutOfRange(ConfigError):
    """Tap word selects a tap position above the configured stage count."""


class EmptyTaps(ConfigError):
    """Tap word selects no feedback taps at all."""


class AllZeroState(ConfigError):
    """Shift register reached (or was seeded with) the absorbing all-zero state."""


class NotMaximal(SounderSimError):
    """Generated sequence period fell short of 2^N - 1; ``cycle`` holds the chips walked."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.period = len(cycle)
        self.expected = cycle.config.length
        super().__init__(
            f"sequence period {self.period} < maximal length {self.expected}; "
            "tap set is not primitive for this stage count"
        )


class InsufficientLength(ConfigError):
    """Waveform too short for the requested spectral analysis."""


class JitterTooLarge(ConfigError):
    """Requested RMS jitter is half a chip period or more."""


class DelayExceedsDuration(ConfigError):
    """Channel path delay is not shorter than the waveform duration."""


class InvalidSnr(ConfigError):
    """SNR value is not a finite number of dB (or None for noiseless)."""


class InvalidRates(ConfigError):
    """Chip-rate pair does not satisfy 0 < beta < alpha."""


class SampleRateMismatch(SounderSimError):
    """Received waveform sample rate differs from the correlator configuration."""


class CaptureTooShort(SounderSimError):
    """Capture does not cover the required number of dilated code periods."""


class NoSyncPeak(SounderSimError):
    """Sync trace has no peak at least 6 dB above the trace median."""


class EmptyProfile(SounderSimError):
    """Power-delay profile holds no bins."""


def whole_count(value, name: str, minimum: int | None = 1, error=ConfigError) -> int:
    """value as an int: an int or numpy integer of at least minimum (None: any).

    A bool, a float (2.0 too) or a string is refused with error, naming name.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


def finite_real(value, name: str, positive: bool = False, error=ConfigError) -> float:
    """value as a float: a finite int, float or numpy number, > 0 if positive.

    A bool, a string, any other type or an int past the float range is
    refused with error, naming name.
    """
    real = isinstance(value, (int, float, np.integer, np.floating))
    try:
        number = float(value) if real and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number) or positive and number <= 0:
        bound = "positive and " if positive else ""
        raise error(f"{name} must be {bound}finite, got {value!r}")
    return number


def approx(number, unit: int = 1) -> str:
    """number / unit to four significant digits, as %.4g; an int past the
    float range too, which %.4g itself cannot format."""
    try:
        return f"{number / unit:.4g}"
    except OverflowError:
        return f"{decimal.Decimal(number) / unit:.4g}"


def refuse_beyond_memory(nbytes: float, what: str) -> None:
    """Raise ConfigError if what, needing nbytes, exceeds physical memory.

    Called before allocating, so a size that cannot fit is a config error,
    not a job for the OOM killer. nbytes may be a float: an overflow to inf
    is refused too.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ConfigError(
            f"{what} needs {approx(nbytes, 2**30)} GiB;"
            f" physical memory is {memory / 2**30:.4g} GiB"
        )


def read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only, as every array a result type holds or derives."""
    array.setflags(write=False)
    return array


def freeze_arrays(obj, dtype, *names: str) -> None:
    """Make each named field of the frozen dataclass obj a read-only dtype array.

    An array of that dtype is kept, now read-only; a None field stays None.
    """
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            object.__setattr__(obj, name, read_only(np.asarray(value, dtype=dtype)))
