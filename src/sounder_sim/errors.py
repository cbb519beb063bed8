"""Shared exception types, the memory refusal, and the read-only array rule."""

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
    """Generated sequence period fell short of 2^N - 1.

    The observed period is carried so callers can reject bad tap words.
    """

    def __init__(self, period: int, expected: int):
        self.period = period
        self.expected = expected
        super().__init__(
            f"sequence period {period} < maximal length {expected}; "
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


def refuse_beyond_memory(nbytes: float, what: str) -> None:
    """Raise ConfigError if what, needing nbytes, exceeds physical memory.

    Called before allocating, so a size that cannot fit is a config error,
    not a job for the OOM killer. nbytes may be a float: an overflow to inf
    is refused too.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ConfigError(
            f"{what} needs {nbytes / 2**30:.4g} GiB;"
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
