"""Sliding-correlator channel sounder simulation toolkit.

Generate programmable maximal-length spreading codes, push them through
multipath channels, run the dual-clock sliding correlator with its sync
timing channel, and extract power-delay profiles with absolute delays.
"""

from .errors import (
    AllZeroState,
    CaptureTooShort,
    ConfigError,
    DelayExceedsDuration,
    EmptyProfile,
    EmptyTaps,
    InsufficientLength,
    InvalidRates,
    InvalidSnr,
    JitterTooLarge,
    NoSyncPeak,
    NotMaximal,
    SampleRateMismatch,
    SounderSimError,
    TapOutOfRange,
)
from .pn import (
    ChipSequence,
    PnConfig,
    RunHistogram,
    Structure,
    decode_controls,
    default_config,
    expected_maximal_runs,
    generate_period,
    run_histogram,
    validate_m_sequence,
)
from .waveform import (
    PowerSpectrum,
    SampledWaveform,
    chips_to_waveform,
    find_spectral_nulls,
    inject_jitter,
    power_spectrum,
)
from .channel import ChannelModel, PathSpec, apply_channel, identity_channel
from .sounder import (
    Mode,
    PdpProfile,
    PdpTrace,
    SounderConfig,
    extract_pdp,
    fast_pdp_oracle,
    find_sync_peaks,
    sliding_correlate,
    sliding_factor,
    tx_baseband,
)
from .analysis import (
    PathEstimate,
    extract_paths,
    instrument_metrics,
    rms_delay_spread,
)
from .config import RunManifest, RunSpec, SpectrumSpec, load_config, parse_rate

__version__ = "0.1.0"

__all__ = [
    "AllZeroState",
    "CaptureTooShort",
    "ChannelModel",
    "ChipSequence",
    "ConfigError",
    "DelayExceedsDuration",
    "EmptyProfile",
    "EmptyTaps",
    "InsufficientLength",
    "InvalidRates",
    "InvalidSnr",
    "JitterTooLarge",
    "Mode",
    "NoSyncPeak",
    "NotMaximal",
    "PathEstimate",
    "PathSpec",
    "PdpProfile",
    "PdpTrace",
    "PnConfig",
    "PowerSpectrum",
    "RunHistogram",
    "RunManifest",
    "RunSpec",
    "SampleRateMismatch",
    "SampledWaveform",
    "SounderConfig",
    "SounderSimError",
    "SpectrumSpec",
    "Structure",
    "TapOutOfRange",
    "apply_channel",
    "chips_to_waveform",
    "decode_controls",
    "default_config",
    "expected_maximal_runs",
    "extract_paths",
    "extract_pdp",
    "fast_pdp_oracle",
    "find_spectral_nulls",
    "find_sync_peaks",
    "generate_period",
    "identity_channel",
    "inject_jitter",
    "instrument_metrics",
    "load_config",
    "parse_rate",
    "power_spectrum",
    "rms_delay_spread",
    "run_histogram",
    "sliding_correlate",
    "sliding_factor",
    "tx_baseband",
    "validate_m_sequence",
]
