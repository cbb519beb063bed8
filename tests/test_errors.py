"""The count and real-number rules, and every argument check that uses them.

One refusal table calls each check site with a bool, a fraction, NaN or inf
and a string where it takes a number, and expects the site's own
SounderSimError subclass; none of these may pass as a number or end in a
bare Python error.
"""

import math

import numpy as np
import pytest

from sounder_sim.analysis import extract_paths
from sounder_sim.channel import ChannelModel, PathSpec
from sounder_sim.cli import _resolve_threads
from sounder_sim.config import parse_rate
from sounder_sim.errors import (
    ConfigError,
    InvalidRates,
    InvalidSnr,
    finite_real,
    whole_count,
)
from sounder_sim.pn import (
    ChipSequence,
    PnConfig,
    decode_controls,
    default_config,
)
from sounder_sim.sounder import (
    PdpProfile,
    PdpTrace,
    SounderConfig,
    extract_pdp,
    profile_bins,
    sliding_factor,
)
from sounder_sim.waveform import (
    PowerSpectrum,
    SampledWaveform,
    chips_to_waveform,
    find_spectral_nulls,
    inject_jitter,
    power_spectrum,
)

PN = default_config(5)
SEQ = ChipSequence(np.array([0, 1, 1, 0, 1], dtype=np.uint8), chip_rate=1e6)
WAVE = chips_to_waveform(SEQ, 2, 3)
TRACE = PdpTrace(
    i_out=np.zeros(8), q_out=np.zeros(8), sync=np.zeros(8),
    config=SounderConfig(pn=PN, alpha=1e6, beta=0.99e6),
)

PROFILE = PdpProfile(np.array([1.0, 0.1, 0.5, 0.1, 0.2]), 1e6, 1, 1)

NOT_COUNTS = [True, np.True_, 1.5, 2.0, math.nan, math.inf, "3"]
NOT_REALS = [True, np.True_, math.nan, math.inf, -math.inf, "1e6", [1.0], 1j, 10**400]

# site, the call with the tested argument v, and the error class it raises;
# the two noise seeds are test_channel.py's test_bad_seed_rejected
COUNT_SITES = [
    ("chips_to_waveform.samples_per_chip", lambda v: chips_to_waveform(SEQ, v), ConfigError),
    ("chips_to_waveform.periods", lambda v: chips_to_waveform(SEQ, 2, v), ConfigError),
    ("power_spectrum.fft_size", lambda v: power_spectrum(WAVE, fft_size=v), ConfigError),
    ("SampledWaveform.samples_per_chip",
     lambda v: SampledWaveform(np.ones(4), 1e6, samples_per_chip=v), ConfigError),
    ("PdpProfile.bins_per_chip", lambda v: PdpProfile(np.ones(5), 1e6, v, 1), ConfigError),
    ("PdpProfile.averaged_over", lambda v: PdpProfile(np.ones(5), 1e6, 1, v), ConfigError),
    ("PnConfig.stages", lambda v: PnConfig(stages=v, taps=(5, 3)), ConfigError),
    ("PnConfig.taps", lambda v: PnConfig(stages=5, taps=(5, v)), ConfigError),
    ("PnConfig.seed", lambda v: PnConfig(stages=5, taps=(5, 3), seed=(v, 1, 1, 1, 1)),
     ConfigError),
    ("decode_controls.stage_select", lambda v: decode_controls(v, 0b10100), ConfigError),
    ("find_spectral_nulls.count", lambda v: find_spectral_nulls(power_spectrum(WAVE), v),
     ConfigError),
    ("profile_bins.periods", lambda v: profile_bins(31, v, 1), ConfigError),
    ("profile_bins.bins_per_chip", lambda v: profile_bins(31, 4, v), ConfigError),
    ("extract_pdp.periods_to_average", lambda v: extract_pdp(TRACE, v), ConfigError),
    ("extract_pdp.bins_per_chip", lambda v: extract_pdp(TRACE, 4, v), ConfigError),
    ("cli.threads", lambda v: _resolve_threads(v, None), ConfigError),
]


def sounder(**fields):
    return SounderConfig(**{"pn": PN, "alpha": 1e6, "beta": 0.99e6, **fields})


REAL_SITES = [
    ("SampledWaveform.sample_rate", lambda v: SampledWaveform(np.ones(4), v), ConfigError),
    ("PowerSpectrum.sample_rate", lambda v: PowerSpectrum(np.ones(4), v), ConfigError),
    ("ChipSequence.chip_rate", lambda v: ChipSequence(SEQ.chips, chip_rate=v), ConfigError),
    ("PdpProfile.alpha", lambda v: PdpProfile(np.ones(5), v, 1, 1), ConfigError),
    ("sliding_factor.alpha", lambda v: sliding_factor(v, 0.5), InvalidRates),
    ("sliding_factor.beta", lambda v: sliding_factor(1e6, v), InvalidRates),
    ("SounderConfig.alpha", lambda v: sounder(alpha=v), InvalidRates),
    ("SounderConfig.beta", lambda v: sounder(beta=v), InvalidRates),
    ("SounderConfig.sample_rate", lambda v: sounder(sample_rate=v), InvalidRates),
    ("SounderConfig.lpf_cutoff", lambda v: sounder(lpf_cutoff=v), InvalidRates),
    ("SounderConfig.capture", lambda v: sounder(capture=v), ConfigError),
    ("SounderConfig.beta_ppm_error", lambda v: sounder(beta_ppm_error=v), ConfigError),
    ("PathSpec.delay_ns", lambda v: PathSpec(delay_ns=v), ConfigError),
    ("PathSpec.gain_db", lambda v: PathSpec(delay_ns=0.0, gain_db=v), ConfigError),
    ("PathSpec.phase_deg", lambda v: PathSpec(delay_ns=0.0, phase_deg=v), ConfigError),
    ("ChannelModel.snr_db",
     lambda v: ChannelModel(paths=(PathSpec(delay_ns=0.0),), snr_db=v), InvalidSnr),
    ("inject_jitter.rms_jitter", lambda v: inject_jitter(WAVE, v, 1), ConfigError),
    ("extract_paths.floor_db", lambda v: extract_paths(PROFILE, v), ConfigError),
]


def table(sites, values):
    return [
        pytest.param(call, error, value, id=f"{site}={value!r:.24}")
        for site, call, error in sites
        for value in values
    ]


@pytest.mark.parametrize(
    "call,error,value",
    table(COUNT_SITES, NOT_COUNTS)
    + table(REAL_SITES, NOT_REALS)
    # a rate string is a config file's rate; a bool or a non-finite rate is not
    + table([("config.rate", parse_rate, ConfigError)],
            [True, np.True_, math.nan, math.inf, "nan Hz", 0, [1e6]]),
)
def test_site_refuses_what_is_not_its_kind_of_number(call, error, value):
    with pytest.raises(error) as refused:
        call(value)
    assert refused.type is error  # the site's own class, not a subclass


class TestCountRule:
    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(3), 10**30])
    def test_integer_types_at_or_above_the_minimum(self, value):
        got = whole_count(value, "n", 0)
        assert got == value and type(got) is int

    def test_message_names_the_argument_and_its_minimum(self):
        with pytest.raises(ConfigError, match=r"^n must be an integer >= 2, got 1$"):
            whole_count(1, "n", 2)
        with pytest.raises(InvalidRates, match=r"^n must be an integer, got True$"):
            whole_count(True, "n", None, InvalidRates)


class TestRealRule:
    @pytest.mark.parametrize("value", [0, -2, 2.5, np.float32(0.5), np.int64(3), 10**300])
    def test_finite_numbers(self, value):
        got = finite_real(value, "x")
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize("value", [0, 0.0, -1e-300])
    def test_positive_bound_is_strict(self, value):
        with pytest.raises(ConfigError, match=r"^x must be positive and finite, got "):
            finite_real(value, "x", positive=True)
        assert finite_real(value, "x") == value

    def test_message_names_the_argument(self):
        with pytest.raises(InvalidSnr, match=r"^x must be finite, got True$"):
            finite_real(True, "x", error=InvalidSnr)
