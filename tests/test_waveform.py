"""Tests for waveform synthesis and spectrum analysis.

The spectral oracle used throughout: an N-stage bipolar maximal sequence at
chip rate f has a line spectrum spaced f/L under a sinc^2 envelope whose
nulls sit at multiples of f. Line positions and spacings are re-derived here
by direct peak search so the package's own bookkeeping is not trusted.
"""

import dataclasses
import os
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sounder_sim.waveform as waveform_mod
from sounder_sim.channel import ChannelModel, PathSpec, apply_channel
from sounder_sim.errors import ConfigError, InsufficientLength, JitterTooLarge
from sounder_sim.pn import ChipSequence, default_config, generate_period
from sounder_sim.sounder import Mode, SounderConfig, tx_baseband
from sounder_sim.waveform import (
    PowerSpectrum,
    SampledWaveform,
    chips_to_waveform,
    find_spectral_nulls,
    inject_jitter,
    plateau_peaks,
    power_spectrum,
    ratio_to_db,
)


@pytest.fixture(scope="module")
def seq11():
    return generate_period(default_config(11), chip_rate=1e9)


class TestChipsToWaveform:
    def test_seven_chip_direct_map(self):
        seq = ChipSequence(chips=np.array([1, 0, 1, 0, 0, 1, 1], dtype=np.uint8))
        w = chips_to_waveform(seq, samples_per_chip=1, periods=1)
        assert len(w) == 7
        assert w.samples.real.tolist() == [-1, 1, -1, 1, 1, -1, -1]
        assert not w.samples.imag.any()

    def test_gigachip_double_sampled(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2)
        assert w.sample_rate == 2e9
        assert len(w) == 4094
        assert w.samples_per_chip == 2
        assert w.samples_per_period == 4094

    def test_periods_concatenate(self):
        seq = generate_period(default_config(5))
        w1 = chips_to_waveform(seq, samples_per_chip=3, periods=1)
        w3 = chips_to_waveform(seq, samples_per_chip=3, periods=3)
        assert np.array_equal(w3.samples, np.tile(w1.samples, 3))

    def test_rectangular_hold(self):
        seq = generate_period(default_config(5))
        w = chips_to_waveform(seq, samples_per_chip=4)
        blocks = w.samples.reshape(-1, 4)
        assert (blocks == blocks[:, :1]).all()

    @pytest.mark.parametrize(
        "m, periods",
        [(0, 1), (1, 0), (2.5, 1), (1, 1.5), (nan, 1), (inf, 1), (-inf, 1), (2, inf),
         (2, nan)],
    )
    def test_rejects_bad_oversampling(self, m, periods):
        seq = generate_period(default_config(5))
        with pytest.raises(ConfigError, match="must be an integer >= 1"):
            chips_to_waveform(seq, samples_per_chip=m, periods=periods)

    @pytest.mark.parametrize("periods", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 49])
    def test_matches_repeat_and_tile(self, m, periods):
        # the np.repeat/np.tile build the shared code sampler replaced
        seq = generate_period(default_config(5))
        reference = np.tile(np.repeat(seq.bipolar(), m), periods).astype(np.complex128)
        w = chips_to_waveform(seq, samples_per_chip=m, periods=periods)
        assert w.samples.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 49])
    def test_is_the_head_of_tx_baseband(self, m):
        pn = default_config(5)
        cfg = SounderConfig(
            pn=pn, alpha=1e6, beta=0.995e6, sample_rate=m * 1e6,
            capture=3 * 31e-6, mode=Mode.TX,
        )
        tx = tx_baseband(cfg)
        w = chips_to_waveform(generate_period(pn, chip_rate=1e6), m, periods=2)
        assert tx.samples_per_chip == w.samples_per_chip == m
        assert tx.samples[: len(w)].tobytes() == w.samples.tobytes()

    def test_period_mean_shows_balance(self, seq11):
        # one more -1 chip than +1 chips, so the period mean is exactly -1/L
        w = chips_to_waveform(seq11, samples_per_chip=2)
        assert np.mean(w.samples.real) == -1.0 / 2047
        assert np.mean(w.samples.imag) == 0.0


class TestFraming:
    @pytest.mark.parametrize("m", [2.5, 2.0, 0, -1])
    def test_only_whole_samples_per_chip(self, m):
        # at 2.5 samples per chip, 31 chips would span 77.5 samples
        with pytest.raises(ConfigError, match="samples_per_chip"):
            SampledWaveform(np.ones(155), sample_rate=2.5e6, samples_per_chip=m)

    @pytest.mark.parametrize("sample_rate", [0.0, -4e6, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_sample_rate_refused(self, sample_rate):
        # an infinite rate would give a waveform of duration 0
        with pytest.raises(ConfigError, match="sample_rate must be"):
            SampledWaveform(np.ones(8), sample_rate=sample_rate)

    def test_chip_rate_derives_from_the_framing(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=4)
        assert w.chip_rate == w.sample_rate / 4
        assert SampledWaveform(np.ones(4), sample_rate=1e6).chip_rate is None


def repeats_bitwise(samples, period):
    """Whether samples[k] holds the bits of samples[k - period] for every k >= period.

    Bits, not values: 0.0 == -0.0, and a NaN equals nothing.
    """
    bits = samples.view(np.dtype((np.uint64, 2)))
    return np.array_equal(bits[period:], bits[: bits.shape[0] - period])


class TestStatedPeriod:
    """samples_per_period is a guarantee: only the code sampler states it."""

    @pytest.mark.parametrize("stages", [5, 7])
    @pytest.mark.parametrize("m", [2, 3, 4, 49])
    @pytest.mark.parametrize("capture_periods", [1, 2.5, 7.2])
    def test_tx_baseband_at_a_whole_framing_repeats(self, stages, m, capture_periods):
        pn = default_config(stages)
        cfg = SounderConfig(
            pn=pn, alpha=1e6, beta=0.995e6, sample_rate=m * 1e6,
            capture=capture_periods * pn.length * 1e-6, mode=Mode.TX,
        )
        tx = tx_baseband(cfg)
        assert tx.samples_per_period == pn.length * m
        assert tx.repeats == (0, pn.length * m)
        assert repeats_bitwise(tx.samples, tx.samples_per_period)

    @pytest.mark.parametrize("periods", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 2, 3, 49])
    def test_chips_to_waveform_repeats(self, m, periods):
        seq = ChipSequence(chips=np.random.default_rng(m).integers(0, 2, 37, dtype=np.uint8),
                           chip_rate=0.1)
        w = chips_to_waveform(seq, m, periods)
        assert w.samples_per_period == 37 * m
        assert w.repeats == (0, 37 * m)
        assert repeats_bitwise(w.samples, w.samples_per_period)

    def test_outputs_that_do_not_repeat_state_no_period(self, seq11):
        cfg = SounderConfig(pn=default_config(5), alpha=1e6, beta=0.995e6,
                            sample_rate=4.3e6, capture=100e-6, mode=Mode.TX)
        unframed = tx_baseband(cfg)
        assert unframed.samples_per_chip is None
        assert unframed.samples_per_period is None and unframed.repeats is None
        w = chips_to_waveform(seq11, 4, periods=2)
        jittered = inject_jitter(w, 0.05e-9, 3)
        assert jittered.samples_per_chip == 4 and jittered.samples_per_period is None
        assert jittered.repeats is None
        received = apply_channel(w, ChannelModel(paths=(PathSpec(delay_ns=3.0),)))
        assert received.samples_per_chip == 4 and received.samples_per_period is None
        # the same samples, but replace cannot carry a claim it did not check
        assert dataclasses.replace(w, samples=w.samples).samples_per_period is None
        assert dataclasses.replace(w, samples=w.samples).repeats is None

    def test_channel_output_repeats_from_the_last_path(self, seq11):
        # 3 ns at 4 samples per ns: the head is 12 zero-filled samples, and
        # the output repeats from there with the input's period
        w = chips_to_waveform(seq11, 4, periods=2)
        received = apply_channel(w, ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                                        PathSpec(delay_ns=3.0))))
        assert received.repeats == (12, 2047 * 4)
        assert repeats_bitwise(received.samples[12:], 2047 * 4)
        assert not repeats_bitwise(received.samples, 2047 * 4)
        # so its spectrum keeps an unframed waveform's defaults
        assert power_spectrum(received).line_spacing_hz is None
        assert power_spectrum(received).power_linear.size == len(received)

    def test_channel_output_at_shift_zero_repeats_from_sample_0(self, seq11):
        # only a 0 ns path: nothing is zero-filled, so the output states its
        # period from sample 0 and its spectrum takes the line grid
        w = chips_to_waveform(seq11, 4, periods=2)
        period = 2047 * 4
        received = apply_channel(w, ChannelModel(paths=(PathSpec(delay_ns=0.0, gain_db=-3.0),)))
        assert received.repeats == (0, period) and received.samples_per_period == period
        ps = power_spectrum(received)
        assert ps.line_spacing_hz == w.sample_rate / period == power_spectrum(w).line_spacing_hz
        assert ps.power_linear.size == period

    def test_no_caller_can_state_a_period(self, seq11):
        w = chips_to_waveform(seq11, 2)
        with pytest.raises(TypeError):
            SampledWaveform(w.samples, w.sample_rate, 2, repeats=(0, 4094))
        with pytest.raises(ValueError, match="repeats"):
            dataclasses.replace(w, repeats=(0, 4094))


class TestCompactStorage:
    """A waveform that states repeats = (s, P) stores its first s + P samples;
    samples tiles them on first use, and source reads blocks without it."""

    @pytest.mark.parametrize("periods", [1, 3, 1000])
    def test_length_and_period_need_no_samples(self, seq11, periods):
        w = chips_to_waveform(seq11, 3, periods)
        assert len(w) == 2047 * 3 * periods and w.duration == len(w) / w.sample_rate
        assert w.repeats == (0, 2047 * 3) and w.samples_per_period == 2047 * 3
        assert w.stored.size == 2047 * 3 and "samples" not in vars(w)

    def test_tx_baseband_stores_one_period(self):
        cfg = SounderConfig(pn=default_config(5), alpha=1e6, beta=0.995e6,
                            sample_rate=4e6, capture=0.01, mode=Mode.TX)
        tx = tx_baseband(cfg)
        assert len(tx) == 40000 and tx.stored.size == 124 and "samples" not in vars(tx)

    @pytest.mark.parametrize("m,periods", [(1, 1), (3, 2), (4, 7)])
    def test_samples_equal_the_eager_build(self, seq11, m, periods):
        w = chips_to_waveform(seq11, m, periods)
        eager = waveform_mod.sample_code(seq11.bipolar(), 1.0, m, len(w))
        assert w.samples.tobytes() == eager.tobytes()
        assert w.samples is w.samples and not w.samples.flags.writeable  # built once
        # a capture shorter than its period stores what it holds
        short = waveform_mod.periodic_code(seq11.bipolar(), m, 1000, 1e9)
        assert short.stored.size == 1000 and short.samples.tobytes() == eager[:1000].tobytes()

    def test_replace_builds_an_eager_copy(self, seq11):
        w = chips_to_waveform(seq11, 2, 3)
        moved = dataclasses.replace(w, sample_rate=1e6)
        assert moved.repeats is None and moved.sample_rate == 1e6 and len(moved) == len(w)
        assert moved.samples.tobytes() == w.samples.tobytes()
        assert moved.stored is moved.samples

    def test_building_the_samples_is_refused_beyond_memory(self, seq11, monkeypatch):
        w = chips_to_waveform(seq11, 2, 10)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": len(w) * 15}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match=r"^waveform of 4\.094e\+04 samples needs"):
            w.samples
        assert "samples" not in vars(w)

    def test_length_beyond_an_index_is_refused(self, seq11):
        with pytest.raises(ConfigError, match="too long to index"):
            chips_to_waveform(seq11, 2, 2**62)

    @settings(max_examples=60, deadline=None)
    @given(
        chips=st.integers(1, 40),
        m=st.integers(1, 4),
        periods=st.integers(1, 6),
        delay=st.integers(0, 200),
        span=st.integers(1, 300),
        reads=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 300)), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_source_reads_the_samples(self, chips, m, periods, delay, span, reads, seed):
        rng = np.random.default_rng(seed)
        seq = ChipSequence(chips=rng.integers(0, 2, chips, dtype=np.uint8), chip_rate=1e9)
        w = chips_to_waveform(seq, m, periods)
        if delay < len(w):
            # a head that is not part of the repeat
            w = apply_channel(w, ChannelModel(paths=(
                PathSpec(delay_ns=0.0), PathSpec(delay_ns=delay / m, gain_db=-3.0))))
        read = w.source(span)
        samples = w.samples
        for start, count in reads:
            count = min(count, span)
            start %= len(w) - count + 1 if count <= len(w) else 1
            count = min(count, len(w) - start)
            got = read(start, count)
            assert got.tobytes() == samples[start : start + count].tobytes()


class TestPowerSpectrum:
    def test_fft_beyond_physical_memory_is_refused(self, seq11, monkeypatch):
        # memory for 40 B per sample holds the waveform, not the FFT beside it
        w = chips_to_waveform(seq11, 2)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": len(w) * 40}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match="^spectrum of 4094 samples needs"):
            power_spectrum(w)

    def test_grid_derives_from_power_and_rate(self):
        power = np.arange(1.0, 8.0)
        ps = PowerSpectrum(power_linear=power, sample_rate=7e6)
        assert np.array_equal(ps.freqs, np.fft.fftshift(np.fft.fftfreq(7, d=1 / 7e6)))
        assert np.array_equal(ps.power_db, ratio_to_db(power / 7.0))
        assert ps.resolution_bw == 1e6
        assert ps.freqs is ps.freqs and ps.power_db is ps.power_db
        for name in ("power_linear", "freqs", "power_db"):
            assert not getattr(ps, name).flags.writeable
            with pytest.raises(AttributeError):
                setattr(ps, name, power)
        with pytest.raises(AttributeError):
            ps.resolution_bw = 2e6

    @pytest.mark.parametrize("power", [np.ones((2, 2)), np.array([]), np.zeros(8)])
    def test_refuses_power_without_a_peak(self, power):
        with pytest.raises(ConfigError):
            PowerSpectrum(power_linear=power, sample_rate=1e6)

    @pytest.mark.parametrize("sample_rate", [0.0, -1e6, float("nan"), float("inf")])
    def test_refuses_a_grid_without_a_finite_rate(self, sample_rate):
        with pytest.raises(ConfigError, match="sample_rate must be"):
            PowerSpectrum(power_linear=np.ones(8), sample_rate=sample_rate)

    def test_energy_conserved(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2, periods=2)
        ps = power_spectrum(w)
        total = float(ps.power_linear.sum())
        assert total == pytest.approx(np.mean(np.abs(w.samples) ** 2), rel=1e-6)

    def test_peak_normalized_to_zero_db(self, seq11):
        ps = power_spectrum(chips_to_waveform(seq11, samples_per_chip=2))
        assert ps.power_db.max() == 0.0
        assert np.all(np.diff(ps.freqs) > 0)

    def test_line_spacing_by_adjacent_peaks(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2)
        ps = power_spectrum(w)
        # independent route: strong bins near DC are the spectral lines
        band = (ps.freqs > 0) & (ps.freqs < 50e6)
        strong = np.flatnonzero(band & (ps.power_db > -40))
        spacings = np.diff(ps.freqs[strong])
        assert spacings.size >= 50
        expected = 1e9 / 2047
        assert np.allclose(spacings, expected, atol=ps.resolution_bw)
        assert ps.line_spacing_hz == pytest.approx(expected, rel=1e-12)

    def test_bartlett_averaging_shape(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2, periods=4)
        ps1 = power_spectrum(w, fft_size=4094)
        assert ps1.freqs.size == 4094
        # four identical periods average to the single-period spectrum
        ps_full = power_spectrum(chips_to_waveform(seq11, samples_per_chip=2))
        assert np.allclose(ps1.power_linear, ps_full.power_linear, rtol=1e-12)

    def test_fft_shorter_than_period_rejected(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2)
        with pytest.raises(InsufficientLength):
            power_spectrum(w, fft_size=2048)

    @pytest.mark.parametrize("fft_size", [0, -4, 2.5, nan, inf])
    def test_fft_size_not_a_whole_count_rejected(self, seq11, fft_size):
        w = chips_to_waveform(seq11, samples_per_chip=1)
        with pytest.raises(ConfigError, match="fft_size must be an integer >= 1"):
            power_spectrum(w, fft_size=fft_size)

    def test_waveform_shorter_than_fft_rejected(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=1)
        with pytest.raises(InsufficientLength):
            power_spectrum(w, fft_size=4096)

    def test_time_scaling_bit_identical(self):
        cfg = default_config(9)
        slow = chips_to_waveform(generate_period(cfg, chip_rate=1.0), 4)
        fast = chips_to_waveform(generate_period(cfg, chip_rate=1000.0), 4)
        assert np.array_equal(slow.samples, fast.samples)
        ps_slow = power_spectrum(slow)
        ps_fast = power_spectrum(fast)
        assert np.array_equal(ps_slow.power_db, ps_fast.power_db)
        assert np.allclose(ps_fast.freqs, ps_slow.freqs * 1000.0, rtol=1e-12)


class TestSpectralNulls:
    def test_first_null_at_chip_rate(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=4)
        ps = power_spectrum(w)
        nulls = find_spectral_nulls(ps, 1)
        assert len(nulls) == 1
        assert abs(nulls[0] - 1e9) <= ps.resolution_bw

    def test_null_depth_exceeds_forty_db(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=4)
        ps = power_spectrum(w)
        k = int(np.argmin(np.abs(ps.freqs - 1e9)))
        assert ps.power_db[k] <= -40.0

    def test_two_nulls_at_lower_chip_rate(self):
        seq = generate_period(default_config(11), chip_rate=400e6)
        ps = power_spectrum(chips_to_waveform(seq, samples_per_chip=5))
        nulls = find_spectral_nulls(ps, 2)
        assert len(nulls) == 2
        assert abs(nulls[0] - 400e6) <= ps.resolution_bw
        assert abs(nulls[1] - 800e6) <= ps.resolution_bw

    def test_dc_waveform_has_no_nulls(self):
        dc = SampledWaveform(samples=np.ones(4096), sample_rate=1e6)
        assert find_spectral_nulls(power_spectrum(dc), 3) == []

    def test_span_precondition(self, seq11):
        # 2x oversampling puts the first null exactly at Nyquist: rejected
        ps = power_spectrum(chips_to_waveform(seq11, samples_per_chip=2))
        with pytest.raises(ConfigError):
            find_spectral_nulls(ps, 1)

    def test_plateau_rule(self):
        v = np.array([3.0, 1.0, 1.0, 2.0, 0.0, 5.0, 5.0])
        assert plateau_peaks(-v, cyclic=False) == [1, 4]
        # runs touching either end never qualify
        assert plateau_peaks(-np.array([1.0, 1.0, 2.0]), cyclic=False) == []
        assert plateau_peaks(-np.array([2.0, 1.0, 1.0]), cyclic=False) == []
        assert plateau_peaks(-np.ones(5), cyclic=False) == []


def _loop_linear_minima(values):
    """Reference: centers of plateaus whose two neighbours are strictly greater."""
    n = values.size
    minima = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if i > 0 and j < n - 1 and values[i - 1] > values[i] and values[j + 1] > values[i]:
            minima.append((i + j) // 2)
        i = j + 1
    return minima


def _loop_cyclic_maxima(values):
    """Reference: cyclic plateau maxima, found by rotating to a run start."""
    n = values.size
    if n == 1:
        return [0]
    if np.all(values == values[0]):
        return []
    start = next(i for i in range(n) if values[i] != values[i - 1])
    v = np.roll(values, -start)
    maxima = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        left = v[i - 1] if i > 0 else v[n - 1]
        right = v[(j + 1) % n]
        if left < v[i] and right < v[i]:
            maxima.append(((i + j) // 2 + start) % n)
        i = j + 1
    return sorted(maxima)


# few distinct levels, so plateaus and seam-crossing runs are common
_plateau_arrays = st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=11
).map(np.array)


class TestPlateauPeaks:
    @settings(max_examples=500, deadline=None)
    @given(_plateau_arrays)
    def test_linear_matches_loop_scanner(self, v):
        assert plateau_peaks(-v, cyclic=False) == _loop_linear_minima(v)
        assert plateau_peaks(v, cyclic=False) == _loop_linear_minima(-v)

    @settings(max_examples=500, deadline=None)
    @given(_plateau_arrays)
    def test_cyclic_matches_loop_scanner(self, v):
        assert plateau_peaks(v, cyclic=True) == _loop_cyclic_maxima(v)
        assert plateau_peaks(-v, cyclic=True) == _loop_cyclic_maxima(-v)


class TestJitter:
    def test_zero_jitter_is_identity(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2)
        assert inject_jitter(w, 0.0, 1) is w

    def test_seeded_and_reproducible(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=4)
        a = inject_jitter(w, 0.05e-9, 42)
        b = inject_jitter(w, 0.05e-9, 42)
        c = inject_jitter(w, 0.05e-9, 43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)
        assert len(a) == len(w)

    @pytest.mark.parametrize("rms_jitter", [-1e-12, nan])
    def test_negative_or_nan_jitter_refused(self, seq11, rms_jitter):
        # a NaN offset once cast to int silently flattened every chip edge
        w = chips_to_waveform(seq11, samples_per_chip=2)
        with pytest.raises(ConfigError, match="rms_jitter must be finite"):
            inject_jitter(w, rms_jitter, 1)

    def test_half_chip_limit(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2)
        with pytest.raises(JitterTooLarge):
            inject_jitter(w, 0.6e-9, 1)

    def test_jitter_fills_spectral_null(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=4)
        clean = power_spectrum(w)
        dirty = power_spectrum(inject_jitter(w, 0.08e-9, 7))
        k = int(np.argmin(np.abs(clean.freqs - 1e9)))
        assert clean.power_db[k] < -100.0
        assert dirty.power_db[k] > clean.power_db[k] + 20.0

    def test_requires_chip_framing(self):
        w = SampledWaveform(samples=np.ones(64), sample_rate=1e6)
        with pytest.raises(ConfigError):
            inject_jitter(w, 1e-9, 1)
