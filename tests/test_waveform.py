"""Tests for waveform synthesis and spectrum analysis.

The spectral oracle used throughout: an N-stage bipolar maximal sequence at
chip rate f has a line spectrum spaced f/L under a sinc^2 envelope whose
nulls sit at multiples of f. Line positions and spacings are re-derived here
by direct peak search so the package's own bookkeeping is not trusted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sounder_sim.errors import ConfigError, InsufficientLength, JitterTooLarge
from sounder_sim.pn import ChipSequence, default_config, generate_period
from sounder_sim.waveform import (
    SampledWaveform,
    chips_to_waveform,
    find_spectral_nulls,
    inject_jitter,
    plateau_peaks,
    power_spectrum,
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

    def test_rejects_bad_oversampling(self):
        seq = generate_period(default_config(5))
        with pytest.raises(ConfigError):
            chips_to_waveform(seq, samples_per_chip=0)
        with pytest.raises(ConfigError):
            chips_to_waveform(seq, periods=0)

    def test_period_mean_shows_balance(self, seq11):
        # one more -1 chip than +1 chips, so the period mean is exactly -1/L
        w = chips_to_waveform(seq11, samples_per_chip=2)
        assert np.mean(w.samples.real) == -1.0 / 2047
        assert np.mean(w.samples.imag) == 0.0


class TestPowerSpectrum:
    def test_energy_conserved(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2, periods=2)
        ps = power_spectrum(w)
        total = float(ps.power_linear.sum())
        assert total == pytest.approx(w.power(), rel=1e-6)

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

    def test_waveform_shorter_than_fft_rejected(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=1)
        with pytest.raises(InsufficientLength):
            power_spectrum(w, fft_size=4096)

    def test_windowed_path_runs(self, seq11):
        w = chips_to_waveform(seq11, samples_per_chip=2, periods=2)
        ps = power_spectrum(w, window="hann")
        assert ps.power_db.max() == 0.0

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
