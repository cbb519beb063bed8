"""Tests for the TX generator and the sliding correlator.

Desk-scale configuration used throughout: 9-stage code (L=511), alpha 1 MHz,
beta 0.995 MHz, so gamma=200 and one dilated period is 0.1022 s = 8176 slow
samples at the default filter/decimation settings. Expected numbers are
either closed-form (dilation arithmetic) or produced by the frequency-domain
cyclic-correlation oracle, never by the streaming code under test.
"""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import sounder_sim.sounder as sounder_mod
import sounder_sim.waveform as waveform_mod
from sounder_sim.channel import ChannelModel, PathSpec, apply_channel, identity_channel
from sounder_sim.errors import (
    CaptureTooShort,
    ConfigError,
    InvalidRates,
    NoSyncPeak,
    SampleRateMismatch,
)
from sounder_sim.pn import PnConfig, default_config, generate_period
from sounder_sim.sounder import (
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
from sounder_sim.waveform import (
    SampledWaveform,
    chips_to_waveform,
    inject_jitter,
    power_spectrum,
    ratio_to_db,
)
from test_channel import reference_apply_channel

PN9 = default_config(9)
CHIP = 1e-6  # desk-scale chip duration (alpha = 1 MHz)


def per_sample_code(table, start, count, chips_per_sample):
    """The per-sample float lookup the code source replaced, kept as reference."""
    n = np.arange(start, start + count, dtype=np.float64)
    n *= chips_per_sample
    idx = np.floor(n, out=n).astype(np.int64)
    idx %= table.size
    return table[idx]


def per_sample_source(table, rate, sample_rate, span, total):
    chips_per_sample = rate / sample_rate
    return lambda start, count: per_sample_code(table, start, count, chips_per_sample)


def product_rows(received, cfg):
    """The I, Q and sync mixer products of every input sample."""
    table = generate_period(cfg.pn).bipolar()
    count = len(received)
    rx = per_sample_code(table, 0, count, cfg.beta_effective / cfg.sample_rate)
    tx = per_sample_code(table, 0, count, cfg.alpha / cfg.sample_rate)
    x = received.samples
    return np.stack([x.real * rx, x.imag * rx, tx * rx])


def full_rate_windows(received, cfg):
    """The full-rate one-pole lfilter and window means that the correlator's
    per-window closed form replaced, kept as reference."""
    pole = math.exp(-2.0 * math.pi * cfg.lpf_cutoff / cfg.sample_rate)
    y = lfilter([1.0 - pole], [1.0, -pole], product_rows(received, cfg), axis=-1)
    dec = cfg.decimation
    whole = (y.shape[1] // dec) * dec
    return y[:, :whole].reshape(3, -1, dec).mean(axis=2)


def longdouble_windows(received, cfg):
    """The same filter and window means, one sample at a time in long double."""
    rows = product_rows(received, cfg).astype(np.longdouble)
    pole = np.exp(np.longdouble(-2.0 * math.pi * cfg.lpf_cutoff / cfg.sample_rate))
    dec = cfg.decimation
    state = np.zeros(3, dtype=np.longdouble)
    total = np.zeros(3, dtype=np.longdouble)
    windows = []
    for n in range((rows.shape[1] // dec) * dec):
        state = pole * state + (1 - pole) * rows[:, n]
        total += state
        if (n + 1) % dec == 0:
            windows.append(total / dec)
            total[:] = 0
    return np.stack(windows, axis=1)


def random_capture(cfg, periods=1.1, seed=5):
    """Noise covering `periods` dilated periods, ending in a partial window
    when dec > 1."""
    dec = cfg.decimation
    count = int(periods * cfg.dilated_period * cfg.sample_rate) // dec * dec
    count += (dec + 1) // 2
    rng = np.random.default_rng(seed)
    return SampledWaveform(
        samples=rng.standard_normal(count) + 1j * rng.standard_normal(count),
        sample_rate=cfg.sample_rate,
    )


def trace_rows(trace):
    return np.stack([trace.i_out, trace.q_out, trace.sync])


def same_bits(a, b):
    """The two traces' I, Q and sync rows are equal as uint64 words."""
    return np.array_equal(trace_rows(a).view(np.uint64), trace_rows(b).view(np.uint64))


def spy_on_tilings(patch):
    """The (start, period) of every tile_forward call sliding_correlate makes
    while patch is active."""
    calls = []

    def spy(array, start, period):
        calls.append((start, period))
        waveform_mod.tile_forward(array, start, period)

    patch.setattr(sounder_mod, "tile_forward", spy)
    return calls


@pytest.fixture()
def slow_tilings(monkeypatch):
    return spy_on_tilings(monkeypatch)


def desk_config(**overrides):
    base = dict(pn=PN9, alpha=1e6, beta=0.995e6, sample_rate=4e6, mode=Mode.TX)
    base.update(overrides)
    return SounderConfig(**base)


def window_pole(cfg):
    """The filter's pole per window, which sliding_correlate steps its state by."""
    omega = 2.0 * math.pi * cfg.lpf_cutoff / cfg.sample_rate
    return sounder_mod._window_weights(omega, cfg.decimation)[2]


def python_walk(rows, pole):
    """y[w] = rows[w] + pole*y[w-1] from y[-1] = 0, one Python float at a time."""
    out = []
    for row in rows.tolist():
        y, ys = 0.0, []
        for x in row:
            y = x + pole * y
            ys.append(y)
        out.append(ys)
    return np.array(out)


def signed_zero_rows(length):
    """Rows of signed zeros among -1.0 and -5e-324. Where two -0.0 follow
    a negative state (rows 2 and 3), the exact state stays -0.0, while a
    lane's warm-up from 0 over the first of them reaches +0.0."""
    rows = np.zeros((4, length))
    rows[0] = -0.0
    rows[0, 1::2] = -1.0
    rows[1, ::3] = -5e-324
    rows[2] = -0.0
    rows[2, ::4] = -1.0
    rows[3] = -0.0
    rows[3, ::3] = -5e-324
    return rows


def decaying_rows(length):
    """Rows of zeros with a large value every 5000 windows."""
    rows = np.zeros((3, length))
    rows[0, ::5000] = 1e300
    rows[1, 100::5000] = -1e300
    rows[2, 3::5000] = 5e-324
    return rows


@pytest.fixture()
def float_walks(monkeypatch):
    """The length of every _float_walk call that _one_pole makes."""
    calls = []
    walk = sounder_mod._float_walk

    def spy(xs, pole, y):
        calls.append(len(xs))
        return walk(xs, pole, y)

    monkeypatch.setattr(sounder_mod, "_float_walk", spy)
    return calls


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config()
    tx = tx_baseband(cfg)
    return cfg, tx, dataclasses.replace(cfg, mode=Mode.RX)


def run_channel(desk, ch, periods=4, bins_per_chip=1):
    _, tx, rx_cfg = desk
    trace = sliding_correlate(apply_channel(tx, ch), rx_cfg, ch)
    return trace, extract_pdp(trace, periods, bins_per_chip=bins_per_chip)


class TestSlidingFactor:
    def test_bench_rates(self):
        assert sliding_factor(1e9, 999.95e6) == 20000.0

    def test_forced_by_formula(self):
        assert sliding_factor(2.0, 1.0) == 2.0

    def test_equal_rates_rejected(self):
        with pytest.raises(InvalidRates):
            sliding_factor(1e9, 1e9)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(InvalidRates):
            sliding_factor(1e9, 0.0)


class TestConfig:
    def test_derived_quantities(self):
        cfg = desk_config()
        assert cfg.gamma == 200.0
        assert cfg.dilated_period == 0.1022
        assert cfg.lpf_cutoff == 10e3  # default 2*(alpha-beta)
        assert cfg.decimation == 50
        assert cfg.slow_rate == 80e3

    def test_bench_scale_dilated_period(self):
        cfg = SounderConfig(
            pn=default_config(11), alpha=1e9, beta=999.95e6, sample_rate=2e9
        )
        assert cfg.gamma == 20000.0
        assert cfg.dilated_period == 40.94e-3

    def test_beta_must_be_below_alpha(self):
        with pytest.raises(InvalidRates):
            desk_config(beta=1e6)

    def test_nyquist_floor(self):
        with pytest.raises(InvalidRates):
            desk_config(sample_rate=1.5e6)

    def test_lpf_must_pass_envelope(self):
        with pytest.raises(ConfigError):
            desk_config(lpf_cutoff=4e3)  # alpha-beta is 5 kHz

    def test_default_capture_covers_default_averaging(self):
        cfg = desk_config()
        assert cfg.capture == pytest.approx(5.25 * cfg.dilated_period)

    @pytest.mark.parametrize("field", ["alpha", "beta", "sample_rate", "lpf_cutoff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, field, value):
        with pytest.raises(InvalidRates):
            desk_config(**{field: value})

    def test_dilated_period_beyond_float64_samples_refused(self):
        # 6.2e301 s at 1e10 samples/s: the sync search's and the fold's
        # sample counts would be infinite
        with pytest.raises(ConfigError, match="dilated period"):
            SounderConfig(pn=default_config(5), alpha=1e-300, beta=0.5e-300,
                          sample_rate=1e10, lpf_cutoff=1e10, capture=1e-3)

    def test_beta_ppm_error(self):
        cfg = desk_config(beta_ppm_error=10.0)
        assert cfg.beta_effective == pytest.approx(0.995e6 * (1 + 1e-5))
        assert cfg.gamma == 200.0  # nominal, by design


class TestTxBaseband:
    def test_mode_enforced(self, desk):
        _, _, rx_cfg = desk
        with pytest.raises(ConfigError):
            tx_baseband(rx_cfg)

    @pytest.mark.parametrize("sample_rate", [4e6, 4.3e6])
    def test_matches_whole_array_lookup(self, sample_rate):
        # the one-shot chip lookup the blocked generator replaced
        cfg = desk_config(sample_rate=sample_rate, capture=0.1)
        count = int(round(cfg.capture * sample_rate))
        n = np.arange(count, dtype=np.float64)
        idx = np.floor(n * (cfg.alpha / sample_rate)).astype(np.int64) % PN9.length
        expect = generate_period(PN9).bipolar()[idx].astype(np.complex128)
        assert tx_baseband(cfg).samples.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("capture", [1e30, 1e300])
    def test_capture_beyond_physical_memory_rejected(self, capture):
        with pytest.raises(ConfigError, match="physical memory"):
            tx_baseband(desk_config(capture=capture))

    @pytest.mark.parametrize("sample_rate", [4e6, 4.3e6])
    def test_power_is_exactly_one(self, sample_rate):
        # the channel's noise level is relative to this power, never measured
        samples = tx_baseband(desk_config(sample_rate=sample_rate)).samples
        assert float(np.mean(np.abs(samples) ** 2)) == 1.0

    def test_integer_oversampling_matches_repeat(self):
        cfg = desk_config(capture=511e-6)  # exactly one period
        tx = tx_baseband(cfg)
        seq = generate_period(PN9, chip_rate=1e6)
        assert len(tx) == 511 * 4
        assert np.array_equal(tx.samples.real, np.repeat(seq.bipolar(), 4))

    def test_periodicity(self, desk):
        _, tx, _ = desk
        period = 511 * 4
        assert np.array_equal(tx.samples[:period], tx.samples[period : 2 * period])

    def test_period_duration_scales_with_code_length(self):
        # L/alpha: 2047 ns for the 11-stage code at 1 GHz, 31 ns for 5-stage
        cfg11 = SounderConfig(
            pn=default_config(11), alpha=1e9, beta=999.95e6, sample_rate=2e9,
            capture=2047e-9, mode=Mode.TX,
        )
        assert len(tx_baseband(cfg11)) == 4094
        cfg5 = SounderConfig(
            pn=default_config(5), alpha=1e9, beta=999.95e6, sample_rate=2e9,
            capture=31e-9, mode=Mode.TX,
        )
        assert len(tx_baseband(cfg5)) == 62

    def test_chip_duration_at_lower_rate(self):
        # 400 MHz chips sampled at 2 GS/s: 5 samples per 2.5 ns chip
        cfg = SounderConfig(
            pn=default_config(11), alpha=400e6, beta=399.98e6, sample_rate=2e9,
            capture=2047 * 2.5e-9, mode=Mode.TX,
        )
        tx = tx_baseband(cfg)
        blocks = tx.samples.reshape(-1, 5)
        assert (blocks == blocks[:, :1]).all()


class TestCodeSource:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        chips_per_sample=st.one_of(
            st.sampled_from([2.0**-k for k in range(1, 7)]),
            st.floats(0.0, 0.5, exclude_min=True),
            st.sampled_from([1 / 3, 1 / 5]),
        ),
        start=st.one_of(st.integers(0, 5000), st.integers(0, 2**40)),
        span=st.integers(1, 4096),
        total=st.integers(1, 10000),
    )
    def test_matches_per_sample_formula(
        self, size, seed, chips_per_sample, start, span, total
    ):
        # walks start..start+total in span-sized calls: totals shorter than
        # one period, longer than one call, and a partial last call
        table = np.random.default_rng(seed).choice([-1.0, 1.0], size)
        code = waveform_mod.code_source(
            table, chips_per_sample, 1.0, span, start + total
        )
        for s in range(start, start + total, span):
            count = min(span, start + total - s)
            expect = per_sample_code(table, s, count, chips_per_sample)
            assert code(s, count).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("shift", range(7))
    def test_power_of_two_ratio_slices_one_tiled_period(self, shift):
        table = generate_period(PN9).bipolar()
        period = 511 << shift
        span = period + 1000
        code = waveform_mod.code_source(table, 1.0, 2.0**shift, span, 4 * period + span)
        block = code(3 * period - 7, span)
        assert not block.flags.writeable  # a view of the tiled period
        assert block.base.size <= span + period - 1
        assert block.tobytes() == per_sample_code(
            table, 3 * period - 7, span, 2.0**-shift
        ).tobytes()

    @pytest.mark.parametrize("total_periods", [0.6, 3.4])
    def test_power_of_two_ratio_tiles_periods_beyond_the_block(self, total_periods):
        # 2**-6 with a 511-chip code repeats every 32704 samples, more than
        # a streaming block: still tiled, and the copy never outgrows the
        # capture
        table = generate_period(PN9).bipolar()
        period = 511 << 6
        span = waveform_mod.block_length()
        assert period > span
        total = int(total_periods * period)
        code = waveform_mod.code_source(table, 1.0, 2.0**6, span, total)
        for start in range(0, total, span):
            count = min(span, total - start)
            block = code(start, count)
            assert not block.flags.writeable
            assert block.base.size == min(total, span + period - 1)
            assert block.tobytes() == per_sample_code(
                table, start, count, 2.0**-6
            ).tobytes()

    @pytest.mark.parametrize("m", [3, 5, 49])
    def test_whole_framing_tiles_chip_n_floordiv_m(self, m):
        # at 49 samples per chip, floor(n * fl(1/49)) puts some chip edges
        # a sample late (49 * fl(1/49) < 1); the tiled copy takes n // m
        table = generate_period(PN9).bipolar()
        total = 3 * 511 * m + 100
        code = waveform_mod.code_source(table, 1.0, m, 5000, total)
        for start in range(0, total, 5000):
            count = min(5000, total - start)
            block = code(start, count)
            assert not block.flags.writeable
            n = np.arange(start, start + count)
            assert block.tobytes() == table[n // m % 511].tobytes()

    @pytest.mark.parametrize("m, size", [(2.0**1022, 1), (1 << 14, 511), (5000, 7)])
    def test_chips_longer_than_a_span_tile_span_samples_each(self, m, size):
        # a 2**40-sample capture: a tiled copy with m samples per chip would
        # be as long as the capture; runs of span samples keep it short
        table = generate_period(PN9).bipolar()[:size]
        span, total, whole = 4096, 1 << 40, int(m)
        code = waveform_mod.code_source(table, 1.0, m, span, total)
        edges = [whole * k for k in (1, 2, size, size + 1) if whole * k < total]
        starts = [0, total - span] + [e - d for e in edges for d in (1, 100, span)]
        for start in starts:
            block = code(start, span)
            assert not block.flags.writeable
            assert block.base.size <= span + size * span - 1
            n = np.arange(start, start + span, dtype=object)
            assert block.tobytes() == table[(n // whole % size).astype(int)].tobytes()

    @pytest.mark.parametrize("chips_per_sample", [0.995 / 4, 1e6 / 4.3e6])
    def test_other_ratios_use_the_formula(self, chips_per_sample):
        code = waveform_mod.code_source(
            generate_period(PN9).bipolar(), chips_per_sample, 1.0, 4000, 4000
        )
        assert code(0, 4000).flags.writeable


def rx_code(cfg, span):
    """The correlator's RX code source for cfg, as sliding_correlate builds it."""
    table = sounder_mod._bipolar_table(cfg.pn)
    code = waveform_mod.code_source(
        table, cfg.beta_effective, cfg.sample_rate, span, span
    )
    dilated = sounder_mod._dilated_samples(cfg)
    return code if dilated is None else sounder_mod._wrapped(code, dilated)


class TestRxCode:
    def test_origin_is_first_chip(self, desk):
        cfg, _, _ = desk
        seq = generate_period(PN9)
        assert rx_code(cfg, 1)(0, 1)[0] == seq.bipolar()[0]

    def test_period_wrap(self, desk):
        cfg, _, _ = desk
        samples_per_chip = cfg.sample_rate / cfg.beta_effective
        chips = np.arange(32) + 0.5  # mid-chip, away from edges
        centers = np.rint(chips * samples_per_chip).astype(np.int64)
        shifted = np.rint((chips + 511) * samples_per_chip).astype(np.int64)
        code = rx_code(cfg, shifted[-1] + 1)(0, shifted[-1] + 1)
        assert np.array_equal(code[centers], code[shifted])

    @pytest.mark.parametrize(
        "pn,alpha,beta,sample_rate",
        [
            (PN9, 1e6, 0.995e6, 4e6),  # the README desk
            (default_config(11), 1e6, 0.995e6, 4e6),  # desk-n11
            (default_config(6), 1e9, 999.95e6, 2e9),  # paper-gamma
            (default_config(7), 1e6, 0.995e6, 2e6),  # code-sweep
            (PN9, 2e6, 1e6, 4e6),  # 4 samples per RX chip: the tiled copy
        ],
    )
    def test_repeats_every_dilated_period(self, pn, alpha, beta, sample_rate):
        # at a whole gamma and fs/alpha the code at n is the code at
        # n mod Pd; on these configs that is the float formula's code too,
        # so their bytes did not change
        cfg = SounderConfig(pn=pn, alpha=alpha, beta=beta, sample_rate=sample_rate)
        dilated = sounder_mod._dilated_samples(cfg)
        assert dilated == round(cfg.dilated_period * sample_rate)
        total, span = 3 * dilated + 12345, 1 << 16
        code = rx_code(cfg, span)
        samples = np.concatenate(
            [code(s, min(span, total - s)) for s in range(0, total, span)]
        )
        words = samples.view(np.uint64)
        assert np.array_equal(words[dilated:], words[:-dilated])
        table = generate_period(pn).bipolar()
        formula = per_sample_code(table, 0, total, cfg.beta_effective / sample_rate)
        assert samples.tobytes() == formula.tobytes()

    def test_float_code_that_slips_is_read_modulo_the_dilated_period(self):
        # gamma 10 at 7 samples per TX chip: 9/70 chips per RX sample, and
        # fl(9/70) < 9/70, so the float formula reads chip 63 one sample
        # late at n = 490 = Pd, and again later; modulo Pd it cannot slip
        pn = PnConfig(stages=3, taps=(3, 2))
        cfg = SounderConfig(pn=pn, alpha=10e3, beta=9e3, sample_rate=70e3)
        assert sounder_mod._dilated_samples(cfg) == 490
        total = 3 * 490
        samples = rx_code(cfg, total)(0, total)
        table = generate_period(pn).bipolar()
        formula = per_sample_code(table, 0, total, 9e3 / 70e3)
        assert np.flatnonzero(samples != formula).tolist() == [770, 1260]
        n = np.arange(total)
        assert samples.tobytes() == table[(n % 490 * (9e3 / 70e3)).astype(int) % 7].tobytes()

    def test_one_code_period_slips_per_dilated_period(self, desk):
        cfg, _, _ = desk
        # sample chip counters a fraction of a chip past the realignment
        eps = 0.1 / cfg.alpha
        t = cfg.dilated_period + eps
        slipped = (
            int(np.floor(t * cfg.alpha)) - int(np.floor(t * cfg.beta))
            - (int(np.floor(eps * cfg.alpha)) - int(np.floor(eps * cfg.beta)))
        )
        assert slipped == cfg.pn.length


class TestSlidingCorrelate:
    def test_mode_enforced(self, desk):
        cfg, tx, _ = desk
        with pytest.raises(ConfigError):
            sliding_correlate(tx, cfg)

    def test_sample_rate_mismatch(self, desk):
        _, tx, rx_cfg = desk
        wrong = SampledWaveform(samples=tx.samples, sample_rate=5e6)
        with pytest.raises(SampleRateMismatch):
            sliding_correlate(wrong, rx_cfg)

    def test_capture_too_short(self, desk):
        _, tx, rx_cfg = desk
        short = SampledWaveform(samples=tx.samples[:100000], sample_rate=4e6)
        with pytest.raises(CaptureTooShort):
            sliding_correlate(short, rx_cfg)

    def test_windows_beyond_physical_memory_are_refused(self, monkeypatch):
        # decimation 1: memory for 100 B per sample holds the received array
        # and two code copies, not the window arrays beside them
        cfg = SounderConfig(pn=default_config(5), alpha=1e6, beta=0.9e6, mode=Mode.TX)
        received = tx_baseband(cfg)
        rx_cfg = dataclasses.replace(cfg, mode=Mode.RX)
        assert rx_cfg.decimation == 1
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": len(received) * 100}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ConfigError, match=f"^capture of {len(received)} samples needs"):
            sliding_correlate(received, rx_cfg)

    @pytest.mark.parametrize("pole", [
        0.0, 1e-9, 0.456, 0.999999,
        # the window-rate poles of the desk-n11 and paper-gamma benchmark runs
        window_pole(desk_config(pn=default_config(11))),
        window_pole(SounderConfig(pn=default_config(6), alpha=1e9, beta=999.95e6)),
    ])
    # 10007 and 171948 (desk-n11's windows) span many lanes and a remainder
    @pytest.mark.parametrize("length", [1, 7, 3000, 10007, 171948])
    def test_window_recursion_has_the_direct_form_filters_bits(self, pole, length):
        # plain, subnormal-bound and huge rows, and one of signed zeros
        rng = np.random.default_rng(length)
        rows = rng.standard_normal((4, length)) * np.array([[1.0], [1e-300], [1e300], [1.0]])
        rows[3, ::2] = 0.0
        rows[3, 1::4] = -0.0
        got = sounder_mod._one_pole(rows, pole)
        want = lfilter([1.0], [1.0, -pole], rows, axis=-1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("pole, rows", [
        # at a pole of 0 or 1e-300 a lane is one window long and its warm-up
        # state +0.0 where the exact state is -0.0; -0.0 + pole*(+0.0) is
        # +0.0, so a check by == would leave a wrong sign bit
        (pole, signed_zero_rows(10007)) for pole in (0.0, 1e-300)
    ] + [
        # a large value, then zeros: the exact state decays for about 1800
        # windows, while a lane's warm-up state stays 0 and never meets it
        (window_pole(desk_config(pn=default_config(11))), decaying_rows(10007)),
    ], ids=["signed-zeros-pole-0", "signed-zeros-pole-1e-300", "zeros-after-1e300"])
    def test_window_recursion_repairs_lanes_that_cannot_merge(self, pole, rows, float_walks):
        got = sounder_mod._one_pole(rows, pole)
        # one walk per row covers the windows after the last whole lane;
        # every further walk repaired a lane
        assert len(float_walks) > len(rows)
        want = lfilter([1.0], [1.0, -pole], rows, axis=-1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got.view(np.uint64), python_walk(rows, pole).view(np.uint64))

    def test_lanes_step_all_but_a_few_windows(self, float_walks):
        # desk-n11's rows and pole: the lanes settle, and Python floats step
        # the windows after the last whole lane and few repaired lanes
        pole = window_pole(desk_config(pn=default_config(11)))
        rows = np.random.default_rng(11).standard_normal((3, 171948))
        sounder_mod._one_pole(rows, pole)
        assert sum(float_walks) < 0.01 * rows.size

    @settings(max_examples=60, deadline=None)
    @given(
        pole=st.floats(0.0, 1.0, exclude_max=True),
        length=st.integers(1, 4000),
        exponents=st.lists(st.integers(-323, 250), min_size=3, max_size=3),
        zero_every=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_window_recursion_matches_a_python_float_walk(
        self, pole, length, exponents, zero_every, seed
    ):
        rows = np.random.default_rng(seed).standard_normal((3, length))
        rows *= 10.0 ** np.array(exponents, dtype=np.float64)[:, None]
        rows[:, ::zero_every] *= 0.0  # zeros that keep their sign
        got = sounder_mod._one_pole(rows, pole)
        assert np.array_equal(got.view(np.uint64), python_walk(rows, pole).view(np.uint64))

    def test_window_arrays_stay_within_their_charge(self):
        # decimation 1 and a noisy channel: each window the capture adds
        # raises the tracemalloc peak by no more than the refusal charges
        def peak(capture):
            cfg = SounderConfig(pn=PN9, alpha=1e6, beta=0.9e6, capture=capture, mode=Mode.TX)
            received = tx_baseband(cfg)
            noisy = ChannelModel(paths=(PathSpec(delay_ns=0.0),), snr_db=20.0, rng_seed=3)
            tracemalloc.start()
            try:
                sliding_correlate(received, dataclasses.replace(cfg, mode=Mode.RX), noisy)
                return tracemalloc.get_traced_memory()[1], len(received)
            finally:
                tracemalloc.stop()

        (small, fewer), (large, more) = peak(0.05), peak(0.1)
        assert more == 2 * fewer == 200000
        assert large - small <= (more - fewer) * sounder_mod._WINDOW_BYTES

    def test_block_size_does_not_change_results(self, desk, monkeypatch, slow_tilings):
        cfg, _, rx_cfg = desk
        short = dataclasses.replace(cfg, capture=900000 / 4e6)
        noisy = ChannelModel(
            paths=(PathSpec(delay_ns=0.0),
                   PathSpec(delay_ns=7000.0, gain_db=-6.0, phase_deg=57.0)),
            snr_db=20.0, rng_seed=4
        )

        def chain():
            sent = tx_baseband(short)
            received = apply_channel(sent, noisy)
            return sent, received, sliding_correlate(received, rx_cfg, noisy)

        full = chain()
        monkeypatch.setattr(waveform_mod, "BLOCK", 77777)
        chunked = chain()
        assert len(full[0]) == 900000  # not a multiple of either block
        # blocks must not start on whole TX code periods (511 chips x 4)
        for multiple in (1, rx_cfg.decimation):
            assert waveform_mod.block_length(multiple) % 2044
        for whole, blocked in zip(full[:2], chunked[:2]):
            assert whole.samples.tobytes() == blocked.samples.tobytes()
        assert np.array_equal(full[2].i_out, chunked[2].i_out)
        assert np.array_equal(full[2].q_out, chunked[2].q_out)
        assert np.array_equal(full[2].sync, chunked[2].sync)
        # both runs multiplied the head and one dilated period, then tiled:
        # the 7 us path arrives 28 samples in, so from window 1 on
        assert slow_tilings == [(1, 8176)] * 2

    def test_block_size_does_not_change_tiled_periods_beyond_the_block(
        self, monkeypatch, slow_tilings
    ):
        # 64 samples per chip: the TX code repeats every 511 << 6 = 32704
        # samples, longer than a default block and shorter than the other
        cfg = SounderConfig(pn=PN9, alpha=1e6, beta=0.9e6, sample_rate=64e6,
                            capture=1.05 * 511 * 10 / 1e6, mode=Mode.TX)
        rx_cfg = dataclasses.replace(cfg, mode=Mode.RX)
        channel = ChannelModel(paths=(
            PathSpec(delay_ns=0.0),
            PathSpec(delay_ns=3000.0, gain_db=-6.0, phase_deg=57.0),
        ))

        def chain():
            sent = tx_baseband(cfg)
            return sent, sliding_correlate(apply_channel(sent, channel), rx_cfg)

        sent, trace = chain()
        assert waveform_mod.block_length() < 32704
        monkeypatch.setattr(waveform_mod, "BLOCK", 77777)
        sent_77777, trace_77777 = chain()
        assert sent.samples.tobytes() == sent_77777.samples.tobytes()
        assert sent.samples.real.tobytes() == per_sample_code(
            generate_period(PN9).bipolar(), 0, len(sent), 2.0**-6
        ).tobytes()
        assert trace_rows(trace).tobytes() == trace_rows(trace_77777).tobytes()
        # gamma 10: Pd = 511 * 10 * 64 samples, 8176 windows of 40, tiled
        # from the first window past the 3 us path's 192 samples
        assert slow_tilings == [(5, 8176)] * 2

    @pytest.mark.parametrize(
        "cfg,dec",
        [
            # the paper's decimation, gamma 20000
            (SounderConfig(pn=default_config(5), alpha=1e9, beta=999.95e6), 2500),
            # no averaging at all: every filter output is a slow sample
            (SounderConfig(pn=PN9, alpha=1e6, beta=0.995e6, sample_rate=4e6,
                           lpf_cutoff=1e6), 1),
            # windows longer than einsum's 8192-element buffer
            (SounderConfig(pn=PnConfig(stages=3, taps=(3, 2)), alpha=1e9,
                           beta=999.98e6, lpf_cutoff=25e3), 10000),
        ],
    )
    def test_block_size_does_not_change_windows(self, cfg, dec, monkeypatch):
        assert cfg.decimation == dec
        received = random_capture(cfg)
        whole = sliding_correlate(received, cfg)
        default_block = waveform_mod.block_length(dec)
        monkeypatch.setattr(waveform_mod, "BLOCK", 77777)
        blocked = sliding_correlate(received, cfg)
        assert default_block % waveform_mod.block_length(dec)
        assert len(received) > 2 * waveform_mod.block_length(dec)  # several blocks
        assert len(whole) == len(blocked) == len(received) // dec
        assert trace_rows(whole).tobytes() == trace_rows(blocked).tobytes()

    @pytest.mark.parametrize(
        "cfg,dec",
        [
            (SounderConfig(pn=default_config(5), alpha=1e9, beta=999.95e6,
                           capture=1.7 * 31 * 20000 / 1e9), 2500),
            (SounderConfig(pn=PN9, alpha=1e6, beta=0.995e6, sample_rate=4e6,
                           lpf_cutoff=1e6, capture=0.15), 1),
            (SounderConfig(pn=PnConfig(stages=3, taps=(3, 2)), alpha=1e9,
                           beta=999.98e6, lpf_cutoff=25e3,
                           capture=1.7 * 7 * 50000 / 1e9), 10000),
        ],
    )
    def test_block_size_does_not_change_tiled_windows(
        self, cfg, dec, monkeypatch, slow_tilings
    ):
        # the same decimations as above, on received signals that repeat:
        # the loop stops one dilated period past the last path, whatever
        # the block, and the copies carry the full loop's bits
        received, rx_cfg = sounded(cfg)
        assert rx_cfg.decimation == dec
        whole = sliding_correlate(received, rx_cfg)
        monkeypatch.setattr(waveform_mod, "BLOCK", 77777)
        blocked = sliding_correlate(received, rx_cfg)
        assert len(slow_tilings) == 2 and slow_tilings[0] == slow_tilings[1]
        first, period = slow_tilings[0]
        assert (first + period) * dec > 2 * waveform_mod.block_length(dec)  # several blocks
        assert same_bits(whole, blocked)
        assert same_bits(whole, sliding_correlate(unstated(received), rx_cfg))

    @pytest.mark.parametrize(
        "lpf_cutoff,alpha,beta,sample_rate,pn,dec",
        [
            (1e6, 1e6, 0.995e6, 4e6, default_config(5), 1),  # pole 0.21
            (400e3, 1e6, 0.995e6, 4e6, default_config(5), 1),  # pole 0.53
            (200e3, 1e6, 0.995e6, 4e6, default_config(5), 2),
            (150e3, 1e6, 0.995e6, 4e6, default_config(5), 3),
            (None, 1e6, 0.995e6, 4e6, default_config(5), 50),  # pole 0.984
            (30e3, 1e6, 0.995e6, 4.3e6, PN9, 17),
            (None, 1e9, 999.95e6, 2e9, default_config(5), 2500),  # pole 0.99937
        ],
    )
    def test_window_closed_form_matches_full_rate_filter(
        self, lpf_cutoff, alpha, beta, sample_rate, pn, dec
    ):
        cfg = SounderConfig(pn=pn, alpha=alpha, beta=beta, sample_rate=sample_rate,
                            lpf_cutoff=lpf_cutoff)
        assert cfg.decimation == dec
        received = random_capture(cfg)
        assert len(received) % dec or dec == 1  # ends in a partial window
        new = trace_rows(sliding_correlate(received, cfg))
        old = full_rate_windows(received, cfg)
        assert new.shape == old.shape == (3, len(received) // dec)
        for new_row, old_row in zip(new, old):
            peak = np.abs(old_row).max()
            assert np.abs(new_row - old_row).max() <= 1e-12 * peak

    def test_window_closed_form_matches_long_double_recurrence(self):
        cfg = SounderConfig(pn=default_config(5), alpha=1e6, beta=0.99e6,
                            sample_rate=4e6)
        assert cfg.decimation == 25
        received = random_capture(cfg)
        new = trace_rows(sliding_correlate(received, cfg))
        exact = longdouble_windows(received, cfg)
        # float64 sums of dec terms per window: a few dec*eps of the peak
        bound = 4 * cfg.decimation * np.finfo(np.float64).eps
        for new_row, exact_row in zip(new, exact):
            peak = float(np.abs(exact_row).max())
            assert float(np.abs(new_row - exact_row).max()) <= bound * peak

    @pytest.mark.parametrize(
        "pn,alpha,beta,sample_rate",
        [
            (PN9, 1e6, 0.995e6, 4e6),
            (PN9, 1e6, 0.995e6, 4.3e6),
            (default_config(5), 1e9, 999.95e6, 2e9),  # gamma 20000
        ],
    )
    def test_matches_per_sample_lookup(self, monkeypatch, pn, alpha, beta, sample_rate):
        cfg = SounderConfig(pn=pn, alpha=alpha, beta=beta, sample_rate=sample_rate)
        count = int(1.1 * cfg.dilated_period * sample_rate)  # a partial last block
        rng = np.random.default_rng(5)
        received = SampledWaveform(
            samples=rng.standard_normal(count) + 1j * rng.standard_normal(count),
            sample_rate=sample_rate,
        )
        fast = sliding_correlate(received, cfg)
        monkeypatch.setattr(sounder_mod, "code_source", per_sample_source)
        reference = sliding_correlate(received, cfg)
        for name in ("i_out", "q_out", "sync"):
            assert getattr(fast, name).tobytes() == getattr(reference, name).tobytes()

    def test_sync_peaks_spaced_one_dilated_period(self, desk):
        trace, _ = run_channel(desk, identity_channel())
        peaks = np.array(find_sync_peaks(trace))
        expected = trace.config.dilated_period * trace.config.slow_rate
        assert peaks.size >= 4
        assert np.all(np.abs(np.diff(peaks) - expected) < 1.0)

    def test_identity_i_peak_aligns_with_sync(self, desk):
        trace, _ = run_channel(desk, identity_channel())
        cfg = trace.config
        peak = find_sync_peaks(trace)[0]
        seg = int(cfg.dilated_period * cfg.slow_rate)
        lo = max(0, peak - seg // 2)
        window_i = np.hypot(trace.i_out, trace.q_out)[lo : lo + seg]
        half_dilated_chip = 0.5 * cfg.gamma / cfg.alpha * cfg.slow_rate
        assert abs((lo + np.argmax(window_i)) - peak) <= half_dilated_chip

    def test_single_path_displaced_by_gamma_tau(self, desk):
        tau = 3e-6
        trace, _ = run_channel(desk, ChannelModel(paths=(PathSpec(delay_ns=3000.0),)))
        cfg = trace.config
        peak = find_sync_peaks(trace)[0]
        seg = int(cfg.dilated_period * cfg.slow_rate)
        env = np.hypot(trace.i_out, trace.q_out)[peak : peak + seg]
        displacement = np.argmax(env) / cfg.slow_rate
        tolerance = 0.5 * cfg.gamma / cfg.alpha  # half a dilated chip
        assert abs(displacement - cfg.gamma * tau) <= tolerance

    def test_bandwidth_compression(self):
        # the megahertz-wide input collapses to a trace confined near the
        # filter cutoff; run where the slip per filter time constant is small
        # (large gamma, short code) so the correlation peak dominates the
        # trace energy and a 99% occupancy measure is meaningful
        cfg = SounderConfig(
            pn=default_config(5), alpha=1e9, beta=999.95e6, sample_rate=2e9,
            capture=2.2 * 31 * 20000 / 1e9, mode=Mode.TX,
        )
        tx = tx_baseband(cfg)
        trace = sliding_correlate(
            apply_channel(tx, identity_channel()),
            dataclasses.replace(cfg, mode=Mode.RX),
        )
        slow = SampledWaveform(
            samples=trace.i_out.astype(complex), sample_rate=trace.config.slow_rate
        )
        ps = power_spectrum(slow)
        total = float(ps.power_linear.sum())
        order = np.argsort(np.abs(ps.freqs), kind="stable")
        cum = np.cumsum(ps.power_linear[order])
        occupied = 2.0 * float(
            np.abs(ps.freqs[order])[np.searchsorted(cum, 0.99 * total)]
        )
        assert occupied <= 2.0 * cfg.lpf_cutoff
        assert occupied < cfg.alpha / 1000.0  # versus the chip-rate-wide input


TWO_PATHS = ChannelModel(paths=(
    PathSpec(delay_ns=0.0),
    PathSpec(delay_ns=3000.0, gain_db=-6.0, phase_deg=57.0),
))


def sounded(cfg, channel=TWO_PATHS):
    """cfg's TX waveform through channel, and cfg as a receive config."""
    sent = tx_baseband(dataclasses.replace(cfg, mode=Mode.TX))
    return apply_channel(sent, channel), dataclasses.replace(cfg, mode=Mode.RX)


def unstated(w):
    """The same samples, stating no repeat: the correlator's full loop."""
    return dataclasses.replace(w, samples=w.samples)


class TestSlowTiling:
    """sliding_correlate copies the window sums after one repeat of them,
    lcm(Pd, P, d) / d windows, exactly when every product is known to
    repeat, and only then."""

    @pytest.mark.parametrize(
        "cfg,channel",
        [
            (desk_config(capture=0.25), dataclasses.replace(TWO_PATHS, snr_db=20.0)),
            # gamma 20000, decimation 2500, six phased paths
            (SounderConfig(pn=default_config(6), alpha=1e9, beta=999.95e6,
                           capture=2.3 * 63 * 20000 / 1e9),
             ChannelModel(paths=tuple(
                 PathSpec(delay_ns=d, gain_db=-2.5 * i, phase_deg=41.0 * i)
                 for i, d in enumerate((0.0, 5.0, 11.0, 18.0, 26.0, 33.0))))),
            # fs / beta = 4: the RX code is a tiled copy, Pd = 2044 windows
            (SounderConfig(pn=PN9, alpha=2e6, beta=1e6, sample_rate=4e6,
                           capture=3.3 * 511 * 2 / 2e6), TWO_PATHS),
        ],
        ids=["desk-noisy", "paper-gamma", "whole-rx-framing"],
    )
    def test_tiles_one_dilated_period_past_the_last_path(self, slow_tilings, cfg, channel):
        received, rx_cfg = sounded(cfg, channel)
        dec = rx_cfg.decimation
        dilated = sounder_mod._dilated_samples(rx_cfg)
        first = -(-received.repeats[0] // dec)
        tiled = sliding_correlate(received, rx_cfg, channel)
        assert slow_tilings == [(first, dilated // dec)]
        assert same_bits(tiled, sliding_correlate(unstated(received), rx_cfg, channel))
        assert len(slow_tilings) == 1

    def test_tx_code_itself_tiles_from_window_zero(self, slow_tilings):
        cfg = desk_config(capture=0.25)
        sent = tx_baseband(cfg)
        rx_cfg = dataclasses.replace(cfg, mode=Mode.RX)
        assert sent.repeats == (0, 2044)
        tiled = sliding_correlate(sent, rx_cfg)
        assert slow_tilings == [(0, 8176)]
        assert same_bits(tiled, sliding_correlate(unstated(sent), rx_cfg))

    def test_rx_clock_error_takes_the_full_loop(self, slow_tilings):
        received, rx_cfg = sounded(desk_config(capture=0.25, beta_ppm_error=10.0))
        assert received.repeats is not None
        assert sounder_mod._dilated_samples(rx_cfg) is None
        sliding_correlate(received, rx_cfg)
        assert slow_tilings == []

    @pytest.mark.parametrize("fractional", ["gamma", "fs-over-alpha"])
    def test_fractional_gamma_or_framing_takes_the_full_loop(self, slow_tilings, fractional):
        # Pd = L * gamma * fs / alpha is whole whenever gamma and fs / alpha
        # are, so these two cases are the ones a fractional Pd can come from
        if fractional == "gamma":
            received, rx_cfg = sounded(desk_config(beta=0.993e6, capture=0.3))
            assert not rx_cfg.gamma.is_integer()
        else:
            # 4.3 MHz: a received signal framed at one sample per chip of a
            # 4.3 Mcps code, repeating every 511 samples, against 1 Mcps
            rx_cfg = desk_config(sample_rate=4.3e6, mode=Mode.RX)
            seq = generate_period(PN9, chip_rate=4.3e6)
            received = chips_to_waveform(seq, 1, periods=1000)
            assert received.repeats == (0, 511) and rx_cfg.gamma == 200.0
        assert sounder_mod._dilated_samples(rx_cfg) is None
        sliding_correlate(received, rx_cfg)
        assert slow_tilings == []

    def test_window_repeat_longer_than_the_capture_takes_the_full_loop(self, slow_tilings):
        # d = 3: lcm(408800, 3) / 3 = 408800 windows, past the 333333 captured
        received, rx_cfg = sounded(desk_config(lpf_cutoff=4e6 / 24, capture=0.25))
        assert rx_cfg.decimation == 3 and 408800 % 3
        assert sounder_mod._dilated_samples(rx_cfg) == 408800
        sliding_correlate(received, rx_cfg)
        assert slow_tilings == []

    def test_product_repeat_longer_than_the_capture_takes_the_full_loop(self, slow_tilings):
        # a 127-chip code at 4 samples per chip repeats every 508 samples;
        # the products repeat every lcm(408800, 508) = 51917600 samples,
        # past the 457200 captured
        rx_cfg = desk_config(mode=Mode.RX)
        seq = generate_period(default_config(7), chip_rate=1e6)
        received = chips_to_waveform(seq, 4, periods=900)
        assert received.repeats == (0, 508) and 408800 % 508
        sliding_correlate(received, rx_cfg)
        assert slow_tilings == []

    def test_decimation_not_dividing_the_dilated_period_tiles_their_lcm(self, slow_tilings):
        # d = 48 does not divide Pd = 408800 samples: the window sums repeat
        # every lcm(408800, 48) / 48 = 25550 windows from window ceil(12 / 48)
        received, rx_cfg = sounded(desk_config(lpf_cutoff=10.4e3, capture=0.32))
        assert rx_cfg.decimation == 48 and 408800 % 48
        assert received.repeats == (12, 2044)
        tiled = sliding_correlate(received, rx_cfg)
        assert slow_tilings == [(1, 25550)]
        assert same_bits(tiled, sliding_correlate(unstated(received), rx_cfg))

    def test_period_not_dividing_the_dilated_period_tiles_their_lcm(self, slow_tilings):
        # a 3-chip code at 4 samples per chip repeats every 12 samples, which
        # does not divide Pd = 408800: the window sums repeat every
        # lcm(408800, 12, 50) / 50 = 24528 windows
        rx_cfg = desk_config(mode=Mode.RX)
        seq = generate_period(PnConfig(stages=2, taps=(2, 1)), chip_rate=1e6)
        received = chips_to_waveform(seq, 4, periods=110000)
        assert received.repeats == (0, 12) and 408800 % 12
        tiled = sliding_correlate(received, rx_cfg)
        assert slow_tilings == [(0, 24528)]
        assert same_bits(tiled, sliding_correlate(unstated(received), rx_cfg))

    @pytest.mark.parametrize("source", ["jittered", "unframed", "replaced"])
    def test_input_stating_no_repeat_takes_the_full_loop(self, slow_tilings, source):
        if source == "unframed":
            received, rx_cfg = sounded(desk_config(sample_rate=4.3e6, capture=0.25))
        else:
            received, rx_cfg = sounded(desk_config(capture=0.25))
            if source == "jittered":
                received = inject_jitter(tx_baseband(desk_config(capture=0.25)),
                                         0.1e-6, rng_seed=3)
            else:
                received = unstated(received)
        assert received.repeats is None
        sliding_correlate(received, rx_cfg)
        assert slow_tilings == []

    def test_capture_shorter_than_head_plus_one_period_takes_the_full_loop(
        self, slow_tilings
    ):
        # the 3 us path arrives 12 samples in, so window 1 is the first that
        # repeats; 8176 windows cover one dilated period, and the head plus
        # one period is 8177 windows: a capture of 8176 or 8177 windows has
        # no window to copy
        for windows in (8176, 8177):
            short, rx_cfg = sounded(desk_config(capture=(windows * 50 + 40) / 4e6))
            assert len(short) // 50 == windows and short.repeats == (12, 2044)
            sliding_correlate(short, rx_cfg)
            assert slow_tilings == []
        # one window more and the last window is a copy
        longer, _ = sounded(desk_config(capture=(8178 * 50 + 40) / 4e6))
        tiled = sliding_correlate(longer, rx_cfg)
        assert slow_tilings == [(1, 8176)]
        assert same_bits(tiled, sliding_correlate(unstated(longer), rx_cfg))

    @settings(max_examples=40, deadline=None)
    @given(
        pn=st.sampled_from([PnConfig(stages=3, taps=(3, 2)), default_config(5)]),
        gamma=st.integers(2, 40),
        m=st.integers(2, 5),
        dec=st.integers(1, 12),
        periods=st.floats(1.05, 3.5),
        shifts=st.lists(st.integers(0, 300), min_size=1, max_size=3),
        snr_db=st.one_of(st.none(), st.floats(0.0, 40.0)),
        block=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_configs_tile_to_the_full_loop_bytes(
        self, pn, gamma, m, dec, periods, shifts, snr_db, block, seed
    ):
        # alpha - beta = 1 kHz exactly, so gamma is exactly the whole number;
        # the cutoff puts fs / (8 * lpf) half-way between dec and dec + 1,
        # or below 1 where that cutoff would not pass the 1 kHz envelope
        alpha = gamma * 1e3
        dilated = pn.length * gamma * m
        lpf_cutoff = m * alpha / (8 * dec + 4)
        if lpf_cutoff <= 1e3:
            dec, lpf_cutoff = 1, m * alpha / 2
        cfg = SounderConfig(pn=pn, alpha=alpha, beta=alpha - 1e3, sample_rate=m * alpha,
                            lpf_cutoff=lpf_cutoff, capture=periods * dilated / (m * alpha))
        assert cfg.decimation == dec
        rng = np.random.default_rng(seed)
        sample_ns = 1e9 / cfg.sample_rate
        shifts = [k % round(cfg.capture * cfg.sample_rate) for k in shifts]
        channel = ChannelModel(
            paths=tuple(PathSpec(delay_ns=k * sample_ns, gain_db=float(rng.uniform(-20, 0)),
                                 phase_deg=float(rng.uniform(0, 360))) for k in shifts),
            snr_db=snr_db, rng_seed=int(rng.integers(0, 2**31)),
        )
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_on_tilings(patch)
            patch.setattr(waveform_mod, "BLOCK", block)
            received, rx_cfg = sounded(cfg, channel)
            tiled = sliding_correlate(received, rx_cfg, channel)
            full = sliding_correlate(unstated(received), rx_cfg, channel)
        first, repeat = -(-max(shifts) // dec), math.lcm(dilated, dec) // dec
        windows = len(received) // dec
        assert calls == ([(first, repeat)] if first + repeat < windows else [])
        assert same_bits(tiled, full)


def lag_correlation(x, lag):
    x = x - x.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


def receiver_noise(snr_db, seed):
    """A one-path 0 dB channel: its noise, drawn by the correlator, is all it adds."""
    return ChannelModel(paths=(PathSpec(delay_ns=0.0),), snr_db=snr_db, rng_seed=seed)


class TestWindowRateNoise:
    """sliding_correlate's channel: receiver noise drawn per decimation window."""

    @pytest.mark.parametrize(
        "omega,dec",
        [
            (2 * math.pi * 1e6 / 4e6, 1),
            (2 * math.pi * 200e3 / 4e6, 2),
            (2 * math.pi * 10e3 / 4e6, 50),  # the README desk
            (2 * math.pi * 100e3 / 2e9, 2500),  # the paper's gamma 20000
        ],
    )
    def test_covariance_matches_long_double_sum(self, omega, dec):
        weights, _, _ = sounder_mod._window_weights(omega, dec)
        factor = sounder_mod._window_noise_factor(weights)
        pole = np.exp(-np.longdouble(omega))
        k = np.arange(dec).astype(np.longdouble)
        exact = np.stack([(1 - pole ** (dec - k)) / dec,
                          (1 - pole) * pole ** (dec - 1 - k)])
        cov = exact @ exact.T
        assert factor[0, 1] == 0.0 and np.isfinite(factor).all()
        # float64 weights and a sum of dec products: a few dec*eps of the largest
        bound = 4 * dec * np.finfo(np.float64).eps * float(np.abs(cov).max())
        assert np.abs(factor @ factor.T - cov).max() <= bound

    def test_matches_per_sample_noise_in_distribution(self, desk):
        # the README desk at 10 dB SNR; the trace noise is the noisy trace
        # less the clean one, the correlator being linear
        _, tx, rx_cfg = desk
        paths = (PathSpec(delay_ns=0.0), PathSpec(delay_ns=3000.0, gain_db=-6.0))
        noisy = ChannelModel(paths=paths, snr_db=10.0, rng_seed=7)
        received = apply_channel(tx, noisy)
        clean = trace_rows(sliding_correlate(received, rx_cfg))[:2]
        per_sample_input = SampledWaveform(samples=reference_apply_channel(tx, noisy),
                                           sample_rate=tx.sample_rate)
        per_sample = trace_rows(sliding_correlate(per_sample_input, rx_cfg))[:2]
        per_window = trace_rows(sliding_correlate(received, rx_cfg, noisy))[:2]
        assert per_window.shape[1] > 40000
        stats = []
        for trace in (per_sample, per_window):
            noise = trace - clean
            stats.append([float(noise.std())]
                         + [np.mean([lag_correlation(row, lag) for row in noise])
                            for lag in (1, 3)])
        (std_s, lag1_s, lag3_s), (std_w, lag1_w, lag3_w) = stats
        assert std_w == pytest.approx(std_s, rel=0.03)
        assert lag1_w == pytest.approx(lag1_s, abs=0.03)
        assert lag3_w == pytest.approx(lag3_s, abs=0.03)
        assert lag1_s > 0.5 and lag3_s > 0.05  # the low-pass colours the noise

    def test_noise_leaves_the_sync_row_alone(self, desk):
        _, tx, rx_cfg = desk
        clean = sliding_correlate(tx, rx_cfg)
        noisy = sliding_correlate(tx, rx_cfg, receiver_noise(7.0, 5))
        assert noisy.sync.tobytes() == clean.sync.tobytes()
        assert not np.array_equal(noisy.i_out, clean.i_out)
        assert not np.array_equal(noisy.q_out, clean.q_out)

    @pytest.mark.parametrize("dec", [1, 50])
    def test_block_size_and_reruns_do_not_change_noise(self, dec, monkeypatch):
        cfg = desk_config(mode=Mode.RX, lpf_cutoff=1e6 if dec == 1 else None)
        assert cfg.decimation == dec
        received = random_capture(cfg)
        noise = receiver_noise(0.0, 12)
        first = trace_rows(sliding_correlate(received, cfg, noise)).tobytes()
        assert trace_rows(sliding_correlate(received, cfg, noise)).tobytes() == first
        monkeypatch.setattr(waveform_mod, "BLOCK", 77777)
        assert len(received) > 2 * waveform_mod.block_length(dec)  # several blocks
        assert trace_rows(sliding_correlate(received, cfg, noise)).tobytes() == first
        other = trace_rows(sliding_correlate(received, cfg,
                                             dataclasses.replace(noise, rng_seed=13)))
        assert other.tobytes() != first

    def test_noiseless_channel_adds_nothing(self, desk):
        # the correlator takes only the channel's noise; its paths are
        # apply_channel's
        _, tx, rx_cfg = desk
        clean = trace_rows(sliding_correlate(tx, rx_cfg)).tobytes()
        quiet = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                    PathSpec(delay_ns=3000.0, gain_db=-6.0)))
        assert trace_rows(sliding_correlate(tx, rx_cfg, quiet)).tobytes() == clean

    def test_decimation_one_stays_finite(self):
        # both weight rows are equal, so W Wᵀ is singular; no NaN may appear
        cfg = desk_config(mode=Mode.RX, lpf_cutoff=1e6)
        assert cfg.decimation == 1
        weights, _, _ = sounder_mod._window_weights(
            2 * math.pi * cfg.lpf_cutoff / cfg.sample_rate, 1
        )
        assert sounder_mod._window_noise_factor(weights)[1, 1] == 0.0
        trace = sliding_correlate(random_capture(cfg), cfg, receiver_noise(-3.0, 3))
        assert np.isfinite(trace_rows(trace)).all()


class TestExtractPdp:
    def test_identity_single_path_at_zero(self, desk):
        _, prof = run_channel(desk, identity_channel())
        assert int(np.argmax(prof.power_db)) == 0
        assert prof.power_db[0] == 0.0
        assert prof.averaged_over == 4
        assert prof.delays[0] == 0.0
        assert prof.delays[-1] < 511 * CHIP

    def test_two_path_powers(self, desk):
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                 PathSpec(delay_ns=7000.0, gain_db=-6.0, phase_deg=90.0)))
        _, prof = run_channel(desk, ch)
        top_two = sorted(np.argsort(prof.power_db)[-2:])
        assert top_two == [0, 7]
        assert prof.power_db[7] == pytest.approx(-6.0, abs=1.0)

    def test_matches_oracle(self, desk):
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                 PathSpec(delay_ns=7000.0, gain_db=-6.0, phase_deg=90.0)))
        _, prof = run_channel(desk, ch)
        oracle = fast_pdp_oracle(generate_period(PN9, chip_rate=1e6), ch)
        assert np.argmax(prof.power_linear) == np.argmax(oracle.power_linear)
        rms = float(np.sqrt(np.mean((prof.power_linear - oracle.power_linear) ** 2)))
        assert rms < 0.05

    def test_phase_rotation_invariance(self, desk):
        _, tx, rx_cfg = desk
        ch = ChannelModel(paths=(PathSpec(delay_ns=3000.0),))
        received = apply_channel(tx, ch)
        rotated = SampledWaveform(
            samples=received.samples * np.exp(1j * 1.1),
            sample_rate=received.sample_rate,
        )
        base = extract_pdp(sliding_correlate(received, rx_cfg), 4)
        spun = extract_pdp(sliding_correlate(rotated, rx_cfg), 4)
        assert np.allclose(spun.power_linear, base.power_linear, atol=1e-9)

    def test_non_finite_received_sample_refused(self, desk):
        _, tx, rx_cfg = desk
        samples = tx.samples.copy()
        samples[1000] = np.nan
        broken = dataclasses.replace(tx, samples=samples)
        with pytest.raises(ConfigError, match="non-finite"):
            sliding_correlate(broken, rx_cfg)

    @pytest.mark.parametrize("field", ["i_out", "q_out", "sync"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_trace_refuses_non_finite_values(self, field, value):
        rows = {name: np.zeros(8) for name in ("i_out", "q_out", "sync")}
        rows[field][3] = value
        with pytest.raises(ConfigError, match=field):
            PdpTrace(**rows, config=desk_config(mode=Mode.RX))

    def test_profile_power_beyond_float64_refused(self, desk):
        trace, _ = run_channel(desk, identity_channel())
        loud = dataclasses.replace(trace, i_out=trace.i_out * 1e160)
        with pytest.raises(ConfigError, match="overflows"):
            extract_pdp(loud, 4)

    def test_insufficient_periods_rejected(self, desk):
        trace, _ = run_channel(desk, identity_channel())
        with pytest.raises(CaptureTooShort):
            extract_pdp(trace, periods_to_average=40)

    def test_no_sync_peak_on_flat_trace(self):
        cfg = desk_config(mode=Mode.RX)  # 8176 slow samples per dilated period
        flat = PdpTrace(
            i_out=np.ones(20000), q_out=np.zeros(20000), sync=np.ones(20000),
            config=cfg,
        )
        with pytest.raises(NoSyncPeak):
            extract_pdp(flat, 1)

    def test_averaging_reduces_noise_deviation(self, desk):
        cfg, _, _ = desk
        long_cfg = desk_config(capture=9.4 * cfg.dilated_period)
        tx = tx_baseband(long_cfg)
        rx_cfg = dataclasses.replace(long_cfg, mode=Mode.RX)
        clean = extract_pdp(
            sliding_correlate(apply_channel(tx, identity_channel()), rx_cfg), 8
        )
        noisy_ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),), snr_db=20.0, rng_seed=11)
        trace = sliding_correlate(apply_channel(tx, noisy_ch), rx_cfg, noisy_ch)
        deviations = []
        for periods in (1, 2, 4, 8):
            prof = extract_pdp(trace, periods)
            off = np.delete(prof.power_linear, 0)
            off_clean = np.delete(clean.power_linear, 0)
            deviations.append(float(np.var(off - off_clean)))
        assert deviations[0] > deviations[1] > deviations[2] > deviations[3]

    def test_time_scale_invariance(self):
        profiles = []
        for scale in (1.0, 1000.0):
            cfg = SounderConfig(
                pn=PN9, alpha=1e6 * scale, beta=0.995e6 * scale,
                sample_rate=4e6 * scale, mode=Mode.TX,
            )
            tx = tx_baseband(cfg)
            ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                     PathSpec(delay_ns=7000.0 / scale, gain_db=-6.0,
                                              phase_deg=40.0)))
            trace = sliding_correlate(
                apply_channel(tx, ch), dataclasses.replace(cfg, mode=Mode.RX)
            )
            profiles.append(extract_pdp(trace, 4))
        a, b = profiles
        assert np.argmax(a.power_linear) == np.argmax(b.power_linear)
        assert np.allclose(a.power_linear, b.power_linear, rtol=1e-9, atol=0)


class TestOracle:
    def test_identity_delta_with_exact_pedestal(self):
        seq = generate_period(PN9, chip_rate=1e6)
        prof = fast_pdp_oracle(seq, identity_channel())
        assert prof.power_db[0] == 0.0
        off = prof.power_db[1:]
        assert np.allclose(off, -20 * np.log10(511), atol=1e-6)

    def test_single_path_shift(self):
        seq = generate_period(PN9, chip_rate=1e6)
        prof = fast_pdp_oracle(seq, ChannelModel(paths=(PathSpec(delay_ns=5000.0),)))
        assert int(np.argmax(prof.power_db)) == 5

    def test_two_equal_paths(self):
        seq = generate_period(PN9, chip_rate=1e6)
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                 PathSpec(delay_ns=7000.0, phase_deg=90.0)))
        prof = fast_pdp_oracle(seq, ch)
        assert prof.power_db[0] == pytest.approx(prof.power_db[7], abs=1e-9)
        assert max(prof.power_db[0], prof.power_db[7]) == 0.0

    def test_rejects_noisy_channel(self):
        seq = generate_period(PN9, chip_rate=1e6)
        with pytest.raises(ConfigError):
            fast_pdp_oracle(seq, ChannelModel(paths=(PathSpec(delay_ns=0.0),), snr_db=20.0))


class TestPdpProfile:
    def test_grid_and_db_derive_from_linear_power(self):
        power = np.array([1.0, 0.5, 0.0, 0.25, 1e-40, 0.125, 0.1, 0.2])
        prof = PdpProfile(power_linear=power, alpha=1e9, bins_per_chip=4, averaged_over=2)
        assert np.array_equal(prof.delays, np.arange(8) / 4e9)
        assert np.array_equal(prof.power_db, ratio_to_db(power))
        assert prof.delays is prof.delays and prof.power_db is prof.power_db
        assert prof.code_length == 2
        for name in ("power_linear", "delays", "power_db"):
            with pytest.raises(ValueError):
                getattr(prof, name)[0] = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prof, name, power)

    @pytest.mark.parametrize(
        "field,value",
        [("power_linear", np.ones((2, 2))), ("power_linear", None),
         ("alpha", 0.0), ("alpha", math.nan), ("alpha", math.inf),
         ("bins_per_chip", 0), ("averaged_over", 0)],
    )
    def test_malformed_grid_rejected(self, field, value):
        fields = dict(power_linear=np.ones(4), alpha=1e6, bins_per_chip=1, averaged_over=1)
        fields[field] = value
        with pytest.raises(ConfigError):
            PdpProfile(**fields)


class TestCompactInput:
    """sliding_correlate reads a compact received signal block by block
    (received.source) and never builds its samples; the trace has the bits
    of the same samples built whole, on the tiled route and the full loop."""

    @settings(max_examples=30, deadline=None)
    @given(
        pn=st.sampled_from([PnConfig(stages=3, taps=(3, 2)), default_config(5)]),
        gamma=st.integers(2, 30),
        m=st.integers(2, 4),
        dec=st.integers(1, 9),
        periods=st.floats(1.05, 3.0),
        ppm=st.sampled_from([0.0, 10.0, -250.0]),
        shifts=st.lists(st.integers(0, 300), min_size=1, max_size=3),
        snr_db=st.one_of(st.none(), st.floats(0.0, 40.0)),
        block=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_compact_and_built_inputs_give_the_same_bits(
        self, pn, gamma, m, dec, periods, ppm, shifts, snr_db, block, seed
    ):
        # as in test_random_configs_tile_to_the_full_loop_bytes, with an RX
        # clock error that sends both inputs through the full loop
        alpha = gamma * 1e3
        lpf_cutoff = m * alpha / (8 * dec + 4)
        if lpf_cutoff <= 1e3:
            dec, lpf_cutoff = 1, m * alpha / 2
        cfg = SounderConfig(pn=pn, alpha=alpha, beta=alpha - 1e3, sample_rate=m * alpha,
                            lpf_cutoff=lpf_cutoff, beta_ppm_error=ppm,
                            capture=periods * pn.length * gamma / alpha)
        rng = np.random.default_rng(seed)
        sample_ns = 1e9 / cfg.sample_rate
        # every path arrives at least one TX period before the end, so the
        # received signal states its repeat and stores only head and period
        last_shift = round(cfg.capture * cfg.sample_rate) - pn.length * m
        shifts = [k % (last_shift + 1) for k in shifts]
        channel = ChannelModel(
            paths=tuple(PathSpec(delay_ns=k * sample_ns, gain_db=float(rng.uniform(-20, 0)),
                                 phase_deg=float(rng.uniform(0, 360))) for k in shifts),
            snr_db=snr_db, rng_seed=int(rng.integers(0, 2**31)),
        )
        received, rx_cfg = sounded(cfg, channel)
        assert received.repeats == (max(shifts), pn.length * m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(waveform_mod, "BLOCK", block)
            compact = sliding_correlate(received, rx_cfg, channel)
        assert "samples" not in vars(received)
        built = sliding_correlate(unstated(received), rx_cfg, channel)
        assert same_bits(compact, built)
