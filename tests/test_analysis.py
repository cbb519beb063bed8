"""Tests for path extraction, merge and flag rules, figures of merit, and
delay spread.

Synthetic profiles exercise the peak-picking rules bin by bin; the cyclic
frequency-domain correlator provides exact profiles for recovery tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sounder_sim.analysis import (
    PathEstimate,
    extract_paths,
    instrument_metrics,
    rms_delay_spread,
)
from sounder_sim.channel import ChannelModel, PathSpec, identity_channel
from sounder_sim.errors import ConfigError, EmptyProfile
from sounder_sim.pn import default_config, generate_period
from sounder_sim.sounder import PdpProfile, SounderConfig, fast_pdp_oracle
from sounder_sim.waveform import plateau_peaks


def synthetic_profile(power_db, bins_per_chip=4, alpha=1e6):
    return PdpProfile(
        power_linear=10.0 ** (np.asarray(power_db, dtype=np.float64) / 10.0),
        alpha=alpha,
        bins_per_chip=bins_per_chip,
        averaged_over=1,
    )


class TestPathEstimate:
    def test_positive_power_rejected(self):
        with pytest.raises(ConfigError):
            PathEstimate(delay=0.0, power_db=0.1)

    def test_defaults(self):
        p = PathEstimate(delay=1e-9, power_db=-3.0)
        assert p.is_sidelobe_suspect is False


class TestCyclicMaxima:
    def test_single_peak(self):
        assert plateau_peaks(np.array([0.0, 5.0, 1.0, 0.0]), cyclic=True) == [1]

    def test_plateau_counts_once_at_center(self):
        v = np.array([0.0, 3.0, 3.0, 3.0, 1.0, 0.0])
        assert plateau_peaks(v, cyclic=True) == [2]

    def test_plateau_wrapping_the_boundary(self):
        v = np.array([4.0, 1.0, 0.0, 0.0, 1.0, 4.0, 4.0])
        # single plateau spanning indices 5, 6, 0: center is index 6
        assert plateau_peaks(v, cyclic=True) == [6]

    def test_equal_peaks_with_valleys_both_count(self):
        v = np.array([5.0, 0.0, 5.0, 0.0])
        assert plateau_peaks(v, cyclic=True) == [0, 2]

    def test_constant_has_no_structure(self):
        assert plateau_peaks(np.full(8, 2.0), cyclic=True) == []

    def test_plateau_with_one_higher_flank_is_not_a_maximum(self):
        v = np.array([9.0, 3.0, 3.0, 0.0])
        assert plateau_peaks(v, cyclic=True) == [0]


class TestExtractPaths:
    def test_single_path(self):
        seq = generate_period(default_config(9), chip_rate=1e6)
        paths = extract_paths(fast_pdp_oracle(seq, identity_channel()), floor_db=-40.0)
        assert len(paths) == 1
        assert paths[0].delay == 0.0
        assert paths[0].power_db == 0.0
        assert paths[0].is_sidelobe_suspect is False

    def test_two_paths_well_separated(self):
        seq = generate_period(default_config(9), chip_rate=1e6)
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                 PathSpec(delay_ns=7000.0, gain_db=-6.0, phase_deg=90.0)))
        paths = extract_paths(fast_pdp_oracle(seq, ch), floor_db=-20.0)
        assert [round(p.delay * 1e6) for p in paths] == [0, 7]
        assert paths[1].power_db == pytest.approx(-6.0, abs=0.1)
        assert not any(p.is_sidelobe_suspect for p in paths)

    def test_shallow_subchip_twin_merges(self):
        # two maxima half a chip apart with a 0.5 dB dip: one broadened lobe
        power = np.full(32, -40.0)
        power[[0, 1, 2]] = [0.0, -0.9, -0.4]
        paths = extract_paths(synthetic_profile(power), floor_db=-10.0)
        assert len(paths) == 1
        assert paths[0].delay == 0.0
        assert paths[0].is_sidelobe_suspect is False

    def test_deep_subchip_twin_kept_but_flagged(self):
        power = np.full(32, -40.0)
        power[[0, 1, 2]] = [0.0, -3.0, -0.4]
        paths = extract_paths(synthetic_profile(power), floor_db=-10.0)
        assert [p.delay for p in paths] == [0.0, 2 / 4e6]
        assert [p.is_sidelobe_suspect for p in paths] == [False, True]

    def test_exactly_one_chip_apart_stays_two_clean_paths(self):
        power = np.full(32, -40.0)
        power[0] = 0.0
        power[4] = -0.5
        paths = extract_paths(synthetic_profile(power), floor_db=-10.0)
        assert [p.delay for p in paths] == [0.0, 4 / 4e6]
        assert not any(p.is_sidelobe_suspect for p in paths)

    @pytest.mark.parametrize(
        "shape", [[0.0, -0.6, -0.7, -0.6, -0.5], [0.0, -9.0, -9.0, -9.0, -0.5]]
    )
    def test_one_chip_apart_resolves_at_every_offset(self, shape):
        # a shallow and a deep valley between maxima bins_per_chip bins apart:
        # on a 1 Gcps grid of quarter-chip bins the float delays of the pair
        # differ from 1 ns by rounding, which must not decide the outcome
        base = np.full(124, -40.0)
        base[: len(shape)] = shape
        for offset in range(base.size):
            power = np.roll(base, offset)
            paths = extract_paths(synthetic_profile(power, alpha=1e9), floor_db=-10.0)
            assert len(paths) == 2, offset
            assert not any(p.is_sidelobe_suspect for p in paths), offset

    def test_merge_works_across_the_cyclic_boundary(self):
        power = np.full(32, -40.0)
        power[0] = 0.0
        power[30] = -0.3  # half a chip before zero delay, cyclically
        power[31] = -0.6
        paths = extract_paths(synthetic_profile(power), floor_db=-10.0)
        assert len(paths) == 1
        assert paths[0].delay == 0.0

    def test_pedestal_suspects_flagged(self):
        # at chip resolution the code leaves an off-peak pedestal; with the
        # floor opened far below it, everything but the true path is suspect
        seq = generate_period(default_config(11), chip_rate=1e9)
        paths = extract_paths(fast_pdp_oracle(seq, identity_channel()), floor_db=-80.0)
        clean = [p for p in paths if not p.is_sidelobe_suspect]
        suspects = [p for p in paths if p.is_sidelobe_suspect]
        assert len(clean) == 1
        assert clean[0].delay == 0.0
        pedestal = -20.0 * math.log10(2047)
        assert all(abs(p.power_db - pedestal) < 0.1 for p in suspects)

    def test_everything_below_floor_yields_no_paths(self):
        power = np.full(16, -50.0)
        assert extract_paths(synthetic_profile(power), floor_db=-40.0) == []

    def test_nonnegative_floor_rejected(self):
        prof = synthetic_profile(np.full(8, -10.0))
        with pytest.raises(ConfigError):
            extract_paths(prof, floor_db=0.0)

    def test_empty_profile_rejected(self):
        prof = PdpProfile(
            power_linear=np.array([]), alpha=1e6, bins_per_chip=1, averaged_over=1
        )
        with pytest.raises(EmptyProfile):
            extract_paths(prof, floor_db=-10.0)

    def test_results_sorted_by_delay(self):
        power = np.full(64, -40.0)
        power[40] = 0.0
        power[8] = -2.0
        power[24] = -5.0
        paths = extract_paths(synthetic_profile(power), floor_db=-10.0)
        delays = [p.delay for p in paths]
        assert delays == sorted(delays)

    @given(
        chip_pairs=st.sets(st.integers(0, 254), min_size=2, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_chip_spaced_paths_recovered_exactly(self, chip_pairs, data):
        # paths on even chips are at least two chips apart: every one must
        # come back at its exact delay with its exact relative power
        chips = sorted(2 * c for c in chip_pairs)
        gains = data.draw(
            st.lists(
                st.floats(-10.0, 0.0),
                min_size=len(chips),
                max_size=len(chips),
            )
        )
        phases = data.draw(
            st.lists(
                st.floats(0.0, 360.0),
                min_size=len(chips),
                max_size=len(chips),
            )
        )
        ch = ChannelModel(
            paths=tuple(
                PathSpec(delay_ns=c * 1000.0, gain_db=g, phase_deg=ph)
                for c, g, ph in zip(chips, gains, phases)
            )
        )
        seq = generate_period(default_config(9), chip_rate=1e6)
        paths = extract_paths(fast_pdp_oracle(seq, ch), floor_db=-15.0)
        assert [round(p.delay * 1e6) for p in paths] == chips
        top = max(gains)
        for p, g in zip(paths, gains):
            assert p.power_db == pytest.approx(g - top, abs=1.0)
        assert not any(p.is_sidelobe_suspect for p in paths)


class TestInstrumentMetrics:
    def test_gigachip_configuration(self):
        cfg = SounderConfig(
            pn=default_config(11), alpha=1e9, beta=999.95e6, sample_rate=2e9
        )
        m = instrument_metrics(cfg)
        assert m["resolution_s"] == 1e-9
        assert m["null_to_null_bw_hz"] == 2e9
        assert m["max_unambiguous_delay_s"] == 2047e-9
        assert m["gamma"] == 20000.0
        assert m["dilated_period_s"] == 40.94e-3
        assert m["sidelobe_floor_db"] == pytest.approx(-66.22235685, abs=1e-6)

    def test_lower_chip_rate(self):
        cfg = SounderConfig(
            pn=default_config(11), alpha=400e6, beta=399.98e6, sample_rate=2e9
        )
        m = instrument_metrics(cfg)
        assert m["resolution_s"] == 2.5e-9
        assert m["null_to_null_bw_hz"] == 8e8

    def test_short_code(self):
        cfg = SounderConfig(
            pn=default_config(5), alpha=1e9, beta=999.95e6, sample_rate=2e9
        )
        assert instrument_metrics(cfg)["max_unambiguous_delay_s"] == 31e-9

    @given(
        alpha=st.floats(1e6, 1e9),
        ratio=st.floats(0.9, 0.99999),
        stages=st.integers(5, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_internal_consistency(self, alpha, ratio, stages):
        cfg = SounderConfig(
            pn=default_config(stages),
            alpha=alpha,
            beta=alpha * ratio,
            sample_rate=2.0 * alpha,
        )
        m = instrument_metrics(cfg)
        length = 2**stages - 1
        assert m["resolution_s"] * m["null_to_null_bw_hz"] == pytest.approx(2.0)
        assert m["max_unambiguous_delay_s"] == pytest.approx(
            length * m["resolution_s"], rel=1e-12
        )
        assert m["dilated_period_s"] == pytest.approx(
            length * m["gamma"] / alpha, rel=1e-12
        )
        assert m["gamma"] * (alpha - cfg.beta) == pytest.approx(alpha, rel=1e-9)
        assert m["sidelobe_floor_db"] == pytest.approx(
            -20.0 * math.log10(length), rel=1e-12
        )


class TestRmsDelaySpread:
    def test_single_path_has_zero_spread(self):
        assert rms_delay_spread([PathEstimate(5e-9, 0.0)]) == 0.0

    def test_equal_pair(self):
        paths = [PathEstimate(0.0, 0.0), PathEstimate(10e-9, 0.0)]
        assert rms_delay_spread(paths) == pytest.approx(5e-9, rel=1e-12)

    def test_weighted_pair(self):
        paths = [PathEstimate(0.0, 0.0), PathEstimate(10e-9, -3.0)]
        assert rms_delay_spread(paths) == pytest.approx(
            4.715905974456966e-9, rel=1e-12
        )

    def test_invariant_under_delay_shift(self):
        paths = [PathEstimate(0.0, 0.0), PathEstimate(10e-9, -3.0)]
        shifted = [
            PathEstimate(p.delay + 100e-9, p.power_db) for p in paths
        ]
        assert rms_delay_spread(shifted) == pytest.approx(
            rms_delay_spread(paths), rel=1e-9
        )

    def test_invariant_under_uniform_power_offset(self):
        paths = [PathEstimate(0.0, -1.0), PathEstimate(10e-9, -4.0)]
        dropped = [
            PathEstimate(p.delay, p.power_db - 2.0) for p in paths
        ]
        assert rms_delay_spread(dropped) == pytest.approx(
            rms_delay_spread(paths), rel=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            rms_delay_spread([])
