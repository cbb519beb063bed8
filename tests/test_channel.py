"""Tests for the tapped-delay-line channel.

The superposition oracle builds the expected output by hand with numpy
shifts so apply_channel's loop is checked against an independent route.
"""

import json
import math

import numpy as np
import pytest

from sounder_sim.channel import ChannelModel, PathSpec, apply_channel, identity_channel
from sounder_sim.errors import ConfigError, DelayExceedsDuration, InvalidSnr
from sounder_sim.pn import default_config, generate_period
from sounder_sim.waveform import SampledWaveform, chips_to_waveform


@pytest.fixture()
def pn_wave():
    seq = generate_period(default_config(9), chip_rate=1e9)
    return chips_to_waveform(seq, samples_per_chip=1, periods=2)


def shifted(x, k):
    out = np.zeros_like(x)
    out[k:] = x[: x.size - k]
    return out


class TestModel:
    def test_paths_sorted_on_construction(self):
        ch = ChannelModel(paths=(PathSpec(5e-9), PathSpec(1e-9), PathSpec(3e-9)))
        assert [p.delay for p in ch.paths] == [1e-9, 3e-9, 5e-9]

    def test_equal_delays_merge_by_complex_sum(self):
        ch = ChannelModel(
            paths=(PathSpec(2e-9, gain_db=0.0, phase=0.0),
                   PathSpec(2e-9, gain_db=0.0, phase=0.0))
        )
        assert len(ch.paths) == 1
        assert ch.paths[0].gain_db == pytest.approx(20 * math.log10(2))

    def test_quadrature_merge(self):
        ch = ChannelModel(
            paths=(PathSpec(0.0, 0.0, 0.0), PathSpec(0.0, 0.0, math.pi / 2))
        )
        assert len(ch.paths) == 1
        assert ch.paths[0].gain_db == pytest.approx(10 * math.log10(2))
        assert ch.paths[0].phase == pytest.approx(math.pi / 4)

    def test_cancelling_paths_rejected(self):
        with pytest.raises(ConfigError):
            ChannelModel(
                paths=(PathSpec(0.0, 0.0, 0.0), PathSpec(0.0, 0.0, math.pi))
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            PathSpec(delay=-1e-9)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ConfigError):
            PathSpec(delay=delay)

    def test_non_finite_snr_rejected(self):
        with pytest.raises(InvalidSnr):
            ChannelModel(paths=(PathSpec(0.0),), snr_db=float("inf"))

    def test_empty_paths_rejected(self):
        with pytest.raises(ConfigError):
            ChannelModel(paths=())

    def test_json_round_trip(self):
        blob = {
            "paths": [
                {"delay_ns": 0, "gain_db": 0, "phase_deg": 0},
                {"delay_ns": 50, "gain_db": -3.5, "phase_deg": 90},
            ],
            "snr_db": 20,
            "seed": 7,
        }
        ch = ChannelModel.from_json_dict(blob)
        assert len(ch.paths) == 2
        assert ch.paths[1].delay == pytest.approx(50e-9)
        assert ch.paths[1].phase == pytest.approx(math.pi / 2)
        again = ChannelModel.from_json_dict(json.loads(json.dumps(ch.to_json_dict())))
        assert again.snr_db == ch.snr_db and again.rng_seed == ch.rng_seed
        for p, q in zip(again.paths, ch.paths):
            assert p.delay == pytest.approx(q.delay, rel=1e-12)
            assert p.gain_db == pytest.approx(q.gain_db, rel=1e-12)
            assert p.phase == pytest.approx(q.phase, rel=1e-12)

    @pytest.mark.parametrize(
        "blob",
        [
            {"paths": [{"delay_ns": 0, "phase": 90}]},  # the key is phase_deg
            {"paths": [{"delay_ns": 0}], "snr": 10},  # the key is snr_db
        ],
    )
    def test_json_unknown_keys_rejected(self, blob):
        with pytest.raises(ConfigError, match="unknown key"):
            ChannelModel.from_json_dict(blob)

    @pytest.mark.parametrize("blob", [[{"delay_ns": 0}], {"paths": [5]}])
    def test_json_non_object_rejected(self, blob):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            ChannelModel.from_json_dict(blob)

    def test_json_missing_paths(self):
        with pytest.raises(ConfigError):
            ChannelModel.from_json_dict({"snr_db": 10})


class TestApplyChannel:
    def test_identity(self, pn_wave):
        out = apply_channel(pn_wave, identity_channel())
        assert np.array_equal(out.samples, pn_wave.samples)
        assert out.sample_rate == pn_wave.sample_rate
        assert out.chip_rate == pn_wave.chip_rate

    def test_hundred_ns_is_hundred_samples(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay=100e-9),))
        out = apply_channel(pn_wave, ch)
        assert np.array_equal(out.samples, shifted(pn_wave.samples, 100))

    def test_two_path_superposition_oracle(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(0.0), PathSpec(5e-9)))
        out = apply_channel(pn_wave, ch)
        expect = pn_wave.samples + shifted(pn_wave.samples, 5)
        assert np.array_equal(out.samples, expect)

    def test_complex_gain_applied(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(3e-9, gain_db=-6.0, phase=math.pi / 3),))
        out = apply_channel(pn_wave, ch)
        a = 10 ** (-6 / 20) * np.exp(1j * math.pi / 3)
        assert np.allclose(out.samples, a * shifted(pn_wave.samples, 3), rtol=1e-15)

    def test_nearest_sample_quantization(self, pn_wave):
        # 2.6 ns at 1 GS/s rounds to 3 samples
        out = apply_channel(pn_wave, ChannelModel(paths=(PathSpec(2.6e-9),)))
        assert np.array_equal(out.samples, shifted(pn_wave.samples, 3))

    def test_delay_beyond_duration_rejected(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay=pn_wave.duration),))
        with pytest.raises(DelayExceedsDuration):
            apply_channel(pn_wave, ch)

    def test_linearity(self, pn_wave):
        rng = np.random.default_rng(3)
        other = SampledWaveform(
            samples=rng.standard_normal(len(pn_wave))
            + 1j * rng.standard_normal(len(pn_wave)),
            sample_rate=pn_wave.sample_rate,
        )
        ch = ChannelModel(paths=(PathSpec(0.0), PathSpec(7e-9, -2.0, 0.4)))
        a, b = 0.7, -1.3 + 0.2j
        combo = SampledWaveform(
            samples=a * pn_wave.samples + b * other.samples,
            sample_rate=pn_wave.sample_rate,
        )
        lhs = apply_channel(combo, ch).samples
        rhs = a * apply_channel(
            SampledWaveform(pn_wave.samples, pn_wave.sample_rate), ch
        ).samples + b * apply_channel(other, ch).samples
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_time_invariance(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(4e-9, -1.0, 0.2),))
        k = 11
        moved = SampledWaveform(
            samples=shifted(pn_wave.samples, k), sample_rate=pn_wave.sample_rate
        )
        out_then_shift = shifted(apply_channel(pn_wave, ch).samples, k)
        shift_then_out = apply_channel(moved, ch).samples
        assert np.allclose(out_then_shift, shift_then_out, rtol=1e-15)

    def test_noise_seeded_reproducible(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(0.0),), snr_db=10.0, rng_seed=99)
        a = apply_channel(pn_wave, ch)
        b = apply_channel(pn_wave, ch)
        assert np.array_equal(a.samples, b.samples)
        other = ChannelModel(paths=(PathSpec(0.0),), snr_db=10.0, rng_seed=100)
        assert not np.array_equal(a.samples, apply_channel(pn_wave, other).samples)

    def test_power_budget_single_path(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(0.0, gain_db=-7.0),))
        out = apply_channel(pn_wave, ch)
        assert out.power() == pytest.approx(
            pn_wave.power() * 10 ** (-0.7), rel=1e-9
        )

    def test_snr_sets_noise_power(self, pn_wave):
        # long waveform so the sample estimate of noise variance is tight
        seq = generate_period(default_config(9), chip_rate=1e9)
        w = chips_to_waveform(seq, samples_per_chip=1, periods=40)
        snr_db = 20.0
        ch = ChannelModel(paths=(PathSpec(0.0),), snr_db=snr_db, rng_seed=5)
        out = apply_channel(w, ch)
        noise = out.samples - w.samples
        measured = float(np.mean(np.abs(noise) ** 2))
        expected = w.power() * 10 ** (-snr_db / 10)
        assert measured == pytest.approx(expected, rel=0.05)
