"""Tests for the tapped-delay-line channel.

The superposition oracle builds the expected output by hand with numpy
shifts so apply_channel's loop is checked against an independent route.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sounder_sim.waveform as waveform_mod
from sounder_sim.channel import (
    ChannelModel,
    PathSpec,
    apply_channel,
    identity_channel,
    read_section,
    read_value,
    strict_int,
)
from sounder_sim.errors import ConfigError, DelayExceedsDuration, InvalidSnr
from sounder_sim.pn import ChipSequence, default_config, generate_period
from sounder_sim.sounder import Mode, SounderConfig, tx_baseband
from sounder_sim.waveform import (
    SampledWaveform,
    chips_to_waveform,
    inject_jitter,
    power_spectrum,
)


@pytest.fixture()
def pn_wave():
    seq = generate_period(default_config(9), chip_rate=1e9)
    return chips_to_waveform(seq, samples_per_chip=1, periods=2)


def shifted(x, k):
    out = np.zeros_like(x)
    out[k:] = x[: x.size - k]
    return out


def reference_apply_channel(w, ch):
    """The whole-array formula the blocked apply_channel replaced.

    A noisy channel's noise is added per sample, the route the correlator's
    window-rate draw replaced, scaled to the input's mean square.
    """
    n = len(w)
    out = np.zeros(n, dtype=np.complex128)
    for p in ch.paths:
        shift = int(round(p.delay * w.sample_rate))
        if shift < n:
            out[shift:] += p.complex_gain * w.samples[: n - shift]
    if ch.snr_db is not None:
        signal_power = float(np.mean(np.abs(w.samples) ** 2))
        signal_power *= 10.0 ** (ch.strongest_gain_db / 10.0)
        noise_var = signal_power * 10.0 ** (-ch.snr_db / 10.0)
        rng = np.random.default_rng(ch.rng_seed)
        scale = math.sqrt(noise_var / 2.0)
        out = out + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return out


class TestModel:
    def test_paths_sorted_on_construction(self):
        ch = ChannelModel(paths=(PathSpec(delay_ns=5.0), PathSpec(delay_ns=1.0),
                                 PathSpec(delay_ns=3.0)))
        assert [p.delay_ns for p in ch.paths] == [1.0, 3.0, 5.0]

    def test_equal_delays_merge_by_complex_sum(self):
        ch = ChannelModel(
            paths=(PathSpec(delay_ns=2.0, gain_db=0.0, phase_deg=0.0),
                   PathSpec(delay_ns=2.0, gain_db=0.0, phase_deg=0.0))
        )
        assert len(ch.paths) == 1
        assert ch.paths[0].gain_db == pytest.approx(20 * math.log10(2))

    def test_quadrature_merge(self):
        ch = ChannelModel(
            paths=(PathSpec(delay_ns=0.0), PathSpec(delay_ns=0.0, phase_deg=90.0))
        )
        assert len(ch.paths) == 1
        assert ch.paths[0].gain_db == pytest.approx(10 * math.log10(2))
        assert ch.paths[0].phase == pytest.approx(math.pi / 4)

    def test_cancelling_paths_rejected(self):
        with pytest.raises(ConfigError):
            ChannelModel(
                paths=(PathSpec(delay_ns=0.0), PathSpec(delay_ns=0.0, phase_deg=180.0))
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            PathSpec(delay_ns=-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ConfigError):
            PathSpec(delay_ns=delay)

    def test_linear_gain_overflow_rejected(self):
        assert math.isfinite(abs(PathSpec(delay_ns=0.0, gain_db=6160.0).complex_gain))
        with pytest.raises(ConfigError, match="path gain"):
            PathSpec(delay_ns=0.0, gain_db=6200.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, np.True_, math.inf, "3", None])
    def test_bad_seed_rejected(self, seed):
        # 1.5 once failed only in the receiver's default_rng, and True was
        # written to the manifest as "seed": true, which reads back refused;
        # inject_jitter's seed once went to default_rng unchecked the same way
        ch = identity_channel()
        with pytest.raises(ConfigError, match="noise seed must be an integer >= 0"):
            ChannelModel(paths=ch.paths, rng_seed=seed)
        with pytest.raises(ConfigError, match="noise seed must be an integer >= 0"):
            dataclasses.replace(ch, rng_seed=seed)
        w = chips_to_waveform(generate_period(default_config(5)), 4, 3)
        with pytest.raises(ConfigError, match="rng_seed must be an integer >= 0"):
            inject_jitter(w, 1e-8, seed)

    def test_numpy_seed_is_kept_as_an_int(self):
        ch = ChannelModel(paths=identity_channel().paths, snr_db=10.0, rng_seed=np.int64(5))
        assert type(ch.rng_seed) is int
        assert json.loads(json.dumps(ch.to_json_dict()))["seed"] == 5

    def test_non_finite_snr_rejected(self):
        with pytest.raises(InvalidSnr):
            ChannelModel(paths=(PathSpec(delay_ns=0.0),), snr_db=float("inf"))

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
        assert again == ch
        assert again.to_json_dict() == blob | {"paths": [
            {"delay_ns": 0.0, "gain_db": 0.0, "phase_deg": 0.0},
            {"delay_ns": 50.0, "gain_db": -3.5, "phase_deg": 90.0},
        ]}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries({
                # few delays, so that equal ones merge
                "delay_ns": st.sampled_from([0.0, 0.5, 3.0, 1e3 / 3, 7000.0]),
                "gain_db": st.floats(-80.0, 40.0),
                "phase_deg": st.floats(-720.0, 720.0),
            }),
            min_size=1, max_size=6,
        ),
        st.one_of(st.none(), st.floats(-30.0, 60.0)),
    )
    def test_round_trips_keep_every_complex_gain_bitwise(self, entries, snr_db):
        try:
            ch = ChannelModel.from_json_dict({"paths": entries, "snr_db": snr_db})
        except ConfigError:  # merged paths that cancel
            return

        def gains(model):
            return np.array([p.complex_gain for p in model.paths]).tobytes()

        via_json = ChannelModel.from_json_dict(json.loads(json.dumps(ch.to_json_dict())))
        assert gains(via_json) == gains(ch)
        assert via_json.paths == ch.paths
        noiseless = dataclasses.replace(ch, snr_db=None)
        assert gains(noiseless) == gains(ch)
        assert noiseless.paths == ch.paths

    def test_lone_path_keeps_its_numbers(self):
        # a merge re-derives gain and phase; a lone path is left as written
        path = PathSpec(delay_ns=3.0, gain_db=-7.3, phase_deg=123.457)
        ch = ChannelModel(paths=(PathSpec(delay_ns=9.0), path))
        assert ch.paths[0] is path

    def test_path_from_seconds_and_radians(self):
        path = PathSpec.from_seconds(3e-6, -6.0, 0.7)
        assert path == PathSpec(delay_ns=3e-6 * 1e9, gain_db=-6.0,
                                phase_deg=math.degrees(0.7))
        assert path.delay == pytest.approx(3e-6, rel=1e-15)
        assert path.phase == pytest.approx(0.7, rel=1e-15)
        with pytest.raises(ConfigError, match="delay"):
            PathSpec.from_seconds(-1e-9)

    def test_positional_numbers_refused(self):
        # keyword-only: a delay in seconds is never read as ns
        with pytest.raises(TypeError):
            PathSpec(3e-6)

    def test_noise_std(self):
        # relative to a unit-power input
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0, gain_db=-3.0),), snr_db=12.0)
        var = 10.0 ** (-3.0 / 10.0) * 10.0 ** (-12.0 / 10.0)
        assert ch.noise_std() == math.sqrt(var / 2.0)
        assert identity_channel().noise_std() is None

    @pytest.mark.parametrize(
        "gain_db,snr_db", [(6000.0, 20.0), (0.0, -4000.0), (3000.0, -200.0)]
    )
    def test_noise_std_beyond_float64_refused(self, gain_db, snr_db):
        # refused when the channel is built, before anything is allocated
        path = PathSpec(delay_ns=0.0, gain_db=gain_db)
        with pytest.raises(ConfigError, match="channel noise variance"):
            ChannelModel(paths=(path,), snr_db=snr_db)
        with pytest.raises(ConfigError, match="channel noise variance"):
            ChannelModel.from_json_dict({"paths": [dataclasses.asdict(path)],
                                         "snr_db": snr_db})
        with pytest.raises(ConfigError, match="channel noise variance"):
            dataclasses.replace(ChannelModel(paths=(path,)), snr_db=snr_db)

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


class TestReader:
    def test_absent_or_null_takes_default(self):
        assert read_value({}, "k", float, "s", 1.5) == 1.5
        assert read_value({"k": None}, "k", float, "s", 1.5) == 1.5

    def test_converted_value(self):
        assert read_value({"k": "2.5"}, "k", float, "s") == 2.5

    @pytest.mark.parametrize("raw", ["abc", [1], {"a": 1}, 1e999])
    def test_refused_conversion_names_the_key(self, raw):
        with pytest.raises(ConfigError, match=r"^config: s\.k: "):
            read_value({"k": raw}, "k", int, "s")

    @pytest.mark.parametrize("raw", ["nan", "inf", 1e999])
    def test_non_finite_float_names_the_key(self, raw):
        with pytest.raises(ConfigError, match=r"^s\.k must be finite"):
            read_value({"k": raw}, "k", float, "s")

    def test_converter_config_error_passes_unchanged(self):
        def refuse(raw):
            raise InvalidSnr("own message")

        with pytest.raises(InvalidSnr, match="^own message$"):
            read_value({"k": 1}, "k", refuse, "s")

    @pytest.mark.parametrize("raw,value", [(3, 3), (3.0, 3), (-2, -2), (1e20, 10**20)])
    def test_strict_int_accepts_integral_numbers(self, raw, value):
        assert read_value({"k": raw}, "k", strict_int, "s") == value

    @pytest.mark.parametrize("raw", [True, 2.7, "4", [4], 1e999, float("nan")])
    def test_strict_int_refuses_everything_else(self, raw):
        with pytest.raises(ConfigError, match=r"^config: s\.k: value must be an integer, got "):
            read_value({"k": raw}, "k", strict_int, "s")

    def test_section_table_is_the_key_set(self):
        table = {"a": int, "b": float}
        assert read_section(None, table, "s", {"b": 0.5}) == {"a": None, "b": 0.5}
        assert read_section({"a": 3}, table, "s", {}) == {"a": 3, "b": None}
        with pytest.raises(ConfigError, match="unknown key"):
            read_section({"c": 1}, table, "s", {})


class TestApplyChannel:
    def test_identity(self, pn_wave):
        out = apply_channel(pn_wave, identity_channel())
        assert np.array_equal(out.samples, pn_wave.samples)
        assert out.sample_rate == pn_wave.sample_rate
        assert out.chip_rate == pn_wave.chip_rate

    def test_hundred_ns_is_hundred_samples(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay_ns=100.0),))
        out = apply_channel(pn_wave, ch)
        assert np.array_equal(out.samples, shifted(pn_wave.samples, 100))

    def test_two_path_superposition_oracle(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0), PathSpec(delay_ns=5.0)))
        out = apply_channel(pn_wave, ch)
        expect = pn_wave.samples + shifted(pn_wave.samples, 5)
        assert np.array_equal(out.samples, expect)

    def test_complex_gain_applied(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay_ns=3.0, gain_db=-6.0, phase_deg=60.0),))
        out = apply_channel(pn_wave, ch)
        a = 10 ** (-6 / 20) * np.exp(1j * math.pi / 3)
        assert np.allclose(out.samples, a * shifted(pn_wave.samples, 3), rtol=1e-15)

    def test_nearest_sample_quantization(self, pn_wave):
        # 2.6 ns at 1 GS/s rounds to 3 samples
        out = apply_channel(pn_wave, ChannelModel(paths=(PathSpec(delay_ns=2.6),)))
        assert np.array_equal(out.samples, shifted(pn_wave.samples, 3))

    def test_delay_beyond_duration_rejected(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay_ns=pn_wave.duration * 1e9),))
        with pytest.raises(DelayExceedsDuration):
            apply_channel(pn_wave, ch)

    def test_linearity(self, pn_wave):
        rng = np.random.default_rng(3)
        other = SampledWaveform(
            samples=rng.standard_normal(len(pn_wave))
            + 1j * rng.standard_normal(len(pn_wave)),
            sample_rate=pn_wave.sample_rate,
        )
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                 PathSpec(delay_ns=7.0, gain_db=-2.0, phase_deg=23.0)))
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
        ch = ChannelModel(paths=(PathSpec(delay_ns=4.0, gain_db=-1.0, phase_deg=11.5),))
        k = 11
        moved = SampledWaveform(
            samples=shifted(pn_wave.samples, k), sample_rate=pn_wave.sample_rate
        )
        out_then_shift = shifted(apply_channel(pn_wave, ch).samples, k)
        shift_then_out = apply_channel(moved, ch).samples
        assert np.allclose(out_then_shift, shift_then_out, rtol=1e-15)

    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("snr_db", [None, 15.0])
    def test_matches_whole_array_formula(self, monkeypatch, block, snr_db):
        if block is not None:
            monkeypatch.setattr(waveform_mod, "BLOCK", block)
        block = waveform_mod.block_length()
        n = 2 * block + 345  # the last block is partial
        rng = np.random.default_rng(8)
        w = SampledWaveform(
            samples=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            sample_rate=1e9,
        )
        ch = ChannelModel(
            paths=(
                PathSpec(delay_ns=0.0, gain_db=-1.0, phase_deg=17.0),
                PathSpec(delay_ns=17.0, gain_db=-4.0, phase_deg=115.0),
                # beyond one block
                PathSpec(delay_ns=block + 77.0, gain_db=-9.0, phase_deg=-63.0),
            ),
            snr_db=snr_db,
            rng_seed=21,
        )
        # a noisy channel gives the noiseless bytes: its noise is the receiver's
        expect = reference_apply_channel(w, dataclasses.replace(ch, snr_db=None))
        assert apply_channel(w, ch).samples.tobytes() == expect.tobytes()

    def test_power_budget_single_path(self, pn_wave):
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0, gain_db=-7.0),))
        out = apply_channel(pn_wave, ch)
        assert np.mean(np.abs(out.samples) ** 2) == pytest.approx(
            np.mean(np.abs(pn_wave.samples) ** 2) * 10 ** (-0.7), rel=1e-9
        )


def periodic_input(source, block):
    """A waveform that states its period, two blocks and a partial one long.

    The tx source ends inside a period; the chips source holds whole periods,
    as every chips_to_waveform output does.
    """
    n = 2 * block + 345
    if source == "tx":
        # 31 chips at 4 samples per chip: 124-sample period, 5 samples over
        cfg = SounderConfig(pn=default_config(5), alpha=1e6, beta=0.995e6,
                            sample_rate=4e6, capture=n / 4e6, mode=Mode.TX)
        w = tx_baseband(cfg)
        assert len(w) == n
        return w
    # 127 chips at 3 samples per chip: 381-sample period
    return chips_to_waveform(generate_period(default_config(7), chip_rate=1e6), 3,
                             periods=-(-n // 381))


class TestTiledRoute:
    """apply_channel on inputs that repeat every period, and on ones that do not."""

    @pytest.mark.parametrize("source", ["tx", "chips"])
    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("snr_db", [None, 15.0])
    @pytest.mark.parametrize(
        "shifts", [(0,), (37,), (500,), ("block",), (0, 37, 500, "block")],
        ids=["zero", "within-period", "beyond-period", "beyond-block", "all"],
    )
    def test_periodic_input_is_tiled_to_the_same_bytes(
        self, monkeypatch, source, block, snr_db, shifts
    ):
        if block is not None:
            monkeypatch.setattr(waveform_mod, "BLOCK", block)
        block = waveform_mod.block_length()
        w = periodic_input(source, block)
        period = w.samples_per_period
        assert len(w) % block
        assert (len(w) % period != 0) == (source == "tx")
        shifts = [block + 77 if s == "block" else s for s in shifts]
        sample_ns = 1e9 / w.sample_rate
        ch = ChannelModel(
            paths=tuple(
                PathSpec(delay_ns=s * sample_ns, gain_db=-1.5 * i, phase_deg=17.0 + 71.0 * i)
                for i, s in enumerate(shifts)
            ),
            snr_db=snr_db,
            rng_seed=4,
        )
        out = apply_channel(w, ch)
        # the paths are summed over the head and one period, and only those
        # samples are stored
        assert out.stored.size == max(shifts) + period and "samples" not in vars(out)
        assert out.repeats == (max(shifts), period)
        quiet = dataclasses.replace(ch, snr_db=None)
        assert out.samples.tobytes() == reference_apply_channel(w, quiet).tobytes()
        # every path at shift 0 repeats from sample 0; a zero-filled head does not
        assert out.samples_per_period == (period if max(shifts) == 0 else None)

    @pytest.fixture(params=["jittered", "changed-last-block", "negative-zero"])
    def non_repeating(self, request):
        if request.param == "jittered":
            # framed, but its chip edges move: no period repeats
            seq = generate_period(default_config(7), chip_rate=1e6)
            return inject_jitter(chips_to_waveform(seq, 3, periods=87), 0.2e-6, rng_seed=3)
        w = periodic_input("tx", waveform_mod.block_length())
        samples = w.samples.copy()
        if request.param == "changed-last-block":
            samples[-2] = 0.5
        else:
            assert samples.imag[5000] == 0.0
            samples.imag[5000] = -0.0
        return dataclasses.replace(w, samples=samples)

    @pytest.mark.parametrize("snr_db", [None, 15.0])
    def test_non_repeating_input_sums_every_path(self, non_repeating, snr_db):
        w = non_repeating
        assert w.samples_per_period is None
        ch = ChannelModel(
            paths=(PathSpec(delay_ns=0.0), PathSpec(delay_ns=9250.0, gain_db=-4.0,
                                                     phase_deg=115.0)),
            snr_db=snr_db,
            rng_seed=4,
        )
        out = apply_channel(w, ch)
        assert out.repeats is None and out.stored.size == len(w)
        quiet = dataclasses.replace(ch, snr_db=None)
        assert out.samples.tobytes() == reference_apply_channel(w, quiet).tobytes()

    def test_period_past_the_end_sums_every_path(self, pn_wave):
        # two periods, and the last path arrives after the first: no whole
        # period is left to repeat
        ch = ChannelModel(paths=(PathSpec(delay_ns=0.0), PathSpec(delay_ns=600.0)))
        out = apply_channel(pn_wave, ch)
        assert out.repeats is None and out.stored.size == len(pn_wave)
        assert out.samples.tobytes() == reference_apply_channel(pn_wave, ch).tobytes()

    def test_one_period_through_zero_shifts_states_its_period(self):
        # the head is empty and one whole period follows it: the output
        # repeats from sample 0, as its input does
        w = chips_to_waveform(generate_period(default_config(5), chip_rate=1e6), 4)
        out = apply_channel(w, identity_channel())
        assert out.samples.tobytes() == reference_apply_channel(w, identity_channel()).tobytes()
        assert out.repeats == (0, 124) and out.samples_per_period == 124
        assert power_spectrum(out).line_spacing_hz == power_spectrum(w).line_spacing_hz
        # one sample of shift leaves less than a whole period after the head
        late = ChannelModel(paths=(PathSpec(delay_ns=250.0),))
        assert apply_channel(w, late).repeats is None

    @settings(max_examples=100, deadline=None)
    @given(
        chips=st.integers(1, 100),
        m=st.integers(1, 3),
        periods=st.integers(1, 10),
        shifts=st.lists(st.integers(0, 2999), min_size=1, max_size=4),
        block=st.integers(1, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_periods_match_the_per_path_sum(
        self, chips, m, periods, shifts, block, seed
    ):
        rng = np.random.default_rng(seed)
        seq = ChipSequence(chips=rng.integers(0, 2, chips, dtype=np.uint8), chip_rate=1e9)
        w = chips_to_waveform(seq, m, periods)
        n, sample_ns = len(w), 1e9 / w.sample_rate
        ch = ChannelModel(paths=tuple(
            PathSpec(delay_ns=s * sample_ns, gain_db=float(rng.uniform(-20, 0)),
                     phase_deg=float(rng.uniform(0, 360)))
            for s in shifts if s < n
        ) or (PathSpec(delay_ns=0.0),))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(waveform_mod, "BLOCK", block)
            out = apply_channel(w, ch)
        assert out.samples.tobytes() == reference_apply_channel(w, ch).tobytes()
        if out.repeats is not None:
            start, period = out.repeats
            bits = out.samples[start:].view(np.dtype((np.uint64, 2)))
            assert np.array_equal(bits[period:], bits[: bits.shape[0] - period])

    def test_output_that_repeats_tiles_again_from_its_own_start(self):
        # a second channel on a tiled output: the repeat starts at the sum
        # of the two channels' last shifts, and the bytes are the per-path sum
        seq = generate_period(default_config(7), chip_rate=1e6)
        w = chips_to_waveform(seq, 3, periods=9)
        first = ChannelModel(paths=(PathSpec(delay_ns=0.0),
                                    PathSpec(delay_ns=14000.0, gain_db=-3.0)))
        second = ChannelModel(paths=(PathSpec(delay_ns=0.0, phase_deg=40.0),
                                     PathSpec(delay_ns=100000.0, gain_db=-5.0)))
        once = apply_channel(w, first)
        twice = apply_channel(once, second)
        assert once.repeats == (42, 381) and twice.repeats == (342, 381)
        assert once.stored.size == 42 + 381 and twice.stored.size == 342 + 381
        assert "samples" not in vars(once) and "samples" not in vars(twice)
        assert twice.samples.tobytes() == reference_apply_channel(once, second).tobytes()
