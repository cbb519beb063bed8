"""Tests for the programmable shift-register sequence generator.

Expected values are either computed here by an independent route (itertools
run-length encoding, FFT correlation, combinatorial counting) or frozen from
first principles (period counts of known non-primitive tap sets).
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sounder_sim.config import RunSpec
from sounder_sim.errors import (
    AllZeroState,
    ConfigError,
    EmptyTaps,
    NotMaximal,
    TapOutOfRange,
)
from sounder_sim.pn import (
    DEFAULT_TAPS,
    ChipSequence,
    PnConfig,
    Structure,
    decode_controls,
    default_config,
    expected_maximal_runs,
    generate_period,
    run_histogram,
    validate_m_sequence,
)

ALL_STAGE_COUNTS = list(range(5, 13))
BOTH = [Structure.MSRG, Structure.SSRG]


def rle_cyclic(chips):
    """Independent cyclic run-length encoder: list of (value, length)."""
    chips = list(int(c) for c in chips)
    if len(set(chips)) == 1:
        return [(chips[0], len(chips))]
    # rotate so index 0 starts a run, then plain groupby is cyclic-correct
    start = next(i for i in range(len(chips)) if chips[i] != chips[i - 1])
    rotated = chips[start:] + chips[:start]
    return [(v, len(list(g))) for v, g in itertools.groupby(rotated)]


def acf_fft(chips):
    """Independent autocorrelation oracle via the Wiener-Khinchin route."""
    b = 1.0 - 2.0 * np.asarray(chips, dtype=float)
    spec = np.fft.fft(b)
    return np.rint(np.fft.ifft(spec * np.conj(spec)).real).astype(int)


class TestControlDecoding:
    def test_eleven_stage_code(self):
        cfg = decode_controls("110", "010010010010")
        assert cfg.stages == 11
        assert cfg.taps == (11, 8, 5, 2)
        assert cfg.length == 2047
        assert cfg.stage_select == 6
        assert cfg.tap_word == 0b010010010010

    def test_integer_codes_equivalent(self):
        a = decode_controls("110", "010010010010")
        b = decode_controls(6, 0b010010010010)
        assert a == b

    @pytest.mark.parametrize("sel,stages", [(0, 5), (3, 8), (7, 12)])
    def test_stage_select_offset(self, sel, stages):
        word = sum(1 << (t - 1) for t in DEFAULT_TAPS[stages])
        assert decode_controls(sel, word).stages == stages

    def test_tap_above_stage_count_rejected(self):
        # stage select 0 -> 5 stages, but bit 12 set
        with pytest.raises(TapOutOfRange):
            decode_controls(0, 1 << 11 | 1 << 4)

    def test_empty_tap_word_rejected(self):
        with pytest.raises(EmptyTaps):
            decode_controls(0, 0)

    def test_bad_code_strings(self):
        with pytest.raises(ConfigError):
            decode_controls("10a", 1)
        with pytest.raises(ConfigError):
            decode_controls("1000", 1)  # 4 bits into a 3-bit field
        with pytest.raises(ConfigError):
            decode_controls(0, 1 << 12)


class TestConfig:
    def test_all_zero_seed_rejected(self):
        with pytest.raises(AllZeroState):
            PnConfig(stages=5, taps=(5, 3), seed=(0,) * 5)

    def test_default_seed_is_all_ones(self):
        cfg = PnConfig(stages=5, taps=(5, 3))
        assert cfg.seed == (1, 1, 1, 1, 1)

    def test_taps_must_include_last_stage(self):
        with pytest.raises(ConfigError):
            PnConfig(stages=5, taps=(3, 2))

    def test_taps_normalized_sorted_unique(self):
        cfg = PnConfig(stages=8, taps=(4, 8, 5, 6, 4))
        assert cfg.taps == (8, 6, 5, 4)

    def test_json_round_trip(self):
        # a pn section is read by the config reader; the JSON form carries
        # the control words too for chip stage counts (9), not for others (3)
        ssrg = PnConfig(9, Structure.SSRG, taps=(9, 5), seed=(0, 1, 1) * 3)
        for cfg in (ssrg, PnConfig(stages=3, taps=(3, 2))):
            blob = json.dumps({"pn": cfg.to_json_dict()})
            assert RunSpec.from_json_dict(json.loads(blob)).pn == cfg

    def test_control_code_consistency_enforced(self):
        # both forms are valid codes, but tap word 000100001000 selects (9, 4)
        doc = {"pn": {"stages": 9, "taps": [9, 5],
                      "stage_select": "100", "tap_word": "000100001000"}}
        with pytest.raises(ConfigError, match="^pn section: stages/taps give taps"):
            RunSpec.from_json_dict(doc)

    def test_control_words_are_derived(self):
        cfg = PnConfig(stages=11, taps=(2, 5, 8, 11))
        assert (cfg.stage_select, cfg.tap_word) == (6, 0b010010010010)
        assert cfg == decode_controls("110", "010010010010")
        assert PnConfig(stages=4, taps=(4, 3)).tap_word is None

    @pytest.mark.parametrize("stages", [65, 10**9])
    def test_stage_count_beyond_limit_rejected(self, stages):
        # checked before the stages-long default seed tuple is built
        with pytest.raises(ConfigError, match="stages must be in"):
            PnConfig(stages=stages, taps=(stages, 1))

    @pytest.mark.parametrize("stages", [48, 64])
    def test_period_beyond_physical_memory_refused(self, stages):
        cfg = PnConfig(stages=stages, taps=(stages, 1))
        with pytest.raises(ConfigError, match="physical memory"):
            generate_period(cfg)


class TestMaximalLaws:
    @pytest.mark.parametrize("stages", ALL_STAGE_COUNTS)
    @pytest.mark.parametrize("structure", BOTH)
    def test_default_taps_full_period(self, stages, structure):
        seq = generate_period(default_config(stages, structure))
        assert len(seq) == 2**stages - 1

    @pytest.mark.parametrize("stages", ALL_STAGE_COUNTS)
    @pytest.mark.parametrize("structure", BOTH)
    def test_balance(self, stages, structure):
        seq = generate_period(default_config(stages, structure))
        ones = int(np.sum(seq.chips))
        assert ones == 2 ** (stages - 1)
        assert len(seq) - ones == 2 ** (stages - 1) - 1

    @pytest.mark.parametrize("stages", ALL_STAGE_COUNTS)
    @pytest.mark.parametrize("structure", BOTH)
    def test_run_length_law(self, stages, structure):
        seq = generate_period(default_config(stages, structure))
        # independent oracle: RLE by groupby, counted into the law's shape
        runs = rle_cyclic(seq.chips)
        ones = {}
        zeros = {}
        for v, length in runs:
            d = ones if v else zeros
            d[length] = d.get(length, 0) + 1
        assert ones.pop(stages) == 1
        assert zeros.pop(stages - 1) == 1
        for k in range(1, stages - 1):
            assert ones.pop(k) == 2 ** (stages - 2 - k)
            assert zeros.pop(k) == 2 ** (stages - 2 - k)
        assert not ones and not zeros
        # package histogram agrees with the oracle
        hist = run_histogram(seq)
        expect = expected_maximal_runs(stages)
        assert hist.ones == expect.ones
        assert hist.zeros == expect.zeros

    @pytest.mark.parametrize("structure", BOTH)
    def test_autocorrelation_two_valued(self, structure):
        seq = generate_period(default_config(9, structure))
        oracle = acf_fft(seq.chips)
        assert oracle[0] == 511
        assert set(oracle[1:].tolist()) == {-1}
        # the law report's peak and off-peak extremes agree with the oracle
        assert validate_m_sequence(seq)["autocorrelation"] == {
            "lag0": 511, "off_peak_min": -1, "off_peak_max": -1,
        }

    def test_shift_and_add_closure(self):
        seq = generate_period(default_config(7))
        text = seq.to_ascii()
        doubled = text + text
        for lag in (1, 13, 77):
            summed = np.bitwise_xor(seq.chips, np.roll(seq.chips, -lag))
            as_text = "".join("1" if c else "0" for c in summed)
            assert as_text in doubled  # XOR of shifts is another phase


def walk_register(cfg, count):
    """count output chips of the register, stepped one stage list at a time.

    Stage i is stages[i - 1] and stage N is the output. SSRG shifts in the
    XOR of the tapped stages at stage 1; MSRG shifts the output into stage 1
    and XORs it into stage t + 1 for each tap t < N.
    """
    stages, chips = list(cfg.seed), []
    for _ in range(count):
        out = stages[-1]
        chips.append(out)
        if cfg.structure is Structure.SSRG:
            stages = [sum(stages[t - 1] for t in cfg.taps) % 2] + stages[:-1]
        else:
            stages = [out] + [s ^ (out if i in cfg.taps else 0)
                              for i, s in enumerate(stages[:-1], start=1)]
    return chips


class TestNonMaximal:
    @pytest.mark.parametrize("structure", BOTH)
    def test_short_cycle_reported(self, structure):
        cfg = PnConfig(stages=5, taps=(5, 1), structure=structure)
        with pytest.raises(NotMaximal) as err:
            generate_period(cfg)
        assert err.value.period == 21
        assert err.value.expected == 31

    @pytest.mark.parametrize("structure", BOTH)
    def test_degenerate_single_tap(self, structure):
        cfg = PnConfig(stages=5, taps=(5,), structure=structure)
        with pytest.raises(NotMaximal) as err:
            generate_period(cfg)
        assert err.value.period == 1

    @pytest.mark.parametrize("structure", BOTH)
    @pytest.mark.parametrize("taps,period", [((5, 1), 21), ((5,), 1)])
    def test_error_carries_the_cycle_walked(self, structure, taps, period):
        cfg = PnConfig(stages=5, taps=taps, structure=structure)
        with pytest.raises(NotMaximal) as err:
            generate_period(cfg, chip_rate=2e6)
        cycle = err.value.cycle
        assert cycle.config == cfg and cycle.chip_rate == 2e6
        assert cycle.chips.tolist() == walk_register(cfg, period)
        # the register is back at its seed: the next period is the same chips
        assert walk_register(cfg, 2 * period) == 2 * cycle.chips.tolist()


class TestRegisterWalk:
    def test_three_stage_ssrg_sequence(self):
        # a full period of 7 chips visits every nonzero state once
        seq = generate_period(PnConfig(stages=3, taps=(3, 2), structure=Structure.SSRG))
        assert seq.chips.tolist() == [1, 1, 1, 0, 0, 1, 0]

    def test_three_stage_msrg_sequence(self):
        seq = generate_period(PnConfig(stages=3, taps=(3, 2)))
        assert seq.chips.tolist() == [1, 0, 1, 0, 0, 1, 1]

    def test_wrong_seed_width_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be 5 bits of 0/1$"):
            PnConfig(stages=5, taps=(5, 3), seed=(1, 0, 1))


class TestSequenceContainer:
    def test_chips_read_only(self):
        seq = generate_period(default_config(5))
        with pytest.raises(ValueError):
            seq.chips[0] = 0

    def test_bipolar_map(self):
        seq = ChipSequence(chips=np.array([0, 1, 1, 0], dtype=np.uint8))
        assert seq.bipolar().tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_ascii(self):
        seq = generate_period(default_config(5))
        text = seq.to_ascii()
        assert len(text) == 31
        assert text == "".join(str(int(c)) for c in seq.chips)

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigError):
            ChipSequence(chips=np.array([0, 2, 1]))

    @pytest.mark.parametrize("chip_rate", [0.0, -1e6, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_chip_rate(self, chip_rate):
        with pytest.raises(ConfigError, match="chip_rate must be"):
            ChipSequence(chips=np.array([0, 1, 1], dtype=np.uint8), chip_rate=chip_rate)
        with pytest.raises(ConfigError, match="chip_rate must be"):
            generate_period(default_config(5), chip_rate=chip_rate)

    def test_chip_rate_carried(self):
        seq = generate_period(default_config(5), chip_rate=1e9)
        assert seq.chip_rate == 1e9


class TestValidationReport:
    def test_clean_sequence_passes(self):
        seq = generate_period(decode_controls("110", "010010010010"))
        report = validate_m_sequence(seq)
        assert report["violations"] == []
        assert report["period"] == 2047
        assert report["ones"] == 1024
        assert report["autocorrelation"] == {
            "lag0": 2047,
            "off_peak_min": -1,
            "off_peak_max": -1,
        }

    def test_corrupted_chip_flagged(self):
        seq = generate_period(default_config(9))
        chips = np.array(seq.chips)
        chips[100] ^= 1
        report = validate_m_sequence(ChipSequence(chips=chips, config=seq.config))
        assert report["violations"]
        assert any("balance" in v for v in report["violations"])
        assert any("autocorrelation" in v for v in report["violations"])

    def test_report_is_json_serializable(self):
        report = validate_m_sequence(generate_period(default_config(5)))
        json.dumps(report)


@settings(max_examples=40, deadline=None)
@given(
    stages=st.integers(min_value=5, max_value=12),
    structure=st.sampled_from(BOTH),
    data=st.data(),
)
def test_any_seed_gives_rotated_sequence(stages, structure, data):
    """Every nonzero seed yields the same cyclic sequence, phase-shifted."""
    seed_int = data.draw(st.integers(min_value=1, max_value=2**stages - 1))
    seed = tuple((seed_int >> i) & 1 for i in range(stages))
    taps = DEFAULT_TAPS[stages]
    ref = generate_period(PnConfig(stages=stages, taps=taps, structure=structure))
    seq = generate_period(
        PnConfig(stages=stages, taps=taps, structure=structure, seed=seed)
    )
    assert len(seq) == len(ref)
    assert seq.to_ascii() in ref.to_ascii() * 2


@settings(max_examples=40, deadline=None)
@given(
    stages=st.integers(min_value=5, max_value=12),
    structure=st.sampled_from(BOTH),
    seed_int=st.integers(min_value=1),
)
def test_period_independent_of_seed(stages, structure, seed_int):
    seed_int = 1 + seed_int % (2**stages - 1)
    seed = tuple((seed_int >> i) & 1 for i in range(stages))
    cfg = PnConfig(
        stages=stages, taps=DEFAULT_TAPS[stages], structure=structure, seed=seed
    )
    assert len(generate_period(cfg)) == 2**stages - 1
