"""Programmable maximal-length PN sequence generation and validation.

Models the shift-register generator of the sounder baseband: an N-stage
register (N selectable 5..12 through a 3-bit stage-select code) with feedback
taps chosen by a 12-bit tap word, in either modular (MSRG) or simple (SSRG)
form. Stage 1 sits at the register input, stage N drives the output; tap
position i refers to stage i and the MSRG adder for tap t sits between stages
t and t+1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    AllZeroState,
    ConfigError,
    EmptyTaps,
    NotMaximal,
    TapOutOfRange,
    finite_real,
    freeze_arrays,
    refuse_beyond_memory,
    whole_count,
)

CHIP_STAGES_MIN = 5
CHIP_STAGES_MAX = 12
STAGES_MAX = 64  # analysis configs only: a longer period can never be held

# One known-primitive tap set per programmable stage count, verified maximal
# by period measurement in the test suite (both MSRG and SSRG).
DEFAULT_TAPS: dict[int, tuple[int, ...]] = {
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 8, 5, 2),
    12: (12, 6, 4, 1),
}


class Structure(enum.Enum):
    """Shift-register generator family."""

    MSRG = "msrg"
    SSRG = "ssrg"


def _parse_code(code: int | str, width: int, name: str) -> int:
    """Accept an int or a binary string for a control code, check bit width."""
    if isinstance(code, str):
        if not code or any(c not in "01" for c in code):
            raise ConfigError(f"{name} must be a binary string, got {code!r}")
        value = int(code, 2)
    else:
        value = whole_count(code, name, 0)
    if value >= (1 << width):
        raise ConfigError(f"{name} must fit in {width} bits, got {value}")
    return value


def _tap_word(taps: Iterable[int]) -> int:
    """Tap positions as a tap word: bit i-1 selects tap i."""
    return sum(1 << (t - 1) for t in taps)


def _word_taps(word: int) -> tuple[int, ...]:
    """Tap positions 1..12 selected by a tap word, ascending."""
    return tuple(i for i in range(1, 13) if word >> (i - 1) & 1)


@dataclass(frozen=True)
class PnConfig:
    """Shift-register generator configuration.

    The four fields define the code, so two configs are equal exactly when
    they generate the same chips. ``seed`` is the register content in stage
    order (index 0 = stage 1). The chip's control words ``stage_select`` and
    ``tap_word`` follow from stages and taps.
    """

    stages: int
    structure: Structure = Structure.MSRG
    taps: tuple[int, ...] = ()
    seed: tuple[int, ...] = ()

    def __post_init__(self):
        if not 2 <= whole_count(self.stages, "stages", None) <= STAGES_MAX:
            raise ConfigError(f"stages must be in 2..{STAGES_MAX}, got {self.stages}")
        taps = tuple(sorted({whole_count(t, "tap", None) for t in self.taps}, reverse=True))
        if not taps:
            raise EmptyTaps("no feedback taps selected")
        if taps[0] > self.stages or taps[-1] < 1:
            raise TapOutOfRange(
                f"taps {taps} outside [1, {self.stages}] for {self.stages} stages"
            )
        if self.stages not in taps:
            raise ConfigError(
                f"tap set {taps} must include stage {self.stages}; "
                "the feedback source is the last stage"
            )
        object.__setattr__(self, "taps", taps)

        seed = (tuple(whole_count(b, "seed bit", None) for b in self.seed)
                if self.seed else (1,) * self.stages)
        if len(seed) != self.stages or any(b not in (0, 1) for b in seed):
            raise ConfigError(f"seed must be {self.stages} bits of 0/1")
        if not any(seed):
            raise AllZeroState("all-zero seed would lock the generator")
        object.__setattr__(self, "seed", seed)

    @property
    def length(self) -> int:
        """Maximal sequence length 2^N - 1 for this stage count."""
        return (1 << self.stages) - 1

    @property
    def stage_select(self) -> int | None:
        """The chip's 3-bit stage-select value; None outside stages 5..12."""
        return None if self.tap_word is None else self.stages - CHIP_STAGES_MIN

    @property
    def tap_word(self) -> int | None:
        """The chip's 12-bit tap word; None outside stages 5..12."""
        on_chip = CHIP_STAGES_MIN <= self.stages <= CHIP_STAGES_MAX
        return _tap_word(self.taps) if on_chip else None

    def seed_int(self) -> int:
        """Seed packed into an int, stage i in bit i-1 (stage 1 = LSB)."""
        return sum(b << i for i, b in enumerate(self.seed))

    def to_json_dict(self) -> dict:
        """JSON object form: {stages, structure, taps, seed(hex), codes(binary)}."""
        on_chip = self.tap_word is not None
        return {
            "stages": self.stages,
            "structure": self.structure.value,
            "taps": list(self.taps),
            "seed": format(self.seed_int(), "x"),
            "stage_select": format(self.stage_select, "03b") if on_chip else None,
            "tap_word": format(self.tap_word, "012b") if on_chip else None,
        }


def decode_controls(
    stage_select: int | str,
    tap_word: int | str,
    structure: Structure = Structure.MSRG,
) -> PnConfig:
    """Decode the 3-bit stage select and 12-bit tap word into a PnConfig.

    stages = 5 + value(S<2:0>); bit i of SW<12:1> selects tap position i.
    PnConfig raises EmptyTaps for a zero word and TapOutOfRange for set bits
    above the selected stage count, so configuration mistakes surface
    immediately.
    """
    stages = CHIP_STAGES_MIN + _parse_code(stage_select, 3, "stage_select")
    taps = _word_taps(_parse_code(tap_word, 12, "tap_word"))
    return PnConfig(stages=stages, structure=structure, taps=taps)


def default_config(
    stages: int, structure: Structure = Structure.MSRG
) -> PnConfig:
    """Chip-style config with the shipped primitive tap set for this N."""
    if stages not in DEFAULT_TAPS:
        raise ConfigError(f"no default tap set for stages={stages}")
    return PnConfig(stages=stages, structure=structure, taps=DEFAULT_TAPS[stages])


def _register_update(config: PnConfig):
    """The register's clock as advance(state) -> next state.

    Stage N (state >> (stages - 1)) is the output. SSRG shifts the XOR of the
    tapped stages in at stage 1; MSRG XOR-injects the output at each tap adder
    during the shift. States are ints, stage i in bit i-1. The feedback word is
    formed once per code: the SSRG tap word, or the MSRG inject mask, which
    feeds stage 1 and the adder between stages t and t+1 for each tap t < N.
    """
    full = config.length
    top = config.stages - 1
    if config.structure is Structure.SSRG:
        taps = _tap_word(config.taps)

        def advance(state: int) -> int:
            return ((state << 1) | (state & taps).bit_count() & 1) & full

    else:
        inject = 1 | sum(1 << t for t in config.taps if t < config.stages)

        def advance(state: int) -> int:
            return ((state << 1) & full) ^ (inject & -(state >> top))

    return advance


@dataclass(frozen=True)
class ChipSequence:
    """One period of binary chips plus its chip rate."""

    chips: np.ndarray
    chip_rate: float = 1.0
    config: PnConfig | None = None

    def __post_init__(self):
        freeze_arrays(self, np.uint8, "chips")
        if self.chips.ndim != 1 or self.chips.size == 0:
            raise ConfigError("chips must be a nonempty 1-D bit array")
        if self.chips.max(initial=0) > 1:
            raise ConfigError("chips must be 0/1")
        finite_real(self.chip_rate, "chip_rate", positive=True)

    def __len__(self) -> int:
        return int(self.chips.size)

    def bipolar(self) -> np.ndarray:
        """Chips mapped 0 -> +1, 1 -> -1, as float64."""
        return 1.0 - 2.0 * self.chips.astype(np.float64)

    def to_ascii(self) -> str:
        """One line of '0'/'1' characters."""
        return "".join("1" if c else "0" for c in self.chips)


def generate_period(config: PnConfig, chip_rate: float = 1.0) -> ChipSequence:
    """Generate exactly one full period starting from the seed.

    Raises NotMaximal, carrying the short cycle walked, when the tap set is
    not primitive for this stage count, so callers can reject bad tap words.
    """
    advance = _register_update(config)
    seed = config.seed_int()
    state, top = seed, config.stages - 1
    limit = config.length
    refuse_beyond_memory(limit, f"code period of {limit:.4g} chips")
    out = bytearray(limit)
    for i in range(limit):
        out[i] = state >> top
        state = advance(state)
        if state == seed and i + 1 < limit:
            cycle = np.frombuffer(out[: i + 1], dtype=np.uint8)
            raise NotMaximal(ChipSequence(cycle, chip_rate, config))
    chips = np.frombuffer(out, dtype=np.uint8)
    return ChipSequence(chips=chips, chip_rate=chip_rate, config=config)


@dataclass(frozen=True)
class RunHistogram:
    """Cyclic run-length counts, split by the repeated symbol."""

    ones: dict[int, int]
    zeros: dict[int, int]


def run_histogram(seq: ChipSequence) -> RunHistogram:
    """Count runs of consecutive equal chips on the cyclic sequence.

    Cyclic counting makes the histogram rotation-invariant; a constant
    sequence is a single run spanning the whole period.
    """
    chips = seq.chips
    n = chips.size
    boundaries = np.flatnonzero(chips != np.roll(chips, 1))
    ones: dict[int, int] = {}
    zeros: dict[int, int] = {}
    if boundaries.size == 0:
        target = ones if chips[0] else zeros
        target[n] = 1
        return RunHistogram(ones=ones, zeros=zeros)
    lengths = np.diff(np.append(boundaries, boundaries[0] + n))
    for start, length in zip(boundaries, lengths):
        target = ones if chips[start] else zeros
        length = int(length)
        target[length] = target.get(length, 0) + 1
    return RunHistogram(ones=ones, zeros=zeros)


def expected_maximal_runs(stages: int) -> RunHistogram:
    """Run histogram an N-stage maximal sequence must show.

    One ones-run of length N and one zeros-run of length N-1; for each
    1 <= k <= N-2 there are exactly 2^(N-2-k) runs of ones and as many
    of zeros.
    """
    ones = {stages: 1}
    zeros = {stages - 1: 1}
    for k in range(1, stages - 1):
        ones[k] = 1 << (stages - 2 - k)
        zeros[k] = 1 << (stages - 2 - k)
    return RunHistogram(ones=ones, zeros=zeros)


def validate_m_sequence(seq: ChipSequence) -> dict:
    """Check every m-sequence law on one generated period.

    Returns a report dict with the measured quantities and a ``violations``
    list naming each failed law (empty for a proper maximal sequence).
    """
    n_stages = seq.config.stages if seq.config else None
    length = len(seq)
    ones = int(seq.chips.sum())
    zeros = length - ones
    hist = run_histogram(seq)
    b = seq.bipolar()
    spectrum = np.fft.fft(b)
    acf = np.fft.ifft(spectrum * np.conj(spectrum)).real
    acf = np.rint(acf).astype(np.int64)
    off_peak = acf[1:]

    violations = []
    if n_stages is not None:
        if length != seq.config.length:
            violations.append(f"period: {length} != 2^{n_stages}-1 = {seq.config.length}")
        if ones != 1 << (n_stages - 1):
            violations.append(f"balance: {ones} ones != {1 << (n_stages - 1)}")
        if hist != expected_maximal_runs(n_stages):
            violations.append("runs: histogram deviates from the maximal-sequence law")
    else:
        if ones != zeros + 1:
            violations.append(f"balance: {ones} ones vs {zeros} zeros")
    if acf[0] != length:
        violations.append(f"autocorrelation: lag 0 gave {acf[0]} != {length}")
    if off_peak.size and (off_peak.min() != -1 or off_peak.max() != -1):
        violations.append(
            "autocorrelation: off-peak values span "
            f"[{off_peak.min()}, {off_peak.max()}], expected -1"
        )

    return {
        "stages": n_stages,
        "period": length,
        "ones": ones,
        "zeros": zeros,
        "run_histogram": {
            "ones": {str(k): v for k, v in sorted(hist.ones.items())},
            "zeros": {str(k): v for k, v in sorted(hist.zeros.items())},
        },
        "autocorrelation": {
            "lag0": int(acf[0]),
            "off_peak_min": int(off_peak.min()) if off_peak.size else None,
            "off_peak_max": int(off_peak.max()) if off_peak.size else None,
        },
        "violations": violations,
    }
