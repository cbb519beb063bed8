"""Run configuration documents and run manifests.

One versioned JSON file can describe everything a run needs: the code
generator (``pn``), the sounder rates (``sounder``), a multipath channel
(``channel``), profile extraction settings (``extraction``), and spectrum
export settings (``spectrum``). Rates accept unit suffixes ("1 GHz",
"999.95 MHz", "80 kHz", or plain numbers in Hz) and normalize to Hz floats
on load.

The command-line tool writes a RunManifest JSON next to its outputs. The
manifest embeds the normalized config document, so a manifest is accepted
anywhere a config file is and reproduces the run it records.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, replace

from .channel import ChannelModel, check_keys, read_json_file, read_section, strict_int
from .errors import ConfigError
from .pn import PnConfig, Structure, decode_controls
from .sounder import Mode, SounderConfig

SCHEMA_VERSION = 1

_RATE_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([kKmMgG]?[hH][zZ])?\s*$"
)
_RATE_SCALE = {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def _hz(value) -> float:
    """A frequency in Hz from a number or a unit-suffixed string."""
    if isinstance(value, str):
        m = _RATE_RE.match(value)
        if not m:
            raise ValueError(f'cannot parse {value!r} as a rate (try "999.95 MHz")')
        rate = float(m.group(1)) * _RATE_SCALE[(m.group(2) or "").lower()]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        rate = float(value)
    else:
        raise TypeError(f"expected a rate, got {value!r}")
    if not math.isfinite(rate) or rate <= 0:
        raise ValueError(f"rate must be positive and finite, got {value!r}")
    return rate


def parse_rate(value, name: str = "rate") -> float:
    """A frequency in Hz, as _hz; a refused value is a ConfigError naming name."""
    try:
        return _hz(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name}: {err}") from None


@dataclass(frozen=True)
class SpectrumSpec:
    """Settings for spectrum export; chip_rate falls back to sounder alpha."""

    samples_per_chip: int = 4
    periods: int = 1
    fft_size: int | None = None
    null_count: int = 1
    chip_rate: float | None = None


# Each section's keys and converters. A null or absent key takes its
# SounderConfig, RunSpec or SpectrumSpec field default: a dataclass keeps
# those defaults as class attributes, so vars() of the class maps each key to
# its default.
_SOUNDER = {"alpha": _hz, "beta": _hz, "sample_rate": _hz, "lpf_cutoff": _hz,
            "capture": float, "beta_ppm_error": float}
_EXTRACTION = {"periods": strict_int, "bins_per_chip": strict_int,
               "floor_db": float, "threads": strict_int}
_SPECTRUM = {"samples_per_chip": strict_int, "periods": strict_int,
             "fft_size": strict_int, "null_count": strict_int, "chip_rate": _hz}


def _taps(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of tap positions, got {value!r}")
    return tuple(strict_int(tap) for tap in value)


def _hex(value) -> int:
    if not isinstance(value, str):
        raise TypeError(f"expected a hex string, got {value!r}")
    return int(value, 16)


def _control_word(value) -> int | str:
    """A control word as an integer, or a binary string for decode_controls."""
    return value if isinstance(value, str) else strict_int(value)


_PN = {"stages": strict_int, "structure": Structure, "taps": _taps, "seed": _hex,
       "stage_select": _control_word, "tap_word": _control_word}


def _read_pn(section, where: str) -> PnConfig:
    """The code a pn section programs by stages+taps, control words, or both.

    When both forms are given they must describe the same code.
    """
    f = read_section(section, _PN, where, {"structure": Structure.MSRG})
    for first, second in (("stages", "taps"), ("stage_select", "tap_word")):
        if (f[first] is None) != (f[second] is None):
            raise ConfigError(f"{where} section needs {first} and {second} together")
    codes = []
    try:
        if f["stages"] is not None:
            codes.append(PnConfig(f["stages"], f["structure"], f["taps"]))
        if f["stage_select"] is not None:
            codes.append(
                decode_controls(f["stage_select"], f["tap_word"], f["structure"])
            )
    except ConfigError as err:  # a rule of the code itself; name the section
        raise type(err)(f"{where} section: {err}") from None
    if not codes:
        raise ConfigError(f"{where} section needs stages+taps or stage_select+tap_word")
    code, seed = codes[0], f["seed"]
    if codes[-1] != code:
        raise ConfigError(f"{where} section: stages/taps give taps {code.taps},"
                          f" stage_select/tap_word give {codes[-1].taps}")
    if seed is None:
        return code
    if seed >> code.stages:  # a negative seed is refused here too
        raise ConfigError(f"{where}.seed {seed:#x} does not fit in {code.stages} bits")
    try:
        return replace(code, seed=tuple((seed >> i) & 1 for i in range(code.stages)))
    except ConfigError as err:
        raise type(err)(f"{where} section: {err}") from None


@dataclass(frozen=True)
class RunSpec:
    """A parsed, normalized run configuration."""

    pn: PnConfig
    sounder: SounderConfig | None = None
    channel: ChannelModel | None = None
    periods: int = 4
    bins_per_chip: int = 1
    floor_db: float = -20.0
    threads: int | None = None
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)

    def sounder_config(self, mode: Mode = Mode.RX) -> SounderConfig:
        if self.sounder is None:
            raise ConfigError(
                'this command needs a "sounder" section with alpha and beta'
            )
        return replace(self.sounder, mode=mode)

    def to_json_dict(self) -> dict:
        doc: dict = {"schema_version": SCHEMA_VERSION, "pn": self.pn.to_json_dict()}
        if self.sounder is not None:
            # leave out a zero clock error; every other value is a resolved,
            # positive rate or capture
            sounder = {key: getattr(self.sounder, key) for key in _SOUNDER}
            doc["sounder"] = {key: value for key, value in sounder.items() if value}
        if self.channel is not None:
            doc["channel"] = self.channel.to_json_dict()
        doc["extraction"] = {key: getattr(self, key) for key in _EXTRACTION}
        doc["spectrum"] = asdict(self.spectrum)
        return doc

    @classmethod
    def from_json_dict(cls, obj) -> "RunSpec":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be a JSON object")
        if obj.get("kind") == "run_manifest":
            obj = obj.get("config")
            if not isinstance(obj, dict):
                raise ConfigError("manifest carries no embedded config document")
        version = obj.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {version!r}; this tool reads"
                f" version {SCHEMA_VERSION}"
            )
        check_keys(
            obj,
            {"schema_version", "pn", "pn_rx", "sounder", "channel",
             "extraction", "spectrum"},
            "config",
        )
        if "pn" not in obj:
            raise ConfigError('config needs a "pn" section')
        pn = _read_pn(obj["pn"], "pn")
        if "pn_rx" in obj and _read_pn(obj["pn_rx"], "pn_rx") != pn:
            raise ConfigError(
                "pn_rx differs from pn: both code generators share one code"
                " configuration and must be programmed identically"
            )

        sounder = None
        if obj.get("sounder") is not None:
            rates = read_section(obj["sounder"], _SOUNDER, "sounder", vars(SounderConfig))
            if rates["alpha"] is None or rates["beta"] is None:
                raise ConfigError("sounder section needs alpha and beta")
            try:
                sounder = SounderConfig(pn=pn, **rates)
            except ConfigError as err:  # a rule of the sounder; name the section
                raise type(err)(f"sounder section: {err}") from None
        channel = None
        if obj.get("channel") is not None:
            channel = ChannelModel.from_json_dict(obj["channel"])
        spectrum = read_section(
            obj.get("spectrum"), _SPECTRUM, "spectrum", vars(SpectrumSpec)
        )
        return cls(
            pn=pn,
            sounder=sounder,
            channel=channel,
            spectrum=SpectrumSpec(**spectrum),
            **read_section(obj.get("extraction"), _EXTRACTION, "extraction", vars(cls)),
        )


def load_config(path) -> RunSpec:
    """Parse a config (or run manifest) JSON file into a RunSpec."""
    return RunSpec.from_json_dict(read_json_file(path, "config"))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one tool run bit for bit.

    ``config`` is the normalized config document of the run (with any
    command-line overrides folded in), so feeding the manifest back as
    --config replays the run.
    """

    config: dict
    seeds: dict
    derived: dict
    outputs: tuple
    duration_s: float
    tool_version: str

    def to_json_dict(self) -> dict:
        return {
            "kind": "run_manifest",
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config": self.config,
            "seeds": self.seeds,
            "derived": self.derived,
            "outputs": list(self.outputs),
            "duration_s": self.duration_s,
        }
