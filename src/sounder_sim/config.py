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

import json
import math
import re
from dataclasses import dataclass, field, replace

from .channel import ChannelModel, check_keys
from .errors import ConfigError
from .pn import PnConfig, Structure, decode_controls, seed_from_hex
from .sounder import Mode, SounderConfig

SCHEMA_VERSION = 1

_RATE_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([kKmMgG]?[hH][zZ])?\s*$"
)
_RATE_SCALE = {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def parse_rate(value, name: str = "rate") -> float:
    """A frequency in Hz from a number or a unit-suffixed string."""
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected a rate, got {value!r}")
    if isinstance(value, (int, float)):
        rate = float(value)
    elif isinstance(value, str):
        m = _RATE_RE.match(value)
        if not m:
            raise ConfigError(
                f'{name}: cannot parse {value!r} as a rate (try "999.95 MHz")'
            )
        suffix = (m.group(2) or "").lower()
        rate = float(m.group(1)) * _RATE_SCALE[suffix]
    else:
        raise ConfigError(f"{name}: expected a rate, got {value!r}")
    if not math.isfinite(rate) or rate <= 0:
        raise ConfigError(f"{name}: rate must be positive and finite, got {value!r}")
    return rate


def _parse_pn(section, where: str = "pn") -> PnConfig:
    check_keys(
        section,
        {"stages", "structure", "taps", "seed", "stage_select", "tap_word"},
        where,
    )
    try:
        if "stages" in section or "taps" in section:
            return PnConfig.from_json_dict(section)
        if "stage_select" in section and "tap_word" in section:
            cfg = decode_controls(
                section["stage_select"],
                section["tap_word"],
                structure=Structure(section.get("structure", "msrg")),
            )
            return replace(cfg, seed=seed_from_hex(section.get("seed"), cfg.stages))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{where} section: {err}") from None
    raise ConfigError(
        f"{where} section needs either stages+taps or stage_select+tap_word"
    )


@dataclass(frozen=True)
class SpectrumSpec:
    """Settings for spectrum export; chip_rate falls back to sounder alpha."""

    samples_per_chip: int = 4
    periods: int = 1
    fft_size: int | None = None
    null_count: int = 1
    chip_rate: float | None = None


@dataclass(frozen=True)
class RunSpec:
    """A parsed, normalized run configuration."""

    pn: PnConfig
    alpha: float | None = None
    beta: float | None = None
    sample_rate: float | None = None
    lpf_cutoff: float | None = None
    capture: float | None = None
    beta_ppm_error: float = 0.0
    channel: ChannelModel | None = None
    periods: int = 4
    bins_per_chip: int = 1
    floor_db: float = -20.0
    threads: int | None = None
    spectrum: SpectrumSpec = field(default_factory=SpectrumSpec)

    def sounder_config(self, mode: Mode = Mode.RX) -> SounderConfig:
        if self.alpha is None or self.beta is None:
            raise ConfigError(
                'this command needs a "sounder" section with alpha and beta'
            )
        return SounderConfig(
            pn=self.pn,
            alpha=self.alpha,
            beta=self.beta,
            sample_rate=self.sample_rate,
            lpf_cutoff=self.lpf_cutoff,
            capture=self.capture,
            mode=mode,
            beta_ppm_error=self.beta_ppm_error,
        )

    def to_json_dict(self) -> dict:
        doc: dict = {"schema_version": SCHEMA_VERSION, "pn": self.pn.to_json_dict()}
        if self.alpha is not None:
            sounder = {"alpha": self.alpha, "beta": self.beta,
                       "sample_rate": self.sample_rate}
            if self.lpf_cutoff is not None:
                sounder["lpf_cutoff"] = self.lpf_cutoff
            if self.capture is not None:
                sounder["capture"] = self.capture
            if self.beta_ppm_error:
                sounder["beta_ppm_error"] = self.beta_ppm_error
            doc["sounder"] = sounder
        if self.channel is not None:
            doc["channel"] = self.channel.to_json_dict()
        doc["extraction"] = {
            "periods": self.periods,
            "bins_per_chip": self.bins_per_chip,
            "floor_db": self.floor_db,
            "threads": self.threads,
        }
        doc["spectrum"] = {
            "samples_per_chip": self.spectrum.samples_per_chip,
            "periods": self.spectrum.periods,
            "fft_size": self.spectrum.fft_size,
            "null_count": self.spectrum.null_count,
            "chip_rate": self.spectrum.chip_rate,
        }
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
        pn = _parse_pn(obj["pn"])
        if "pn_rx" in obj and _parse_pn(obj["pn_rx"], "pn_rx") != pn:
            raise ConfigError(
                "pn_rx differs from pn: both code generators share one code"
                " configuration and must be programmed identically"
            )

        alpha = beta = sample_rate = lpf = capture = None
        ppm = 0.0
        snd = obj.get("sounder")
        if snd is not None:
            check_keys(
                snd,
                {"alpha", "beta", "sample_rate", "lpf_cutoff", "capture",
                 "beta_ppm_error"},
                "sounder",
            )
            if "alpha" not in snd or "beta" not in snd:
                raise ConfigError("sounder section needs alpha and beta")
            alpha = parse_rate(snd["alpha"], "sounder.alpha")
            beta = parse_rate(snd["beta"], "sounder.beta")
            sample_rate = (
                parse_rate(snd["sample_rate"], "sounder.sample_rate")
                if "sample_rate" in snd and snd["sample_rate"] is not None
                else 2.0 * alpha
            )
            if snd.get("lpf_cutoff") is not None:
                lpf = parse_rate(snd["lpf_cutoff"], "sounder.lpf_cutoff")
            if snd.get("capture") is not None:
                capture = float(snd["capture"])
            ppm = float(snd.get("beta_ppm_error", 0.0))

        channel = None
        if obj.get("channel") is not None:
            channel = ChannelModel.from_json_dict(obj["channel"])

        ext = obj.get("extraction") or {}
        check_keys(ext, {"periods", "bins_per_chip", "floor_db", "threads"},
                   "extraction")
        threads = ext.get("threads")
        sp = obj.get("spectrum") or {}
        check_keys(
            sp,
            {"samples_per_chip", "periods", "fft_size", "null_count", "chip_rate"},
            "spectrum",
        )
        try:
            spectrum = SpectrumSpec(
                samples_per_chip=int(sp.get("samples_per_chip", 4)),
                periods=int(sp.get("periods", 1)),
                fft_size=(None if sp.get("fft_size") is None
                          else int(sp["fft_size"])),
                null_count=int(sp.get("null_count", 1)),
                chip_rate=(None if sp.get("chip_rate") is None
                           else parse_rate(sp["chip_rate"], "spectrum.chip_rate")),
            )
            floor_db = float(ext.get("floor_db", -20.0))
            if not math.isfinite(floor_db):
                raise ConfigError(
                    f"extraction.floor_db must be finite, got {ext['floor_db']!r}"
                )
            return cls(
                pn=pn,
                alpha=alpha,
                beta=beta,
                sample_rate=sample_rate,
                lpf_cutoff=lpf,
                capture=capture,
                beta_ppm_error=ppm,
                channel=channel,
                periods=int(ext.get("periods", 4)),
                bins_per_chip=int(ext.get("bins_per_chip", 1)),
                floor_db=floor_db,
                threads=None if threads is None else int(threads),
                spectrum=spectrum,
            )
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"config: {err}") from None


def load_config(path) -> RunSpec:
    """Parse a config (or run manifest) JSON file into a RunSpec."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    return RunSpec.from_json_dict(obj)


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
