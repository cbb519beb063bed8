"""Channel measurements from power-delay profiles.

Peak picking honors what a spread-spectrum correlator can actually resolve:
the delay resolution is one chip, and the code's own autocorrelation leaves
a flat sidelobe pedestal at -20*log10(L) dB. Maxima that sit inside a
stronger peak's chip, or down at that pedestal, are reported but flagged as
sidelobe suspects rather than silently dropped. Distances are counted in
whole bins of the profile grid, cyclically: two maxima are within a chip
when fewer than bins_per_chip bins apart, so the rule does not depend on
where a pair sits on the delay axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyProfile, finite_real
from .sounder import PdpProfile, SounderConfig
from .waveform import plateau_peaks


@dataclass(frozen=True)
class PathEstimate:
    delay: float
    power_db: float
    is_sidelobe_suspect: bool = False

    def __post_init__(self):
        if self.power_db > 0:
            raise ConfigError("path powers are relative to the strongest, <= 0 dB")


def _sidelobe_floor_db(code_length: int) -> float:
    """The code's flat autocorrelation sidelobe pedestal, -20*log10(L) dB."""
    return -20.0 * math.log10(code_length)


def extract_paths(pdp: PdpProfile, floor_db: float) -> list[PathEstimate]:
    """Pick multipath components out of a profile.

    All cyclic local maxima above floor_db (relative to the 0 dB peak) are
    candidates. A candidate merges into a strictly stronger accepted peak
    when it lies less than one chip (bins_per_chip bins) away and the valley
    between them is shallower than 1 dB below the candidate - that is the
    signature of one broadened lobe sampled at sub-chip bins, not of two
    paths. Kept paths are flagged is_sidelobe_suspect when within a chip of a
    stronger path or when their power sits within 3 dB of the code's
    -20*log10(L) sidelobe pedestal.
    """
    if not finite_real(floor_db, "floor_db") < 0:
        raise ConfigError(f"floor_db must be negative, got {floor_db}")
    power = pdp.power_db
    n = power.size
    if n == 0:
        raise EmptyProfile("profile has no bins")

    def within_chip(i: int, j: int) -> bool:
        """Whether bins i and j are less than one chip apart on the cycle."""
        d = (i - j) % n
        return min(d, n - d) < pdp.bins_per_chip

    def valley_between(i: int, j: int) -> float:
        """Deepest power on the shorter cyclic arc strictly between i and j."""
        fwd = (j - i) % n
        start, length = (i, fwd) if fwd <= n - fwd else (j, n - fwd)
        if length < 2:
            return power[i]
        return float(np.min(power[(start + np.arange(1, length)) % n]))

    candidates = [k for k in plateau_peaks(power, cyclic=True) if power[k] >= floor_db]
    candidates.sort(key=lambda k: (-power[k], k))

    accepted: list[int] = []
    for k in candidates:
        if not any(
            power[a] > power[k]
            and within_chip(k, a)
            and power[k] - valley_between(a, k) < 1.0
            for a in accepted
        ):
            accepted.append(k)

    pedestal = _sidelobe_floor_db(pdp.code_length) if pdp.code_length > 1 else None
    paths = []
    for k in sorted(accepted):
        near_stronger = any(power[a] > power[k] and within_chip(k, a) for a in accepted)
        at_pedestal = pedestal is not None and power[k] <= pedestal + 3.0
        paths.append(
            PathEstimate(
                delay=float(pdp.delays[k]),
                power_db=float(power[k]),
                is_sidelobe_suspect=bool(near_stronger or at_pedestal),
            )
        )
    return paths


def instrument_metrics(cfg: SounderConfig) -> dict:
    """Figures of merit implied by the configuration, pure arithmetic."""
    length = cfg.pn.length
    return {
        "resolution_s": 1.0 / cfg.alpha,
        "null_to_null_bw_hz": 2.0 * cfg.alpha,
        "max_unambiguous_delay_s": length / cfg.alpha,
        "gamma": cfg.gamma,
        "dilated_period_s": cfg.dilated_period,
        "sidelobe_floor_db": _sidelobe_floor_db(length),
    }


def rms_delay_spread(paths: list[PathEstimate]) -> float:
    """Power-weighted standard deviation of path delays, in seconds."""
    if not paths:
        raise ConfigError("need at least one path")
    weights = np.array([10.0 ** (p.power_db / 10.0) for p in paths])
    delays = np.array([p.delay for p in paths])
    mean = float(np.sum(weights * delays) / np.sum(weights))
    var = float(np.sum(weights * (delays - mean) ** 2) / np.sum(weights))
    return math.sqrt(var)
