"""Channel measurements from power-delay profiles.

Peak picking honors what a spread-spectrum correlator can actually resolve:
the delay resolution is one chip, and the code's own autocorrelation leaves
a flat sidelobe pedestal at -20*log10(L) dB. Maxima that sit inside a
stronger peak's chip, or down at that pedestal, are reported but flagged as
sidelobe suspects rather than silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyProfile
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


def extract_paths(pdp: PdpProfile, floor_db: float) -> list[PathEstimate]:
    """Pick multipath components out of a profile.

    All cyclic local maxima above floor_db (relative to the 0 dB peak) are
    candidates. A candidate merges into a strictly stronger accepted peak
    when it lies less than one chip away and the valley between them is
    shallower than 1 dB below the candidate - that is the signature of one
    broadened lobe sampled at sub-chip bins, not of two paths. Kept paths are
    flagged is_sidelobe_suspect when within a chip of a stronger path or when
    their power sits within 3 dB of the code's -20*log10(L) sidelobe pedestal.
    """
    if not floor_db < 0:
        raise ConfigError(f"floor_db must be negative, got {floor_db}")
    power = pdp.power_db
    if power.size == 0:
        raise EmptyProfile("profile has no bins")

    if pdp.alpha:
        chip = 1.0 / pdp.alpha
    elif pdp.delays.size > 1:
        chip = (pdp.delays[1] - pdp.delays[0]) * pdp.bins_per_chip
    else:
        chip = 1.0
    if pdp.delays.size > 1:
        span = pdp.delays.size * (pdp.delays[1] - pdp.delays[0])
    else:
        span = chip

    def cyc_dist(a: float, b: float) -> float:
        d = abs(a - b) % span
        return min(d, span - d)

    def valley_between(i: int, j: int) -> float:
        """Deepest power on the shorter cyclic arc strictly between i and j."""
        n = power.size
        fwd = (j - i) % n
        back = (i - j) % n
        if fwd <= back:
            arc = [(i + k) % n for k in range(1, fwd)]
        else:
            arc = [(j + k) % n for k in range(1, back)]
        if not arc:
            return power[i]
        return float(np.min(power[arc]))

    candidates = [k for k in plateau_peaks(power, cyclic=True) if power[k] >= floor_db]
    candidates.sort(key=lambda k: (-power[k], pdp.delays[k]))

    accepted: list[int] = []
    for k in candidates:
        merged = False
        for a in accepted:
            if power[a] <= power[k]:
                continue
            if cyc_dist(pdp.delays[k], pdp.delays[a]) < chip:
                if power[k] - valley_between(a, k) < 1.0:
                    merged = True
                    break
        if not merged:
            accepted.append(k)

    pedestal = -20.0 * math.log10(pdp.code_length) if pdp.code_length > 1 else None
    paths = []
    for k in accepted:
        near_stronger = any(
            power[a] > power[k] and cyc_dist(pdp.delays[k], pdp.delays[a]) < chip
            for a in accepted
        )
        at_pedestal = pedestal is not None and power[k] <= pedestal + 3.0
        paths.append(
            PathEstimate(
                delay=float(pdp.delays[k]),
                power_db=float(power[k]),
                is_sidelobe_suspect=bool(near_stronger or at_pedestal),
            )
        )
    paths.sort(key=lambda p: p.delay)
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
        "sidelobe_floor_db": -20.0 * math.log10(length),
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
