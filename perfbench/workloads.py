"""Workload inputs, command lines and output checks for the benchmark.

A workload turns the benchmark seed into config and channel JSON files and
hands the program only those files. Inputs are drawn with ``random.Random``
so that one seed gives the same files on every Python and numpy version.

Every op is checked after it returns:

- each configured path is reported within one chip of its true delay, and
  the strongest reported path sits within one chip of 0 ns;
- ``pn validate`` reports no violations;
- the first spectral null sits at the chip rate, within one resolution bin.

The expected values come from the workload definition, never from the
program's own output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Outputs whose bytes must repeat for equal inputs; manifest.json is left
# out because its duration_s changes on every run.
SOUND_OUTPUTS = ("trace.csv", "profile.csv", "paths.csv")
SWEEP_OUTPUTS = ("validate.json", "spectrum.csv", "spectrum.json")


@dataclass(frozen=True)
class Case:
    """One code and channel: input files and what the outputs must show.

    An op is a tuple of cases run back to back; each case reads its inputs
    from, and writes its outputs to, a subdirectory named after it.
    """

    name: str
    config: str
    channel: str
    threads: int
    paths: tuple  # configured (delay_ns, gain_db) pairs
    chip_rate: float
    code_length: int
    samples: int  # correlator input samples of the sound command
    sweep: bool = False  # also run `pn validate` and `spectrum` first

    def commands(self, out: str) -> list[list[str]]:
        cmds = []
        if self.sweep:
            cmds.append(["pn", "validate", "--config", self.config,
                         "--out", f"{out}/validate.json"])
            cmds.append(["spectrum", "--config", self.config,
                         "--out", f"{out}/spectrum.csv"])
        cmds.append(["sound", "--config", self.config, "--channel", self.channel,
                     "--out", out, "--threads", str(self.threads)])
        return cmds

    @property
    def outputs(self) -> tuple:
        return SOUND_OUTPUTS + (SWEEP_OUTPUTS if self.sweep else ())


def capture_samples(config: str) -> int:
    """Samples in the capture the program sizes from this config file."""
    from sounder_sim.config import load_config
    from sounder_sim.sounder import Mode

    rx = load_config(config).sounder_config(Mode.RX)
    return int(round(rx.capture * rx.sample_rate))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _make_case(inputs: Path, name: str, *, pn: dict, stages: int, alpha: float,
               beta: float, fs: float, floor_db: float, threads: int, paths: list,
               snr_db, noise_seed: int, sweep: bool) -> Case:
    """Write the config and channel files of one case under ``inputs/name``."""
    config = {
        "schema_version": 1,
        "pn": pn,
        "sounder": {"alpha": alpha, "beta": beta, "sample_rate": fs},
        "extraction": {"periods": 4, "floor_db": floor_db},
    }
    channel = {
        "paths": [{"delay_ns": d, "gain_db": g, "phase_deg": p} for d, g, p in paths],
        "snr_db": snr_db,
        "seed": noise_seed,
    }
    folder = inputs / name
    folder.mkdir(parents=True, exist_ok=True)
    config_file = _write_json(folder / "config.json", config)
    return Case(
        name=name,
        config=config_file,
        channel=_write_json(folder / "channel.json", channel),
        threads=threads,
        paths=tuple((d, g) for d, g, _ in paths),
        chip_rate=alpha,
        code_length=(1 << stages) - 1,
        samples=capture_samples(config_file),
        sweep=sweep,
    )


def _order_of_x(poly: int, degree: int) -> int:
    """Multiplicative order of x modulo a GF(2) polynomial with p(0) = 1."""
    r, order = 1, 0
    while True:
        r <<= 1
        if r >> degree & 1:
            r ^= poly
        order += 1
        if r == 1 or order > (1 << degree):
            return order


def primitive_tap_words(stages: int) -> list[int]:
    """Tap words whose polynomial 1 + sum(x^t) is primitive of this degree.

    The reciprocal of a primitive polynomial is primitive, so the set does
    not depend on which end of the register the program counts taps from.
    """
    words = []
    for low in range(1 << (stages - 1)):
        word = (1 << (stages - 1)) | low
        poly = 1 | (word << 1)
        if _order_of_x(poly, stages) == (1 << stages) - 1:
            words.append(word)
    return words


def _spaced_chips(rng: random.Random, count: int, length: int) -> list[int]:
    """Distinct chip delays at least 3 chips from each other and from 0."""
    while True:
        picks = sorted(rng.sample(range(3, length - 2), count))
        if all(b - a >= 3 for a, b in zip(picks, picks[1:])):
            return picks


@dataclass
class Workload:
    """A seeded source of ops; an op is a tuple of cases."""

    name: str
    seed: int
    inputs: Path
    _rng: random.Random = field(init=False)
    _fixed: tuple | None = field(init=False, default=None)

    def __post_init__(self):
        self._rng = random.Random(f"{self.name}:{self.seed}")

    @property
    def repeats_inputs(self) -> bool:
        return self.name != "code-sweep"

    def next_op(self) -> tuple:
        """The next op's cases, their inputs written before the op is timed."""
        if not self.repeats_inputs:
            return _BUILDERS[self.name](self._rng, self.inputs)
        if self._fixed is None:
            self._fixed = _BUILDERS[self.name](self._rng, self.inputs)
        return self._fixed


def _desk_n11(rng, inputs):
    # README desk instrument at N = 11: 8.6 M samples, 172k trace rows.
    return (_make_case(
        inputs, "n11", pn={"stages": 11, "taps": [11, 8, 5, 2]}, stages=11,
        alpha=1e6, beta=0.995e6, fs=4e6, floor_db=-12.0, threads=2,
        paths=[(0.0, 0.0, 0.0), (3000.0, -6.0, 0.0)],
        snr_db=30.0, noise_seed=rng.randrange(1 << 31), sweep=False,
    ),)


PAPER_DELAYS_NS = (0, 5, 11, 18, 26, 33)
PAPER_GAINS_DB = (0.0, -3.0, -6.0, -9.0, -12.0, -15.0)


def _paper_gamma(rng, inputs):
    # The paper's gamma of 20000, at N = 6 so that one op needs about 0.7 GB.
    paths = [(float(d), g, round(rng.uniform(0.0, 360.0), 3))
             for d, g in zip(PAPER_DELAYS_NS, PAPER_GAINS_DB)]
    return (_make_case(
        inputs, "n6", pn={"stages": 6, "taps": [6, 5]}, stages=6,
        alpha=1e9, beta=999.95e6, fs=2e9, floor_db=-20.0, threads=1,
        paths=paths, snr_db=None, noise_seed=0, sweep=False,
    ),)


SWEEP_STAGES = (5, 6, 7, 8)
_TAP_WORDS = {n: primitive_tap_words(n) for n in SWEEP_STAGES}


def _sweep_case(rng, inputs, stages: int) -> Case:
    """A random primitive code of this length and 1-3 extra paths."""
    word = rng.choice(_TAP_WORDS[stages])
    length = (1 << stages) - 1
    extra = rng.randint(1, 3)
    delays = _spaced_chips(rng, extra, length)
    # Extra paths stay 3 dB below the 0 dB path: the default low-pass
    # averages only about 16 chips, and its partial-correlation self-noise
    # moves near-equal paths by more than 1 dB.
    paths = [(0.0, 0.0, 0.0)] + [
        (1000.0 * d, round(rng.uniform(-6.0, -3.0), 3),
         round(rng.uniform(0.0, 360.0), 3))
        for d in delays
    ]
    return _make_case(
        inputs, f"n{stages}",
        pn={"stage_select": format(stages - 5, "03b"), "tap_word": format(word, "012b")},
        stages=stages, alpha=1e6, beta=0.995e6, fs=2e6, floor_db=-12.0,
        threads=1, paths=paths, snr_db=30.0,
        noise_seed=rng.randrange(1 << 31), sweep=True,
    )


def _code_sweep(rng, inputs):
    # One op sweeps N = 5..8, so every op has the same share of each N.
    return tuple(_sweep_case(rng, inputs, n) for n in SWEEP_STAGES)


def _smoke(rng, inputs):
    # One tiny N = 5 case, repeated, for the harness self-test.
    return (_sweep_case(rng, inputs, 5),)


_BUILDERS = {
    "desk-n11": _desk_n11,
    "paper-gamma": _paper_gamma,
    "code-sweep": _code_sweep,
    "smoke": _smoke,
}
WORKLOADS = tuple(_BUILDERS)


def digests(op: tuple, out: str) -> dict:
    """sha256 of each output file of the op whose bytes must repeat."""
    return {
        f"{case.name}/{name}": hashlib.sha256(
            (Path(out) / case.name / name).read_bytes()).hexdigest()
        for case in op
        for name in case.outputs
    }


def _cyclic_ns(a: float, b: float, span: float) -> float:
    d = abs(a - b) % span
    return min(d, span - d)


def read_paths(out: str) -> list[tuple[float, float]]:
    with open(Path(out) / "paths.csv", newline="", encoding="utf-8") as fh:
        return [(float(r["delay_ns"]), float(r["power_db"])) for r in csv.DictReader(fh)]


def path_matches(case: Case, reported: list) -> int:
    """Reported paths within one chip of some configured path."""
    chip_ns = 1e9 / case.chip_rate
    span = case.code_length * chip_ns
    return sum(
        any(_cyclic_ns(d, want, span) <= chip_ns for want, _ in case.paths)
        for d, _ in reported
    )


def check_case(case: Case, out: str) -> list[str]:
    """Problems with one case's outputs in ``out``; empty means correct."""
    problems = []
    chip_ns = 1e9 / case.chip_rate
    span = case.code_length * chip_ns
    reported = read_paths(out)
    for want, gain in case.paths:
        if not any(_cyclic_ns(d, want, span) <= chip_ns for d, _ in reported):
            problems.append(f"path at {want:g} ns / {gain:g} dB not reported")
    if not reported:
        problems.append("no paths reported")
    else:
        strongest = max(reported, key=lambda p: p[1])[0]
        if _cyclic_ns(strongest, 0.0, span) > chip_ns:
            problems.append(f"strongest path at {strongest:g} ns, expected 0 ns")
    if case.sweep:
        report = json.loads((Path(out) / "validate.json").read_text(encoding="utf-8"))
        if report.get("violations"):
            problems.append(f"pn validate: {report['violations']}")
        summary = json.loads((Path(out) / "spectrum.json").read_text(encoding="utf-8"))
        if abs(summary["first_null_hz"] - case.chip_rate) > summary["resolution_bw_hz"]:
            problems.append(
                f"first null at {summary['first_null_hz']:g} Hz,"
                f" chip rate {case.chip_rate:g} Hz"
            )
    return problems


def check_outputs(op: tuple, out: str) -> list[str]:
    """Problems with every case of the op, each prefixed with its case name."""
    return [f"{case.name}: {p}" for case in op
            for p in check_case(case, str(Path(out) / case.name))]
