"""Traced ops: ``cli.main`` itself, with the package calls it makes in spans.

While a traced op runs, every function that ``sounder_sim.cli`` imported
from another package module (``load_config``, ``generate_period``,
``tx_baseband``, ``apply_channel``, ``write_slow_capture_csv`` and the rest)
and ``ChannelModel.from_json_file`` are replaced by wrappers that record a
span around the call; the originals are put back when the op ends. A span
is named ``<layer>.<function>``, the layer being the package module the
function comes from. ``cli.main`` runs inside a root ``cli.op`` span, so
whatever the CLI does outside the wrapped calls, argument parsing or a call
it adds later, falls in ``cli`` self time.

Spans carry start, end, parent and op id; they stay in memory until the run
ends. A span's self time is its duration minus its child spans' durations.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from contextlib import contextmanager

from sounder_sim import cli
from sounder_sim.channel import ChannelModel
from sounder_sim.sounder import find_sync_peaks

LAYERS = ("config", "pn", "waveform", "channel", "sounder", "analysis", "fileio", "cli")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``span`` nests by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def layer_self_times(spans: list[Span], first: int) -> tuple[dict, list[str]]:
    """Per-layer self time of one op, and the spans that leave their parent.

    ``spans`` are one op's spans and ``first`` the index, within the tracer,
    of the op's root span; parents are tracer indices.
    """
    child_time = [0.0] * len(spans)
    outside = []
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent - first]
            child_time[s.parent - first] += s.duration
            if s.start < p.start or s.end > p.end:
                outside.append(f"{s.name} outside {p.name}")
    selfs = dict.fromkeys(LAYERS, 0.0)
    for s, children in zip(spans, child_time):
        selfs[s.layer] += s.duration - children
    return selfs, outside


COUNTERS = (
    "pn.chips", "waveform.fft_points", "sounder.tx_samples", "channel.path_msamples",
    "channel.noise_msamples", "sounder.correlate_samples", "sounder.capture_mb",
    "sounder.sync_peaks", "sounder.slow_samples", "sounder.averaged_over",
)


def _count(name: str, counts: dict, traces: list, result, args) -> None:
    """Take the op's counters from a wrapped call's arguments and result."""
    if name == "generate_period":
        counts["pn.chips"] += len(result)
    elif name == "power_spectrum":
        points = result.freqs.size
        counts["waveform.fft_points"] += len(args[0]) // points * points
    elif name == "tx_baseband":
        counts["sounder.tx_samples"] += len(result)
    elif name == "apply_channel":
        tx, channel = args[:2]
        counts["channel.path_msamples"] += len(channel.paths) * len(tx) / 1e6
        if channel.snr_db is not None:
            counts["channel.noise_msamples"] += len(tx) / 1e6
    elif name == "sliding_correlate":
        received = args[0]
        counts["sounder.correlate_samples"] += len(received)
        capture_mb = len(received) * received.samples.itemsize / 2**20
        counts["sounder.capture_mb"] = max(counts["sounder.capture_mb"], capture_mb)
        counts["sounder.slow_samples"] += len(result)
        traces.append(result)  # sync peaks are counted after the op
    elif name == "extract_pdp":
        counts["sounder.averaged_over"] += result.averaged_over


def _cli_calls() -> dict:
    """The callables a traced op wraps: name -> (owner, attribute, function)."""
    calls = {}
    for name, obj in vars(cli).items():
        if not inspect.isfunction(obj) or obj.__module__ == cli.__name__:
            continue
        if obj.__module__.startswith("sounder_sim."):
            calls[name] = (cli, name, obj)
    calls["from_json_file"] = (ChannelModel, "from_json_file", ChannelModel.from_json_file)
    return calls


@contextmanager
def _wrapped(t: Tracer, counts: dict, traces: list):
    saved = []
    try:
        for name, (owner, attr, fn) in _cli_calls().items():
            layer = fn.__module__.rsplit(".", 1)[-1]

            def wrapper(*args, _fn=fn, _name=name, _span=f"{layer}.{name}", **kwargs):
                with t.span(_span):
                    result = _fn(*args, **kwargs)
                _count(_name, counts, traces, result, args)
                return result

            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, staticmethod(wrapper) if owner is ChannelModel else wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_op(t: Tracer, op, out: str):
    """Run one op through ``cli.main`` with its package calls traced.

    Returns the op's root span index, the exit codes, the op's wall seconds
    taken outside the tracer, and its counters. Counters sum over the op's
    cases, except ``sounder.capture_mb``, the largest capture the op holds.
    """
    counts = dict.fromkeys(COUNTERS, 0)
    traces = []
    first = len(t.spans)
    with _wrapped(t, counts, traces):
        start = time.perf_counter()
        with t.span("cli.op"):
            codes = [cli.main(argv) for case in op
                     for argv in case.commands(f"{out}/{case.name}")]
        wall = time.perf_counter() - start
    for trace in traces:
        counts["sounder.sync_peaks"] += len(find_sync_peaks(trace))
    return first, codes, wall, counts
