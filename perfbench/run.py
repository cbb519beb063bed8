"""sounder-sim benchmark: one workload, one fresh process, one closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk-n11 --seed 1 --seconds 18 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    desk-n11     README desk instrument at N = 11, 8.6 M samples per op
    paper-gamma  the paper's gamma = 20000 at N = 6, 13.2 M samples per op
    code-sweep   primitive codes for N = 5..8: pn validate, spectrum, sound
    smoke        one tiny N = 5 case, for the harness self-test

One client runs ops back to back, each starting when the previous one
returns, for ``--seconds`` seconds after a warm-up. An op goes through
``sounder_sim.cli.main`` in this process. Every op's outputs are checked;
an op that raises, exits nonzero or fails its check counts as failed.

Op and set-up times are CPU seconds (user + system, all threads) of the
process that does the work, so that other load on a shared host, which
stretches wall time by whatever share of the cores it takes, does not
move them. Each is then divided by the CPU time of a fixed reference
kernel run right after it, which tracks how fast the machine is at that
moment, and multiplied by the kernel's time on the baseline machine (see
reference.py). Wall and unscaled CPU times are printed on stderr next to
them.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates plain ``cli.main`` ops with traced ones, in
which the package calls the CLI makes are wrapped in spans (see
tracing.py), checks that both write the same bytes, and reports per-layer
medians per op. Spans are written to ``.perfbench_work/`` when the run
ends.

A human-readable report goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
from workloads import WORKLOADS, Workload, check_outputs, digests, path_matches, read_paths

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

SETUP_REPEATS = 4
KERNEL_SHARE = 0.25  # reference kernel CPU time per op, as a share of the op's
TAIL_BEYOND = 10  # ops beyond the reported tail percentile
# A fresh interpreter imports the CLI and parses the workload's config.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import sounder_sim.cli; "
    "from sounder_sim.config import load_config; load_config(sys.argv[2])"
)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(config: str) -> float:
    """CPU seconds of one setup child, from spawn to exit."""
    start = _children_cpu()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), config],
                   check=True, timeout=120)
    return _children_cpu() - start


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten ops beyond it.

    A run with fewer than twice that many ops has no such percentile above
    its median; the interpolated 90th percentile stands in, and the label
    says so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        if n == 1:
            return ordered[0], "the only op"
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
        return p90, f"interpolated p90 of {n} ops (too few for {TAIL_BEYOND} beyond)"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond"


def make_case_dirs(op, out: str) -> None:
    for case in op:
        Path(out, case.name).mkdir(parents=True, exist_ok=True)


class Loop:
    """Runs ops in a closed loop and records their times and failures."""

    def __init__(self, workload, log):
        from sounder_sim import cli

        self.workload = workload
        self.log = log
        self._cli = cli
        self.attempted = 0
        self.failed = 0
        self.first_digests: dict | None = None
        self.last_digests: dict | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.log(f"  op failed: {why}")

    def cli_op(self, op, out: str) -> tuple[float, float] | None:
        """One op through cli.main; its (wall, CPU) seconds, or None if it failed.

        The digests of a verified op's outputs are left in ``last_digests``.
        """
        self.attempted += 1
        make_case_dirs(op, out)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            codes = [self._cli.main(argv) for case in op
                     for argv in case.commands(f"{out}/{case.name}")]
        except (Exception, SystemExit):  # an op that raised is a failed op
            self.fail(f"raised\n{traceback.format_exc()}")
            return None
        elapsed = (time.perf_counter() - start, time.process_time() - cpu_start)
        return elapsed if self.verify(op, out, codes) else None

    def verify(self, op, out: str, codes=()) -> bool:
        """Check one op's exit codes and outputs; keep their digests."""
        self.last_digests = None
        if any(codes):
            self.fail(f"exit codes {codes}")
            return False
        problems = check_outputs(op, out)
        got = digests(op, out)
        if self.first_digests is None:
            self.first_digests = got
        elif self.workload.repeats_inputs and got != self.first_digests:
            problems.append("outputs differ from the first op on equal inputs")
        if problems:
            self.fail("; ".join(problems))
            return False
        self.last_digests = got
        return True


def timed_ops(workload, seconds: float, between=lambda: None):
    """The workload's ops until they have taken ``seconds`` seconds.

    ``between`` runs after each op; its time does not count.
    """
    spent = 0.0
    while spent < seconds:
        start = time.perf_counter()
        yield workload.next_op()
        spent += time.perf_counter() - start
        between()


def run_plain(loop: Loop, seconds: float, out: str, between=lambda: None):
    """Each op's (wall, CPU) seconds, None for a failed op, and its samples."""
    times, samples = [], []
    for op in timed_ops(loop.workload, seconds, between):
        times.append(loop.cli_op(op, out))
        samples.append(sum(case.samples for case in op))
    return times, samples


def run_traced(loop: Loop, seconds: float, out: str, tracer):
    """Alternate cli.main ops and traced ops on the same inputs."""
    from tracing import layer_self_times, traced_op

    cli_times, per_op = [], []
    cli_out, traced_out = f"{out}/cli", f"{out}/traced"
    for i, op in enumerate(timed_ops(loop.workload, seconds)):
        order = ("cli", "traced") if i % 2 == 0 else ("traced", "cli")
        traced = elapsed = cli_digests = traced_digests = None
        for side in order:
            if side == "cli":
                elapsed = loop.cli_op(op, cli_out)
                if elapsed is not None:
                    cli_times.append(elapsed[0])
                    cli_digests = loop.last_digests
                continue
            loop.attempted += 1
            tracer.op_id = i
            make_case_dirs(op, traced_out)
            try:
                first, codes, wall, counts = traced_op(tracer, op, traced_out)
            except (Exception, SystemExit):  # an op that raised is a failed op
                loop.fail(f"traced op raised\n{traceback.format_exc()}")
                continue
            if loop.verify(op, traced_out, codes):
                traced = (first, wall, counts)
                traced_digests = loop.last_digests
        if traced is None or elapsed is None:
            continue
        if cli_digests != traced_digests:
            loop.fail("traced op wrote other bytes than cli.main")
            continue
        first, wall, counts = traced
        spans = tracer.spans[first:]
        selfs, outside = layer_self_times(spans, first)
        # The self times telescope to the root span; it must cover the wall
        # time taken around it, with no span leaving its parent.
        if outside or abs(sum(selfs.values()) - wall) > 1e-3 * wall:
            loop.fail(f"layer self times sum to {sum(selfs.values())} s, op took {wall} s;"
                      f" {outside}")
            continue
        samples = sum(case.samples for case in op)
        if counts["sounder.tx_samples"] != samples:
            loop.fail(f"capture of {counts['sounder.tx_samples']} samples, expected {samples}")
            continue
        reported = matched = trace_bytes = 0
        for case in op:
            case_out = Path(traced_out, case.name)
            paths = read_paths(str(case_out))
            reported += len(paths)
            matched += path_matches(case, paths)
            trace_bytes += (case_out / "trace.csv").stat().st_size
        per_op.append(layer_metrics(spans, selfs, wall, counts, reported, matched,
                                    trace_bytes))
    return cli_times, per_op


def _span_sum(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def layer_metrics(spans, selfs, wall, counts, reported, matched, trace_bytes) -> dict:
    """The per-layer metrics of one traced op."""
    tx_s = _span_sum(spans, "sounder.tx_baseband")
    corr_s = _span_sum(spans, "sounder.sliding_correlate")
    trace_w = _span_sum(spans, "fileio.write_slow_capture_csv")
    m = {
        "config.load_s": _span_sum(spans, "config.load_config"),
        "pn.generate_s": _span_sum(spans, "pn.generate_period"),
        "pn.validate_s": _span_sum(spans, "pn.validate_m_sequence"),
        "pn.chips": counts["pn.chips"],
        "waveform.spectrum_s": selfs["waveform"],
        "waveform.fft_points": counts["waveform.fft_points"],
        "sounder.tx_s": tx_s,
        "sounder.tx_msps": counts["sounder.tx_samples"] / tx_s / 1e6,
        "channel.apply_s": _span_sum(spans, "channel.apply_channel"),
        "channel.path_msamples": counts["channel.path_msamples"],
        "channel.noise_msamples": counts["channel.noise_msamples"],
        "sounder.correlate_s": corr_s,
        "sounder.correlate_msps": counts["sounder.correlate_samples"] / corr_s / 1e6,
        "sounder.slow_samples": counts["sounder.slow_samples"],
        "sounder.capture_mb": counts["sounder.capture_mb"],
        "sounder.extract_pdp_s": _span_sum(spans, "sounder.extract_pdp"),
        "sounder.sync_peaks": counts["sounder.sync_peaks"],
        "sounder.sync_use_ratio": counts["sounder.averaged_over"] / counts["sounder.sync_peaks"],
        "analysis.extract_paths_s": _span_sum(spans, "analysis.extract_paths"),
        "analysis.paths_reported": reported,
        "analysis.path_precision": matched / reported,
        "fileio.trace_write_s": trace_w,
        "fileio.trace_mb_per_s": trace_bytes / 2**20 / trace_w,
        "fileio.small_writes_s": selfs["fileio"] - trace_w,
        "fileio.files_written": sum(s.layer == "fileio" for s in spans),
        "trace.op_s": wall,
    }
    for layer, value in selfs.items():
        m[f"{layer}.self_s"] = value
    return m


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def compare_baseline(name: str, seed: int, got: dict | None) -> str:
    try:
        record = json.loads(BASELINE.read_text(encoding="utf-8"))["workloads"][name]
    except (OSError, KeyError, ValueError):
        return "no baseline record"
    if record.get("seed") != seed:
        return f"baseline digests are for seed {record.get('seed')}"
    return "match baseline" if got == record.get("sha256") else "DIFFER from baseline"


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sounder_sim" / "cli.py").is_file():
        print(f"error: no sounder_sim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    units = load_units()
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        workload = Workload(args.workload, args.seed, run_dir / "inputs")
        first_op = workload.next_op()
        loop = Loop(workload, log)
        out = str(run_dir / "out")
        # One untimed op, so that imports and lazy set-up are done.
        warm = loop.cli_op(first_op, f"{out}/cli" if args.trace else out)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            cli_times, per_op = run_traced(loop, args.seconds, out, tracer)
            metrics = {}
            if per_op:
                metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
            if cli_times and per_op:
                metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(cli_times)
            spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
            log(f"{args.workload}: {len(per_op)} traced ops, {len(cli_times)} cli ops;"
                f" spans in {spans_file.relative_to(ROOT)}")
        else:
            # A setup child after each of the first ops, so that they sample
            # the whole run rather than one stretch of it, and reference
            # kernels after every op.
            setup, kernel = [], []
            calls = max(1, round(KERNEL_SHARE * warm[1] / reference.measure())) if warm else 1

            def measure_kernel():
                kernel.append(statistics.median(reference.measure() for _ in range(calls)))

            def between():
                if len(setup) < SETUP_REPEATS:
                    setup.append(time_setup(first_op[0].config))
                measure_kernel()

            times, samples = run_plain(loop, args.seconds, out, between)
            while len(setup) < SETUP_REPEATS:
                setup.append(time_setup(first_op[0].config))
                measure_kernel()
            metrics = {}
            # Each CPU time over the kernel time that follows it, in seconds of
            # the baseline machine.
            ref = [reference.REFERENCE_S / k for k in kernel]
            scaled = [t[1] * r for t, r in zip(times, ref) if t is not None]
            times = [t for t in times if t is not None]
            if times:
                wall = [w for w, _ in times]
                cpu = [c for _, c in times]
                p50 = statistics.median(scaled)
                tail_s, tail_label = tail(scaled)
                metrics = {
                    "setup_s": statistics.median(t * r for t, r in zip(setup, ref)),
                    "op_ref_s.p50": p50,
                    "op_ref_s.tail": tail_s,
                    "msamples_per_ref_s": statistics.fmean(samples) / p50 / 1e6,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
                log(f"{args.workload} seed {args.seed}: {len(times)} timed ops, closed loop,"
                    f" 1 client; tail is the {tail_label}")
                log(f"  reference kernel: median {statistics.median(kernel):.4g}"
                    f" CPU s, {calls} calls after each of {len(kernel)} ops")
                log(f"  per op: wall p50 {statistics.median(wall):.6g} s, tail"
                    f" {tail(wall)[0]:.6g} s; CPU p50 {statistics.median(cpu):.6g} s,"
                    f" tail {tail(cpu)[0]:.6g} s; setup CPU {statistics.median(setup):.6g} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    log(f"  machine: {machine()}")
    for name, value in metrics.items():
        log(f"  {name:28s} {value:14.6g} {units[name]}")
    log(f"  {'fail_ratio':28s} {loop.failed / loop.attempted:14.6g} ratio"
        f" ({loop.failed} of {loop.attempted} ops)")
    for name, digest in (loop.first_digests or {}).items():
        log(f"  sha256 {name:21s} {digest}")
    log(f"  output digests: {compare_baseline(args.workload, args.seed, loop.first_digests)}")

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
