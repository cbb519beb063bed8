"""Self-tests of the benchmark harness.

Run from anywhere in a source checkout:

    python3 perfbench/selftest.py

or with pytest: ``python3 -m pytest perfbench/selftest.py``.

- A smoke run of ``run.py`` on the tiny ``smoke`` workload (one N = 5
  sweep op, repeated) prints every metric BENCHMARK.json names, each with
  its unit, untraced and traced, with no failed op.
- An op whose expected path delay is deliberately wrong fails its output
  check, so the run's fail ratio is nonzero.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _smoke(trace)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (section, sorted(set(want) ^ set(got)))
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_wrong_expected_delay_makes_fail_ratio_nonzero():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    from workloads import Workload, read_paths

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = Workload("smoke", 3, work / "inputs")
        out = work / "out"
        out.mkdir(parents=True)
        op = workload.next_op()
        good = run.Loop(workload, log=lambda line: None)
        assert good.cli_op(op, str(out)) is not None and good.failed == 0

        # Expect the last path where nothing was reported within two chips.
        (case,) = op
        chip_ns = 1e9 / case.chip_rate
        span = case.code_length * chip_ns
        reported = [d for d, _ in read_paths(str(out / case.name))]
        wrong_ns = next(
            c * chip_ns for c in range(case.code_length)
            if all(min(abs(c * chip_ns - d), span - abs(c * chip_ns - d)) > 2 * chip_ns
                   for d in reported)
        )
        wrong = dataclasses.replace(case, paths=case.paths[:-1] + ((wrong_ns, case.paths[-1][1]),))
        workload.next_op = lambda: (wrong,)
        bad = run.Loop(workload, log=lambda line: None)
        run.run_plain(bad, 0.2, str(out))
        assert bad.attempted >= 1 and bad.failed == bad.attempted
        assert bad.failed / bad.attempted > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_smoke_run_prints_every_metric_with_its_unit,
                 test_wrong_expected_delay_makes_fail_ratio_nonzero):
        test()
        print(f"ok  {test.__name__}")
