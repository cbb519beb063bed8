"""CSV export with atomic writes.

Columns and headers are fixed contracts consumed by downstream tooling:
  spectrum      freq_hz,power_db
  slow capture  slow_time_s,i,q,sync
  delay profile delay_ns,power_db
  path list     delay_ns,power_db,sidelobe_suspect
Floats print with %.12g.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write to a temp file in the target directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str, header: str, rows: Iterable[Iterable[float]]) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_spectrum_csv(path: str, spectrum) -> None:
    write_csv(path, "freq_hz,power_db", zip(spectrum.freqs, spectrum.power_db))


def write_slow_capture_csv(path: str, trace) -> None:
    write_csv(
        path,
        "slow_time_s,i,q,sync",
        zip(trace.times(), trace.i_out, trace.q_out, trace.sync),
    )


def write_profile_csv(path: str, profile) -> None:
    write_csv(
        path,
        "delay_ns,power_db",
        zip(profile.delays * 1e9, profile.power_db),
    )


def write_paths_csv(path: str, paths) -> None:
    rows = [
        (p.delay * 1e9, p.power_db, int(p.is_sidelobe_suspect))
        for p in paths
    ]
    write_csv(path, "delay_ns,power_db,sidelobe_suspect", rows)
