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
import secrets

import numpy as np


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write to a temp file in the target directory, then rename into place.

    The temp file is created with mode 0666, so the umask sets the final
    file's permissions as it would for a plain open().
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def write_csv(path: str, header: str, columns) -> None:
    """Write equal-length columns under header, one row per line.

    The whole table is one %-format over a repeated "%.12g,...\n" row, so
    every value prints as format(float(v), ".12g") would, at C speed.
    """
    table = np.column_stack(columns)
    rows, width = table.shape
    row = ",".join(["%.12g"] * width) + "\n"
    body = (row * rows) % tuple(table.ravel().tolist())
    atomic_write_text(path, header + "\n" + body)


def write_spectrum_csv(path: str, spectrum) -> None:
    write_csv(path, "freq_hz,power_db", (spectrum.freqs, spectrum.power_db))


def write_slow_capture_csv(path: str, trace) -> None:
    write_csv(
        path,
        "slow_time_s,i,q,sync",
        (trace.times(), trace.i_out, trace.q_out, trace.sync),
    )


def write_profile_csv(path: str, profile) -> None:
    write_csv(path, "delay_ns,power_db", (profile.delays * 1e9, profile.power_db))


def write_paths_csv(path: str, paths) -> None:
    write_csv(
        path,
        "delay_ns,power_db,sidelobe_suspect",
        (
            [p.delay * 1e9 for p in paths],
            [p.power_db for p in paths],
            [int(p.is_sidelobe_suspect) for p in paths],
        ),
    )
