"""The one writer through which every file of the pipeline reaches disk."""

from __future__ import annotations

import contextlib
import csv
import io
import os
from pathlib import Path


def csv_text(rows) -> str:
    """``rows`` as CSV text in the csv module's default dialect (CRLF line ends)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def write_artifact(path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8) to ``path``: old file or new file, never a prefix.

    The bytes go to the sibling ``path.name + ".tmp"``, which ``os.replace``
    renames onto ``path``; on any exception, Ctrl-C included, the temporary
    file is removed and the exception re-raised. This holds against an
    interrupted process, not against power loss: nothing is fsynced. The
    temporary file is preallocated first (best effort: an ``OSError`` leaves a
    plain write), so ext4's default ``auto_da_alloc`` finds no delayed
    allocation to flush when the rename replaces a file (50-90 ms on a VM disk).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    data = data.encode("utf-8") if isinstance(data, str) else data
    try:
        with open(tmp, "wb") as fh:
            if data and hasattr(os, "posix_fallocate"):
                with contextlib.suppress(OSError):
                    os.posix_fallocate(fh.fileno(), 0, len(data))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
