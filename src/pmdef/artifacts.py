"""The one writer through which every file of the pipeline reaches disk."""

from __future__ import annotations

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
    interrupted process, not against power loss: nothing is fsynced.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
