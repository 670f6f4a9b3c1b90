"""Crash-safe artifact persistence: write-temp-then-rename.

A build killed mid-``write_text`` leaves a truncated ``layout-*.json``
that a later ``load_layout`` chokes on.  The fix is the classic atomic
protocol: write the full payload to a temporary file *in the same
directory* (same filesystem, so the rename is atomic), flush and fsync
it, then ``os.replace`` it over the destination.  At every instant the
destination holds either the complete old artifact or the complete new
one — never a prefix of either.

The writer checks two named crash points
(:data:`~repro.robust.faults.ATOMIC_MID_WRITE` before the payload is
flushed, :data:`~repro.robust.faults.ATOMIC_PRE_RENAME` after the temp
file is complete but before the rename) so the fault-injection suite can
kill it at the worst moments and assert the guarantee holds.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .faults import ATOMIC_MID_WRITE, ATOMIC_PRE_RENAME, maybe_crash

__all__ = ["atomic_write", "atomic_write_text"]


@contextmanager
def atomic_write(path: str | Path, *, binary: bool = False) -> Iterator[IO]:
    """Open a temp file next to ``path``; rename it over ``path`` on
    success, delete it on any failure (including injected crashes)."""
    dest = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=dest.parent, prefix=dest.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    # mkstemp creates 0600; restore the umask-default mode a plain
    # write_text would have produced, so artifact permissions are
    # unchanged by the atomic protocol.
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(fd, 0o666 & ~umask)
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            maybe_crash(ATOMIC_MID_WRITE, str(dest))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        maybe_crash(ATOMIC_PRE_RENAME, str(dest))
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)
