"""Atomic file replacement for caches and checkpoints."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path):
    """Yield a binary file handle whose bytes replace ``path`` in one rename.

    The bytes go to a temporary file beside ``path`` (same directory, so the
    rename stays on one file system), which replaces ``path`` only when the
    block exits cleanly. If the block raises, the temporary file is removed
    and ``path`` keeps its previous contents, or stays absent. The process
    id in the temporary name keeps concurrent writers apart.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
