"""Atomic file replacement for caches, checkpoints and CSVs; one rule for unreadable files."""

from __future__ import annotations

import csv
import io
import os
from contextlib import AbstractContextManager, contextmanager
from pathlib import Path

from .errors import DataError


class reading(AbstractContextManager):
    """Turns an OSError, a UnicodeDecodeError or one of ``format_errors``
    raised in its block into ``error("<path>: unreadable <what> (<reason>)")``.
    A class, not a generator: it is entered once per cached clip."""

    def __init__(self, path, what: str, error=DataError, *format_errors):
        self.path, self.what, self.error = path, what, error
        self.catches = (OSError, UnicodeDecodeError, *format_errors)

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, self.catches):
            raise self.error(f"{self.path}: unreadable {self.what} ({exc})") from exc


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


@contextmanager
def atomic_csv_writer(path: str | Path):
    """Yield a ``csv.writer`` whose UTF-8 rows replace ``path`` atomically,
    with the same bytes as ``open(path, "w", newline="", encoding="utf-8")``."""
    with atomic_write(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        yield csv.writer(fh)
