"""Reading log files back as line streams."""

from __future__ import annotations

import gzip
import zlib
from pathlib import Path
from typing import Iterator, List


#: File suffixes the collection side recognizes as node syslogs.
LOG_SUFFIXES = (".log", ".log.gz")


class CorruptLogError(Exception):
    """A compressed log file ends early or is damaged.

    Names the file, and pickles whole, so a process-pool worker's failure
    reaches the caller as it was raised.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(path, reason)
        self.path = path
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: compressed log is truncated or damaged ({self.reason})"


def iter_log_lines(path: str | Path) -> Iterator[str]:
    """Stream lines from one log file (plain or ``.gz``), newline-stripped.

    Bytes that are not UTF-8 decode to U+FFFD, as in the fleet tailer, so
    one bad byte costs its line's text, not the read.  A ``.gz`` file that
    is cut short or damaged raises :class:`CorruptLogError` after the
    lines read before the damage.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", errors="replace") as handle:  # type: ignore[operator]
        try:
            for line in handle:
                yield line.rstrip("\n")
        except (EOFError, gzip.BadGzipFile, zlib.error) as error:
            raise CorruptLogError(str(path), str(error)) from error


def list_log_files(directory: str | Path) -> List[Path]:
    """Every ``*.log`` / ``*.log.gz`` regular file in a directory, in
    sorted order (a subdirectory with such a name is not a log).

    The single definition of "which files are node logs" — the pipeline's
    file-set source and the fleet tailers partition the same list.
    """
    directory = Path(directory)
    return sorted(
        p for p in directory.iterdir() if p.name.endswith(LOG_SUFFIXES) and p.is_file()
    )

