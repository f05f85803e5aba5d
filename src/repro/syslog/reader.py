"""Reading log files back as line streams."""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterator, List


#: File suffixes the collection side recognizes as node syslogs.
LOG_SUFFIXES = (".log", ".log.gz")


def iter_log_lines(path: str | Path) -> Iterator[str]:
    """Stream lines from one log file (plain or ``.gz``), newline-stripped.

    Bytes that are not UTF-8 decode to U+FFFD, as in the fleet tailer, so
    one bad byte costs its line's text, not the read.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", errors="replace") as handle:  # type: ignore[operator]
        for line in handle:
            yield line.rstrip("\n")


def list_log_files(directory: str | Path) -> List[Path]:
    """Every ``*.log`` / ``*.log.gz`` file in a directory, in sorted order.

    The single definition of "which files are node logs" — the pipeline's
    file-set source and the fleet tailers partition the same list.
    """
    directory = Path(directory)
    return sorted(p for p in directory.iterdir() if p.name.endswith(LOG_SUFFIXES))

