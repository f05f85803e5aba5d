"""Writing rendered log lines to per-node files (optionally gzip-compressed).

The paper collected "system logs from all compute nodes"; we mirror that as
one file per node under a directory, so the reading side
(:mod:`repro.syslog.reader`) and the extraction stage face the same file
layout a real collection pipeline would.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import List, Mapping, Sequence

#: Lines joined into one write: a file's text is built a block at a time,
#: never whole.
_WRITE_LINES = 65536


def write_node_logs(
    lines_by_node: Mapping[str, Sequence[str]],
    directory: str | Path,
    *,
    compress: bool = False,
) -> List[Path]:
    """Write each node's lines into ``<directory>/<node>.log[.gz]``.

    Returns the written paths, in node order; a node without lines gets
    no file.  Each node's lines are ordered by their timestamp prefix
    (ISO-8601 sorts lexically), as a node-local syslog daemon would
    produce.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".log.gz" if compress else ".log"
    opener = gzip.open if compress else open
    paths: List[Path] = []
    for node_id in sorted(lines_by_node):
        node_lines = sorted(lines_by_node[node_id])  # timestamp-prefixed => chronological
        if not node_lines:
            continue
        path = directory / f"{node_id}{suffix}"
        with opener(path, "wt", encoding="utf-8") as handle:  # type: ignore[operator]
            for at in range(0, len(node_lines), _WRITE_LINES):
                handle.write("\n".join(node_lines[at:at + _WRITE_LINES]) + "\n")
        paths.append(path)
    return paths
