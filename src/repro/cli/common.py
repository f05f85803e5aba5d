"""Helpers shared by command modules: result output and query parsing."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def write_result_dir(result, output_dir: Path) -> List[Path]:
    """Persist one structured result: JSON artifact, manifest, SVG."""
    import json as _json

    directory = output_dir / result.experiment_id.replace(".", "_")
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    result_path = directory / "result.json"
    result_path.write_text(result.render_json() + "\n", encoding="utf-8")
    written.append(result_path)

    if result.manifest is not None:
        manifest_path = directory / "manifest.json"
        manifest_path.write_text(
            _json.dumps(result.manifest.to_dict(), indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(manifest_path)

    svg = result.render_svg()
    if svg is not None:
        svg_path = directory / "result.svg"
        svg_path.write_text(svg, encoding="utf-8")
        written.append(svg_path)
    return written


def emit_result(result, args: argparse.Namespace) -> None:
    """The standard single-result output path: files, then text or JSON."""
    if getattr(args, "output_dir", None) is not None:
        for path in write_result_dir(result, args.output_dir):
            print(f"wrote {path}", file=sys.stderr)
    if getattr(args, "format", "text") == "json":
        print(result.render_json())
    else:
        print(result.render_text())


def parse_query_args(args: argparse.Namespace):
    """``--since/--until/--xids/--nodes/--serials`` into a store Query."""
    from repro.cli.registry import CliError
    from repro.store import Query
    from repro.util.timeutil import parse_timestamp

    def _moment(text: Optional[str]) -> Optional[float]:
        if text is None:
            return None
        try:
            return float(text)
        except ValueError:
            pass
        try:
            # Date-only form ("2022-03-01") means midnight that day.
            return parse_timestamp(
                text if "T" in text else f"{text}T00:00:00"
            )
        except (ValueError, IndexError):
            raise CliError(
                f"bad timestamp {text!r}: expected seconds, YYYY-MM-DD, "
                "or YYYY-MM-DDTHH:MM:SS"
            ) from None

    def _split(text: Optional[str]) -> Optional[List[str]]:
        if text is None:
            return None
        return [part.strip() for part in text.split(",") if part.strip()]

    since, until = _moment(args.since), _moment(args.until)
    xids = _split(args.xids)
    try:
        codes = [int(x) for x in xids] if xids else None
    except ValueError:
        raise CliError(f"--xids takes comma-separated integers, got {args.xids!r}") from None
    return Query(
        time_range=(since, until) if (since is not None or until is not None)
        else None,
        xids=codes,
        nodes=_split(args.nodes),
        serials=_split(args.serials),
    )
