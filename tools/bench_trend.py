#!/usr/bin/env python
"""Collate the per-family BENCH_*.json reports into docs/performance.md.

Every benchmark family writes a JSON artifact at the repo root
(``BENCH_kernels.json``, ``BENCH_supermarket.json``,
``BENCH_peeling.json``, ``BENCH_service.json``) with the same shape: a
``results`` dict of contestant -> per-round metrics (plus, for the
service bench, a ``backends`` section of keymap backends, and for the
kernels bench a ``dispatch`` section at its dispatch-bound geometry).  This
tool renders one throughput table over all of them — the single place to
see every hot path's recorded numbers side by side — and maintains it
between marker comments in ``docs/performance.md``::

    python tools/bench_trend.py            # rewrite the table in place
    python tools/bench_trend.py --check    # exit 1 when the doc is stale

The ``--check`` mode runs in the docs CI job, so a regenerated benchmark
JSON without a regenerated document (or vice versa) fails the build —
the same drift contract the certification anchors use.

Each ``<metric>_per_second`` row carries its own same-run ratio:
``lookup_vs_*`` for lookup metrics, ``throughput_vs_*`` /
``speedup_vs_*`` for the rest, and ``—`` when the entry records none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "performance.md"

BEGIN_MARK = "<!-- bench-trend:begin (generated by tools/bench_trend.py) -->"
END_MARK = "<!-- bench-trend:end -->"

#: (family, json filename, sections to read: name -> results key)
FAMILIES = (
    ("kernels", "BENCH_kernels.json", {"placement": "results",
                                       "dispatch": "dispatch"}),
    ("supermarket", "BENCH_supermarket.json", {"ctmc": "results"}),
    ("peeling", "BENCH_peeling.json", {"decode": "results"}),
    ("service", "BENCH_service.json", {"schemes": "results",
                                       "keymap": "backends"}),
)


def _ratio(entry, metric):
    """The ratio column for ``metric``: its own ``*_vs_*`` key, or ``—``."""
    if metric.startswith("lookup"):
        prefixes = ("lookup_vs_",)
    else:
        prefixes = ("speedup_vs_", "throughput_vs_")
    for key, value in entry.items():
        if key.startswith(prefixes):
            return f"{value:.2f}x vs {key.rsplit('_', 1)[-1]}"
    return "—"


def _metric_rows(family, section, contestant, entry):
    """Rows for one contestant: one per ``*_per_second`` metric."""
    rows = []
    for key, value in entry.items():
        if key.endswith("_per_second"):
            metric = key[: -len("_per_second")]
            rows.append((
                family, section, contestant, metric.replace("_", " "),
                f"{value:,.0f}/s", _ratio(entry, metric),
            ))
    return rows


def collect(root: Path | None = None):
    """All table rows from the BENCH_*.json files present under ``root``."""
    root = REPO_ROOT if root is None else root
    rows = []
    for family, filename, sections in FAMILIES:
        path = root / filename
        if not path.exists():
            continue
        report = json.loads(path.read_text())
        for section, results_key in sections.items():
            for contestant, entry in report.get(results_key, {}).items():
                if isinstance(entry, dict):
                    rows.extend(
                        _metric_rows(family, section, contestant, entry)
                    )
    return rows


def render(rows) -> str:
    """The marker-delimited markdown block for ``rows``."""
    lines = [
        BEGIN_MARK,
        "",
        "| family | section | contestant | metric | throughput | ratio |",
        "|---|---|---|---|---|---|",
    ]
    for family, section, contestant, metric, value, ratio in rows:
        lines.append(
            f"| {family} | {section} | {contestant} | {metric} "
            f"| {value} | {ratio} |"
        )
    lines += ["", END_MARK]
    return "\n".join(lines)


def splice(doc: str, block: str) -> str:
    """``doc`` with its marker block replaced (or appended) by ``block``."""
    begin = doc.find(BEGIN_MARK)
    end = doc.find(END_MARK)
    if begin != -1 and end != -1:
        return doc[:begin] + block + doc[end + len(END_MARK):]
    section = (
        "\n## Recorded throughput, all benchmark families\n\n"
        "Regenerated by `python tools/bench_trend.py` from the shipped\n"
        "`BENCH_*.json` artifacts; the docs CI job runs it with `--check`,\n"
        "so this table cannot drift from the JSON.\n\n"
    )
    return doc.rstrip("\n") + "\n" + section + block + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the doc table matches the JSON; do not rewrite",
    )
    parser.add_argument(
        "--doc", default=str(DOC_PATH),
        help="markdown file holding the marker-delimited table",
    )
    args = parser.parse_args(argv)

    doc_path = Path(args.doc)
    doc = doc_path.read_text()
    updated = splice(doc, render(collect()))
    if args.check:
        if updated != doc:
            print(
                f"ERROR: {doc_path} bench table is stale; run "
                "`python tools/bench_trend.py` and commit the result",
                file=sys.stderr,
            )
            return 1
        print(f"{doc_path}: bench table matches the BENCH_*.json artifacts")
        return 0
    if updated != doc:
        doc_path.write_text(updated)
        print(f"rewrote bench table in {doc_path}")
    else:
        print(f"{doc_path} already up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
