"""Deterministic serialization of suite reports.

The canonical JSON form excludes wall time so that identical seeds and
scales reproduce identical bytes.  The markdown table carries no timing
either; wall time stays on the live `SuiteReport.wall_ms`, which
`ordtop suite` prints.
"""

import json

from .suites import SuiteReport


def canonical_dict(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "seed": report.seed,
        "scale": report.scale,
        "cases": report.cases,
        "failures": list(report.failures),
        "ok": report.ok,
    }


def canonical_json(reports) -> str:
    if isinstance(reports, SuiteReport):
        reports = [reports]
    payload = [canonical_dict(r) for r in
               sorted(reports, key=lambda r: r.suite)]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def markdown_table(reports) -> str:
    if isinstance(reports, SuiteReport):
        reports = [reports]
    reports = sorted(reports, key=lambda r: r.suite)
    lines = [
        "| suite | cases | failures | status |",
        "|-------|-------|----------|--------|",
    ]
    for r in reports:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"| {r.suite} | {r.cases} | {len(r.failures)} | {status} |")
    blocks = ["\n".join(lines)]
    for r in reports:
        if r.failures:
            rows = [f"- `{f['case']}`: {f['detail']} (repro: `{f['repro']}`)"
                    for f in r.failures[:20]]
            blocks.append(f"\n### {r.suite} failures\n" + "\n".join(rows))
    return "\n".join(blocks) + "\n"


def emit_report(reports, json_path=None, md_path=None) -> str:
    """Write canonical JSON and a markdown table; returns the JSON text."""
    if isinstance(reports, SuiteReport):
        reports = [reports]
    if not reports:
        raise ValueError("at least one report is required")
    text = canonical_json(reports)
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if md_path is not None:
        with open(md_path, "w", encoding="utf-8") as fh:
            fh.write(markdown_table(reports))
    return text
