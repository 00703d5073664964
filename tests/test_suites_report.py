import json

import pytest

from ordtop.report import canonical_json, emit_report, markdown_table
from ordtop.suites import SUITES, SuiteReport, UnknownSuiteError, run_suite


def test_unknown_suite_lists_names():
    with pytest.raises(UnknownSuiteError) as exc:
        run_suite("nonexistent")
    for name in SUITES:
        assert name in str(exc.value)


def test_every_suite_passes_at_small_scale():
    for name in sorted(SUITES):
        report = run_suite(name, seed=1, scale=0.02)
        assert report.ok, (name, report.failures[:3])
        assert report.cases > 0


def test_reports_are_deterministic():
    for name in ("field-axioms", "rd-lemmas", "uniformity"):
        a = canonical_json(run_suite(name, seed=9, scale=0.02))
        b = canonical_json(run_suite(name, seed=9, scale=0.02))
        assert a == b


def test_canonical_json_shape():
    report = run_suite("sin-abelian", seed=2, scale=0.1)
    data = json.loads(canonical_json(report))
    assert isinstance(data, list) and len(data) == 1
    entry = data[0]
    assert entry["suite"] == "sin-abelian"
    assert entry["failures"] == []  # empty array, never null
    assert "wall" not in json.dumps(entry)  # timing excluded from bytes


def test_markdown_table_rows():
    reports = [run_suite("sin-abelian", seed=2, scale=0.1)]
    fake = SuiteReport(suite="zz-demo", seed=0, scale=1.0, cases=3)
    fake.record("case-1", "boom")
    table = markdown_table(reports + [fake])
    assert "| sin-abelian |" in table and "pass" in table
    assert "| zz-demo |" in table and "FAIL" in table
    assert "repro: `ordtop suite zz-demo" in table


def test_emit_report_files(tmp_path):
    report = run_suite("sin-abelian", seed=2, scale=0.1)
    json_path = tmp_path / "out.json"
    md_path = tmp_path / "out.md"
    text = emit_report([report], json_path=str(json_path), md_path=str(md_path))
    assert json_path.read_text() == text
    assert "| sin-abelian |" in md_path.read_text()
    with pytest.raises(ValueError):
        emit_report([])


def test_failures_carry_repro_commands():
    fake = SuiteReport(suite="demo", seed=7, scale=0.5)
    fake.record("case-x", "detail-y")
    assert fake.failures[0]["repro"] == "ordtop suite demo --seed 7 --scale 0.5"
    assert not fake.ok


def test_suite_crash_is_recorded(monkeypatch):
    def crashing(report, rng, scale):
        report.cases += 2
        raise RuntimeError("boom")

    monkeypatch.setitem(SUITES, "order", crashing)
    report = run_suite("order", seed=4, scale=0.5)
    assert not report.ok and report.cases == 2
    assert report.failures == [{
        "case": "crash",
        "detail": "RuntimeError('boom')",
        "repro": "ordtop suite order --seed 4 --scale 0.5",
    }]
    assert "repro: `ordtop suite order --seed 4 --scale 0.5`" in \
        markdown_table(report)
