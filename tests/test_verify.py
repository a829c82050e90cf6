"""The deterministic verification sweep."""

from __future__ import annotations

import json

from pin2floer.verify import run_verify


def test_verify_is_green_and_deterministic():
    one = run_verify()
    assert one.ok
    assert one.counts.get("FAIL", 0) == 0
    two = run_verify()
    assert [(r.id, r.status) for r in one.rows] == [
        (r.id, r.status) for r in two.rows
    ]


def test_verify_report_serializes():
    report = run_verify()
    blob = json.dumps(report.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["ok"] is True
    assert {r["status"] for r in data["rows"]} == {"PASS", "WARN"}
    # every row carries an id and an anchor usable for triage
    assert all(r["id"] and r["anchor"] for r in data["rows"])
