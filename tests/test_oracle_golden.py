"""Replay recorded oracle answers against the current search.

``data/oracle_golden.json`` was written by ``_record`` below, with the
per-degree ``Fraction`` walk that preceded ``degree_kernel``. Its inputs are
T^+_{2K} for K in [-3, 3] plus boxes: 1-4 boxes in one degree 2K + o, or
2-4 boxes split over two such degrees, for offsets o in [-12, 4]. Per input
it holds the window, ``unique``, the sorted candidates (tower starts and
boxes) and each certificate's JSON; an input that raised records only that a
``GysinError`` was raised, so error wording may change without touching it.
The bench re-certifies oracle answers with ``feasibility_check`` itself, so
this fixture is the guard that does not trust the code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pin2floer.gysin import GysinError, oracle_solve
from pin2floer.modules import Box, StructuredModule, T_plus, format_grading

GOLDEN = json.loads((Path(__file__).parent / "data" / "oracle_golden.json").read_text())


def _record(k: int, boxes: list) -> dict:
    m = StructuredModule(
        towers=T_plus(2 * k).towers, boxes=tuple(Box(deg, n) for deg, n in boxes)
    )
    entry = {"k": k, "boxes": boxes}
    try:
        sol = oracle_solve(m)
    except GysinError:
        entry["raises"] = "GysinError"
        return entry
    entry["window"] = list(sol.window)
    entry["unique"] = sol.unique
    entry["candidates"] = [
        {
            "starts": [format_grading(s) for s in c.standard.tower_starts()],
            "boxes": sorted([format_grading(b.deg), b.dim] for b in c.boxes),
            "certificate": c.certificate.to_json(),
        }
        for c in sol.candidates
    ]
    return entry


def test_fixture_covers_the_documented_inputs():
    assert {e["k"] for e in GOLDEN} == set(range(-3, 4))
    assert len(GOLDEN) == 7 * (17 * 4 + 136 * 6)
    assert any(len(e.get("candidates", ())) > 1 for e in GOLDEN)
    assert any("raises" in e for e in GOLDEN)


@pytest.mark.parametrize("k", range(-3, 4))
def test_oracle_replays_golden(k):
    for want in (e for e in GOLDEN if e["k"] == k):
        # JSON round trip so that tuples and lists compare alike
        got = json.loads(json.dumps(_record(k, want["boxes"])))
        assert got == want, want["boxes"]


def test_golden_inputs_that_raise_find_no_partner():
    # the fixture records only that a GysinError was raised; when it was
    # written, each of these was "no feasible Gysin partner", not a search
    # limit, in the window [support_min - 4, feature_max + 12]
    raising = [e for e in GOLDEN if "raises" in e]
    assert len(raising) == 4039
    for e in raising:
        degrees = [2 * e["k"]] + [deg for deg, _n in e["boxes"]]
        m = StructuredModule(
            towers=T_plus(2 * e["k"]).towers,
            boxes=tuple(Box(deg, n) for deg, n in e["boxes"]),
        )
        with pytest.raises(GysinError) as info:
            oracle_solve(m)
        window = f"[{min(degrees) - 4}, {max(degrees) + 12}]"
        assert str(info.value) == f"no feasible Gysin partner in window {window}", e["boxes"]
