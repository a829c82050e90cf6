"""Replay recorded ``p2f catalog``, ``p2f gysin solve`` and ``p2f homalg triangle`` output.

``data/cli_golden/catalog/<name>.json`` is the stdout of

    p2f catalog <name> --json

for each of the 54 names of ``p2f catalog --list``. ``data/cli_golden/gysin/``
holds the stdout of ``p2f gysin solve`` with and without ``--json`` for the
two README inputs and the two window-pad baseline inputs of the roadmap (one
input is in both sets). They pin module JSON with step-4 towers and Q-links.
All were recorded while module degrees were still stored as ``Fraction``.
``tower0_box-1000x2.{txt,json}`` is ``p2f gysin solve --tower 0 --box
-1000:2``; it was recorded from the single lazy search, because the (a, b, c)
triple loop before it ran out of its 500,000-node budget on this input and
exited 2.

``data/cli_golden/homalg/<case>.bundle.json`` is
``triangle_bundle_to_json(*random_admissible_triple(random.Random(seed),
(0, 1, 2, 3), method=...))`` for two acyclic (``method="cone"``, seeds 4 and
18) and two non-acyclic (``method="formula"``, seeds 8 and 10) triples;
``<case>.txt`` and ``<case>.json`` hold the stdout of
``p2f homalg triangle --file <bundle> [--json]``, recorded while
``triangle_detect`` still computed the homology of the iterated cone.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "cli_golden"

GYSIN_INPUTS = {
    "tower0_box-1x2": ["--tower", "0", "--box", "-1:2"],
    "tower0_box-1x3": ["--tower", "0", "--box", "-1:3"],
    "tower-4_box-4x3_box-3x1": ["--tower", "-4", "--box", "-4:3", "--box", "-3:1"],
}


def _p2f(*args: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "pin2floer", *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _catalog_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in (DATA / "catalog").iterdir())


def test_fixture_holds_every_catalog_name():
    names = _p2f("catalog", "--list").decode().split()
    assert len(names) == 54
    assert sorted(names) == _catalog_names()


@pytest.mark.parametrize("name", _catalog_names())
def test_catalog_replays_golden(name):
    assert _p2f("catalog", name, "--json") == (DATA / "catalog" / f"{name}.json").read_bytes()


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("case", sorted(GYSIN_INPUTS))
def test_gysin_solve_replays_golden(case, mode):
    argv = ["gysin", "solve", *GYSIN_INPUTS[case]] + (["--json"] if mode == "json" else [])
    assert _p2f(*argv) == (DATA / "gysin" / f"{case}.{mode}").read_bytes()


@pytest.mark.parametrize("mode", ["txt", "json"])
def test_gysin_solve_budget_case_replays_golden(mode):
    argv = ["gysin", "solve", "--tower", "0", "--box", "-1000:2"]
    argv += ["--json"] if mode == "json" else []
    assert _p2f(*argv) == (DATA / "gysin" / f"tower0_box-1000x2.{mode}").read_bytes()


HOMALG_CASES = ["acyclic_seed18", "acyclic_seed4", "cyclic_seed10", "cyclic_seed8"]


def test_homalg_fixture_holds_every_case():
    bundles = sorted((DATA / "homalg").glob("*.bundle.json"))
    assert [p.name[: -len(".bundle.json")] for p in bundles] == sorted(HOMALG_CASES)


@pytest.mark.parametrize("mode", ["txt", "json"])
@pytest.mark.parametrize("case", HOMALG_CASES)
def test_homalg_triangle_replays_golden(case, mode):
    argv = ["homalg", "triangle", "--file", str(DATA / "homalg" / f"{case}.bundle.json")]
    argv += ["--json"] if mode == "json" else []
    assert _p2f(*argv) == (DATA / "homalg" / f"{case}.{mode}").read_bytes()
