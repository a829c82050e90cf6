"""Replay recorded ``p2f knot batch`` output byte for byte.

``data/knot_batch_golden.csv`` holds 56 alternating knots: the unknot and
T(2, 2n+1) for n <= 10 at both slopes, mirrors of six of them, eight twist
knots and two mirrored ones, eight connected sums of two or three summands,
and T(2, 41) with its mirror at both slopes (the only rows past genus 10:
|sigma| <= 2 genus, so sigma = -40 and 40 need genus 20). Half the rows
state their Arf invariant and half leave it to be derived. The ``.json``
and ``.txt`` files are the stdout of

    p2f knot batch --csv tests/data/knot_batch_golden.csv --json
    p2f knot batch --csv tests/data/knot_batch_golden.csv

recorded before the triangle checks were cached and ``hm_plus_one_surgery``
was built in one pass. The ``--json`` output of these rows and of the
knot-batch benchmark's seed-1 rows is also compared with the stdlib
serialisation of the same reports in their ``module_to_json`` dict form.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pin2floer import cli
from pin2floer.modules import module_to_json

DATA = Path(__file__).parent / "data"
CSV_PATH = DATA / "knot_batch_golden.csv"
BENCH_GEN = Path(__file__).parent.parent / "bench" / "gen.py"


def test_fixture_covers_the_documented_rows():
    rows = list(csv.DictReader(CSV_PATH.open(newline="")))
    sigmas = [int(r["signature"]) for r in rows]
    genera = [len(r["alexander"].split(";")) - 1 for r in rows]
    assert len(rows) == 56
    assert min(sigmas) == -40 and max(sigmas) == 40
    assert all(g <= 10 for s, g in zip(sigmas, genera) if abs(s) < 40)
    assert {r["surgery"] for r in rows} == {"+1", "-1"}
    assert {r["arf"] for r in rows} == {"", "0", "1"}
    assert any(s > 0 for s in sigmas)


@pytest.mark.parametrize("mode", ["json", "txt"])
def test_knot_batch_replays_golden(mode):
    argv = [sys.executable, "-m", "pin2floer", "knot", "batch", "--csv", str(CSV_PATH)]
    if mode == "json":
        argv.append("--json")
    proc = subprocess.run(argv, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / f"knot_batch_golden.{mode}").read_bytes()


def _bench_csv(tmp_path) -> Path:
    # the knot-batch benchmark's seed-1 rows, written as the benchmark writes them
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rows, _expected, _props = gen.make_knot_rows(1)
    path = tmp_path / "bench_seed1.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.mark.parametrize("source", ["golden", "bench-seed-1"])
def test_knot_batch_json_matches_stdlib_dumps_of_the_dict_reports(tmp_path, capsys, source):
    # the batch writes each module from cached box text; the reference
    # serialises the module_to_json dicts with the stdlib
    path = CSV_PATH if source == "golden" else _bench_csv(tmp_path)
    assert cli.main(["knot", "batch", "--csv", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    reports = []
    for row in csv.DictReader(path.open(newline="")):
        rep = cli._batch_one(row, True)
        rep["hm_plus_one"] = module_to_json(rep["hm_plus_one"])
        reports.append(rep)
    assert out == json.dumps({"knots": reports}, sort_keys=True, indent=2) + "\n"
