"""Replay recorded ``p2f homalg ss --json`` output byte for byte.

``data/homalg_ss/`` holds seven filtered complexes: ``toy`` and
``toy_grouped`` are ``mainiso_toy_model()`` and
``mainiso_toy_model(grouped=True)``; ``random_<s>`` is
``random_filtered_complex(random.Random(s), degrees, num_levels,
max_dots=3, max_intervals=3)`` with the degrees and level counts below.
Each ``<case>.pages.json`` is the stdout of

    p2f homalg ss --file data/homalg_ss/<case>.json --json

and each ``<case>.r<N>.pages.json`` the stdout with ``--r-max N`` added,
recorded while the pages were still computed from echelon spans of the
cycle spaces Z^r(p, k), before the persistence reduction replaced them.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "homalg_ss"

# case -> r_max of the recorded ``--r-max`` run; for the random cases the
# comment gives (degrees, num_levels) of the generator call
R_MAX = {
    "toy": 6,
    "toy_grouped": 0,
    "random_0": 1,  # (0, 1, 2), 3
    "random_1": 2,  # (0, 1, 2, 3), 4
    "random_2": 6,  # (-1, 0, 1, 2, 3), 5; r_max = span + 3
    "random_3": 0,  # (0, 1), 2
    "random_4": 9,  # (1, 2, 3, 4), 5
}


def test_fixture_holds_every_case():
    assert sorted(p.name for p in DATA.iterdir()) == sorted(
        name
        for case, r in R_MAX.items()
        for name in (f"{case}.json", f"{case}.pages.json", f"{case}.r{r}.pages.json")
    )


@pytest.mark.parametrize("with_r_max", [False, True], ids=["default", "r_max"])
@pytest.mark.parametrize("case", sorted(R_MAX))
def test_homalg_ss_replays_golden(case, with_r_max):
    argv = [sys.executable, "-m", "pin2floer", "homalg", "ss", "--file", str(DATA / f"{case}.json"), "--json"]
    golden = DATA / f"{case}.pages.json"
    if with_r_max:
        argv += ["--r-max", str(R_MAX[case])]
        golden = DATA / f"{case}.r{R_MAX[case]}.pages.json"
    proc = subprocess.run(argv, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.read_bytes()
