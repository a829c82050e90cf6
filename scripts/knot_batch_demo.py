#!/usr/bin/env python3
"""End-to-end surgery demo over the bundled sample knots.

Runs the full pipeline (validation, S^1-side modules, Pin(2) towers,
table comparison, obstruction) for each row of sample_knots.csv and
prints a compact report. Equivalent to `p2f knot batch` but with the
intermediate modules printed, which the CLI keeps to itself.

    python3 scripts/knot_batch_demo.py [path/to/knots.csv]
"""

from __future__ import annotations

import csv
import pathlib
import sys

from pin2floer.modules import format_grading
from pin2floer.surgery import (
    correction_terms,
    hm_plus_one_surgery,
    hm_zero_surgery,
    seifert_obstruction,
    validate_knot,
)

DEFAULT_CSV = pathlib.Path(__file__).with_name("sample_knots.csv")


def describe_module(m) -> str:
    bits = [f"T^+({format_grading(t.base)})" for t in m.towers]
    bits += [
        f"F^{b.dim}<{format_grading(b.deg)}>{'~' if b.qsplit else ''}"
        for b in sorted(m.boxes, key=lambda b: b.deg)
    ]
    return " + ".join(bits) if bits else "0"


def main(argv=None) -> int:
    path = pathlib.Path(argv[0]) if argv else DEFAULT_CSV
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))

    for row in rows:
        arf_raw = (row.get("arf") or "").strip()
        kd = validate_knot(
            row["name"].strip(),
            int(row["signature"]),
            tuple(int(x) for x in row["alexander"].split(";")),
            arf=int(arf_raw) if arf_raw else None,
        )
        slope = int(row["surgery"])
        print(f"== {kd.name} (sigma={kd.signature}, arf={kd.arf}"
              + (", mirrored" if kd.mirrored else "") + ")")
        zs = hm_zero_surgery(kd)
        for level in zs.levels:
            tag = " (parity only)" if level.parity_only else ""
            print(f"   0-surgery s={level.s}: {describe_module(level.module)}{tag}")
        print(f"   +1-surgery: {describe_module(hm_plus_one_surgery(kd))}")
        # correction_terms raises PipelineMismatch unless the table agrees
        ct = correction_terms(kd, slope)
        print(f"   {slope:+d}-surgery correction terms: {ct}  [agrees with table]")
        obs = seifert_obstruction(ct)
        if obs.obstructed:
            print(f"   obstruction: {obs.detail}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
