#!/usr/bin/env python3
"""Fuzz the triangle detector and the spectral-sequence pages.

Longer-running cousin of the property tests: draws admissible triples and
filtered complexes until the trial budget runs out, checking the exactness
and limit identities on every one. Each triangle verdict is checked against
the homology of the iterated cone: a NotAcyclic report must carry exactly
its dimensions, and a detected triangle needs an acyclic cone. Prints a
summary; exits nonzero on the first counterexample (none are known).

    python3 scripts/triangle_fuzz.py --trials 500 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from pin2floer.complexes import (
    NotAcyclic,
    check_exact_triangle,
    filtered_pages,
    homology,
    iterated_mapping_cone,
    random_admissible_triple,
    random_filtered_complex,
    triangle_detect,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--degrees", type=int, nargs="+", default=[0, 1, 2, 3])
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    acyclic = 0
    for trial in range(args.trials):
        method = "cone" if trial % 2 else "formula"
        f1, f2, h1 = random_admissible_triple(rng, args.degrees, method=method)
        cone = iterated_mapping_cone(f1, f2, h1)
        for k in cone.degrees():
            if not cone.d_at(k - 1).mul(cone.d_at(k)).is_zero():
                print(f"trial {trial}: d^2 != 0 at degree {k}", file=sys.stderr)
                return 1
        cone_dims = homology(cone).dims
        tri = triangle_detect(f1, f2, h1)
        if isinstance(tri, NotAcyclic):
            if tri.homology_dims != cone_dims:
                print(
                    f"trial {trial}: NotAcyclic dims {tri.homology_dims} != "
                    f"cone homology {cone_dims}",
                    file=sys.stderr,
                )
                return 1
            continue
        if cone_dims:
            print(f"trial {trial}: triangle detected, cone homology {cone_dims}", file=sys.stderr)
            return 1
        acyclic += 1
        report = check_exact_triangle(tri.f1_star, tri.f2_star, tri.f3)
        if not report.ok:
            print(f"trial {trial}: inexact triangle {report.failures}", file=sys.stderr)
            return 1

    ss_trials = max(1, args.trials // 5)
    for trial in range(ss_trials):
        fc = random_filtered_complex(rng, args.degrees, num_levels=3)
        pages = filtered_pages(fc)
        hdims = homology(fc.complex).dims
        for k in set(hdims) | {kk for (_, kk) in pages.einf}:
            got = sum(n for (p, kk), n in pages.einf.items() if kk == k)
            if got != hdims.get(k, 0):
                print(
                    f"ss trial {trial}: E^inf total {got} != dim H = "
                    f"{hdims.get(k, 0)} at degree {k}",
                    file=sys.stderr,
                )
                return 1

    dt = time.perf_counter() - t0
    print(
        f"{args.trials} triangle trials ({acyclic} acyclic, all exact, all verdicts "
        "match the cone's homology), "
        f"{ss_trials} spectral trials, all limits match homology  [{dt:.1f}s]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
