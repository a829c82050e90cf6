"""The measured process: runs one workload pass and writes its results.

    python3 bench/child.py SPEC.json

SPEC names the mode, the seed, the seconds to measure, where to write
spans when tracing, and where to write results. ``cli`` passes call
``pin2floer.cli.main`` once, as ``python3 -m pin2floer`` would, with stdout
sent to a file; ``gysin`` and ``homalg`` passes time one public call per
item until at least ``seconds`` of measured time and enough items for a
p90 with ten samples beyond it. Inputs are made before each item's timer
starts; only the package calls are timed.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import gen  # noqa: E402
from metrics import SpeedSampler, kernel_time, scaled, tail_percentile  # noqa: E402

RECALIBRATE_S = 0.25  # measured time between two speed calibrations


class Clock:
    """Per-item timer that recalibrates the speed every RECALIBRATE_S.

    Each item's raw duration is scaled with the kernel times taken at the
    start and end of the block of items it belongs to.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._block_start = 0
        self._kernel = kernel_time()

    def add(self, raw_s: float) -> None:
        self.raw.append(raw_s)
        if sum(self.raw[self._block_start:]) >= RECALIBRATE_S:
            self._close_block()

    def _close_block(self) -> None:
        after = kernel_time()
        for d in self.raw[self._block_start:]:
            self.scaled.append(scaled(d, self._kernel, after))
        self._block_start, self._kernel = len(self.raw), after

    def enough(self) -> bool:
        """At least ``seconds`` measured and a p90 with ten samples beyond."""
        return sum(self.raw) >= self.seconds and (tail_percentile(len(self.raw)) or 0) >= 90

    def result(self) -> dict:
        self._close_block()
        return {"durations": self.scaled, "raw_durations": self.raw}


def run_cli(spec: dict) -> dict:
    from pin2floer import cli

    with open(spec["stdout"], "w") as fh:
        saved, sys.stdout = sys.stdout, fh
        try:
            before = kernel_time()
            sampler = SpeedSampler()
            sampler.start()
            t0 = time.perf_counter()
            try:
                rc = cli.main(spec["argv"])
            finally:
                dt = time.perf_counter() - t0
                sampler.stop()
        finally:
            sys.stdout = saved
    return {"returncode": rc, "durations": [sampler.scaled(dt, before, kernel_time())],
            "raw_durations": [dt]}


def gysin_module(inp: dict):
    """T^+_{2K} plus boxes, built directly so no package span is recorded."""
    from pin2floer.modules import Box, StructuredModule, T_plus

    boxes = tuple(Box(deg, dim) for deg, dim in inp["boxes"])
    return StructuredModule(towers=T_plus(2 * inp["k"]).towers, boxes=boxes)


def run_gysin(spec: dict) -> dict:
    from pin2floer import gysin

    with open(spec["inputs"]) as fh:
        inputs = json.load(fh)
    clock, outcomes = Clock(spec["seconds"]), []
    for inp in inputs:
        m = gysin_module(inp)
        t0 = time.perf_counter()
        try:
            sol = gysin.oracle_solve(m)
            got = {"candidates": [
                {"starts": [str(s) for s in c.standard.tower_starts()],
                 "boxes": [[str(b.deg), b.dim] for b in c.boxes]}
                for c in sol.candidates
            ]}
        except gysin.GysinError as e:
            got = {"infeasible": True} if "no feasible" in str(e) else {"error": repr(e)}
        except Exception as e:  # noqa: BLE001 - an unexpected error is a counted failure
            got = {"error": repr(e)}
        clock.add(time.perf_counter() - t0)
        outcomes.append(got)
        if clock.enough():
            break
    return dict(clock.result(), outcomes=outcomes)


def _homalg_item(item: dict) -> dict:
    from pin2floer import complexes as cx

    if item["kind"] == "ss":
        fc = cx.filtered_from_json(item["doc"])
        pages = cx.filtered_pages(fc)
        hom = cx.homology(fc.complex)
        totals: dict[str, int] = {}
        for (_p, k), n in pages.einf.items():
            totals[str(k)] = totals.get(str(k), 0) + n
        return {"einf_totals": {k: n for k, n in totals.items() if n},
                "homology": {str(k): n for k, n in hom.dims.items() if n}}
    f1, f2, h1 = cx.triangle_bundle_from_json(item["doc"])
    res = cx.triangle_detect(f1, f2, h1)
    if not hasattr(res, "f3"):
        return {"acyclic": False}
    report = cx.check_exact_triangle(res.f1_star, res.f2_star, res.f3)
    return {"acyclic": True, "exact": report.ok,
            "h_dims": [{str(k): n for k, n in h.items() if n} for h in res.h_dims]}


def run_homalg(spec: dict) -> dict:
    clock, outcomes, expected = Clock(spec["seconds"]), [], []
    i = 0
    while True:
        item, exp = gen.make_homalg_item(spec["seed"], i)
        t0 = time.perf_counter()
        try:
            got = _homalg_item(item)
        except Exception as e:  # noqa: BLE001 - an unexpected error is a counted failure
            got = {"error": repr(e)}
        clock.add(time.perf_counter() - t0)
        outcomes.append(got)
        expected.append(exp)
        i += 1
        if clock.enough():
            break
    return dict(clock.result(), outcomes=outcomes, expected=expected)


RUNNERS = {"cli": run_cli, "gysin": run_gysin, "homalg": run_homalg}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    rec = None
    if spec.get("spans"):
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    result = RUNNERS[spec["mode"]](spec)
    if rec is not None:
        rec.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, default=str)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
