"""Benchmark runner for pin2floer: four seeded workloads, one result line.

    python3 bench/run.py --workload knot-batch --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` and writes scratch files under ``.bench_work``. Each
invocation is a fresh interpreter, and every measured pass runs in a child
process of its own, so nothing carries over between runs. Inputs are made
from ``--seed`` before timing starts; every output is checked after.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass plus the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any output is wrong.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("knot-batch", "gysin-search", "homalg", "verify-paper")
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

TIMED_SPANS = (
    "gf2.elim", "gf2.mul",
    "complexes.triangle_detect", "complexes.check_exact_triangle",
    "complexes.filtered_pages", "complexes.homology",
    "modules.dims", "modules.q_rank_profile", "modules.direct_sum", "modules.to_structured",
    "gysin.oracle", "gysin.feasibility", "gysin.closed_form",
    "surgery.validate", "surgery.correction_terms", "surgery.hm_plus_one",
    "surgery.bar_towers", "surgery.minus_one", "surgery.catalog_check",
    "cli.main", "cli.emit",
    "verify.run",
)
LAYER_EXTRAS = (
    ("gf2.max_dim", "count"),
    ("complexes.acyclic_ratio", "ratio"),
    ("gysin.skeletons_per_oracle", "count"),
    ("gysin.certified_ratio", "ratio"),
    ("surgery.repeat_key_ratio", "ratio"),
    ("cli.output_bytes", "B"),
    ("verify.rows", "count"),
    ("verify.warn_rows", "count"),
    ("trace.overhead", "ratio"),
)


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for name in TIMED_SPANS:
        out += [(f"{name}_calls", "count"), (f"{name}_self_s", "s")]
    return out + list(LAYER_EXTRAS)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env.pop("P2F_WINDOW_PAD", None)  # the benchmark runs the default window
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout_path=None) -> tuple[int, float, float]:
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MB)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_child(work: pathlib.Path, tag: str, spec: dict) -> tuple[dict, float]:
    """Run bench/child.py on spec; returns (its result, peak RSS MB)."""
    spec = dict(spec, result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    rc, _wall, rss = spawn([sys.executable, str(BENCH / "child.py"), str(spec_path)])
    if rc != 0:
        raise RuntimeError(f"benchmark child {tag} exited with code {rc}")
    return json.loads(pathlib.Path(spec["result"]).read_text()), rss


def measure_setup() -> float:
    """Median time of a fresh interpreter importing the CLI and building
    its parser (``p2f --help``), after one discarded warm-up that compiles
    the bytecode caches; each run is scaled to the reference speed."""
    code = "import sys; from pin2floer.cli import main; sys.exit(main(['--help']))"
    walls = []
    before = metrics.kernel_time()
    for i in range(SETUP_REPEATS + 1):
        rc, wall, _rss = spawn([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"p2f --help exited with code {rc}")
        after = metrics.kernel_time()
        if i:
            walls.append(metrics.scaled(wall, before, after))
        before = after
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# Workloads. Each pass returns a dict with: verdicts (one per item), samples
# (latency seconds at the reference speed), raw_samples (wall clock), items,
# rss_mb, output_digests (one per call), output_bytes and latency_unit.
# ---------------------------------------------------------------------------


def _cli_argv(workload: str, work: pathlib.Path) -> list[str]:
    if workload == "knot-batch":
        return ["knot", "batch", "--csv", str(work / "knots.csv"), "--json"]
    return ["verify", "paper", "--json"]


def _cli_check(workload, ctx, stdout: bytes, rc: int) -> list:
    if workload == "knot-batch":
        return checks.check_knot_batch(ctx["rows"], ctx["expected"], stdout, rc)
    return [checks.check_verify(ctx["baseline"], stdout, rc)]


def _cli_output(workload, stdout: bytes):
    if workload == "knot-batch":
        return stdout
    try:  # elapsed times differ on every sweep; the rows do not
        return json.loads(stdout).get("rows")
    except ValueError:
        return stdout.decode(errors="replace")


def prepare(workload: str, seed: int, work: pathlib.Path) -> dict:
    """Make the seeded inputs; returns the context the passes and checks use."""
    if workload == "knot-batch":
        rows, expected, props = gen.make_knot_rows(seed)
        with open(work / "knots.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return {"rows": rows, "expected": expected, "props": props, "digest": gen.digest(rows)}
    if workload == "gysin-search":
        inputs, expected, props = gen.make_gysin_inputs(seed)
        (work / "gysin.json").write_text(json.dumps(inputs))
        return {"inputs": inputs, "expected": expected, "props": props,
                "digest": gen.digest(inputs)}
    if workload == "homalg":
        inputs, _expected, props = gen.make_homalg_inputs(seed)
        return {"props": props, "digest": gen.digest(inputs)}
    return {"baseline": json.loads((BENCH / "verify_baseline.json").read_text()),
            "props": {"inputs": "none; the sweep is fixed by the package"}, "digest": "-"}


def cli_pass(workload, ctx, work, seconds, trace_path=None) -> dict:
    """Fresh processes, one ``p2f`` call each, until ``seconds`` (one call
    when tracing)."""
    argv = _cli_argv(workload, work)
    out_path = work / "stdout.bin"
    verdicts, samples, raw, rss, outputs = [], [], [], 0.0, []
    while not samples or (trace_path is None and sum(raw) < seconds):
        res, peak = run_child(work, "cli", {"mode": "cli", "argv": argv,
                                            "stdout": str(out_path), "spans": trace_path})
        stdout = out_path.read_bytes()
        verdicts += _cli_check(workload, ctx, stdout, res["returncode"])
        samples += res["durations"]
        raw += res["raw_durations"]
        rss = max(rss, peak)
        outputs.append(gen.digest_any(_cli_output(workload, stdout)))
    per_call = len(ctx["rows"]) if workload == "knot-batch" else 1
    return {
        "verdicts": verdicts, "samples": samples, "raw_samples": raw,
        "items": per_call * len(samples), "rss_mb": rss, "output_digests": outputs,
        "output_bytes": out_path.stat().st_size, "latency_unit": "one CLI call" if workload == "knot-batch" else "one sweep",
    }


def item_pass(workload, seed, ctx, work, seconds, trace_path=None) -> dict:
    """One child process timing one package call per item."""
    spec = {"seed": seed, "seconds": seconds, "spans": trace_path}
    if workload == "gysin-search":
        spec.update(mode="gysin", inputs=str(work / "gysin.json"))
    else:
        spec.update(mode="homalg")
    res, rss = run_child(work, "items", spec)
    outcomes = res["outcomes"]
    if workload == "gysin-search":
        n = len(outcomes)
        verdicts = checks.check_gysin(ctx["inputs"][:n], ctx["expected"][:n], outcomes)
    else:
        verdicts = checks.check_homalg(res["expected"], outcomes)
    return {
        "verdicts": verdicts, "samples": res["durations"], "raw_samples": res["raw_durations"],
        "items": len(outcomes), "rss_mb": rss, "output_digests": [gen.digest(outcomes)],
        "output_bytes": 0, "latency_unit": "one input",
    }


def measure(workload, seed, ctx, work, seconds, traced=False) -> dict:
    trace_path = str(work / "trace.spans") if traced else None
    if workload in ("knot-batch", "verify-paper"):
        return cli_pass(workload, ctx, work, seconds, trace_path)
    return item_pass(workload, seed, ctx, work, seconds, trace_path)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rate_and_latency(items: int, samples: list[float]) -> dict:
    return {
        "items_per_s": items / sum(samples),
        "item_p50_ms": 1000 * statistics.median(samples),
        "item_p90_ms": 1000 * metrics.percentile(samples, 90),
    }


def end_to_end(result: dict, setup_s: float) -> dict:
    return {"setup_s": setup_s, **rate_and_latency(result["items"], result["samples"]),
            "peak_rss_mb": result["rss_mb"]}


def per_layer(trace_file: str, traced: dict, untraced: dict) -> tuple[dict, list]:
    header, name_ids, parents, starts, ends = spans.load(trace_file)
    by_name = metrics.self_times(header["names"], name_ids, parents, starts, ends)
    c, mx = header["counters"], header["maxima"]
    out = {}
    for name in TIMED_SPANS:
        entry = by_name.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}_calls"] = entry["calls"]
        out[f"{name}_self_s"] = entry["self_s"]
    oracle_calls = by_name.get("gysin.oracle", {}).get("calls", 0)
    out.update({
        "gf2.max_dim": mx.get("gf2.max_dim", 0),
        "complexes.acyclic_ratio": metrics.ratio(c.get("complexes.acyclic", 0),
                                                 c.get("complexes.acyclic_total", 0)),
        "gysin.skeletons_per_oracle": metrics.ratio(c.get("gysin.skeletons", 0), oracle_calls),
        "gysin.certified_ratio": metrics.ratio(c.get("gysin.certified", 0),
                                               c.get("gysin.certified_total", 0)),
        "surgery.repeat_key_ratio": metrics.ratio(c.get("surgery.repeat_keys", 0),
                                                  c.get("surgery.keys", 0)),
        "cli.output_bytes": traced["output_bytes"] if by_name.get("cli.main") else 0,
        "verify.rows": c.get("verify.rows", 0),
        "verify.warn_rows": c.get("verify.warn_rows", 0),
        "trace.overhead": metrics.ratio(sum(traced["raw_samples"]) / traced["items"],
                                        sum(untraced["raw_samples"]) / untraced["items"]),
    })
    return out, header["missing"]


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pin2floer" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("P2F_WINDOW_PAD", None)  # the checks use the default window too

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        ctx = prepare(args.workload, args.seed, work)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        print(f"inputs  digest {ctx['digest']}  {json.dumps(ctx['props'], sort_keys=True)}")
        if args.trace:
            untraced = measure(args.workload, args.seed, ctx, work, args.seconds / 2)
            traced = measure(args.workload, args.seed, ctx, work, args.seconds / 2, traced=True)
            keep = WORK / f"last-trace-{args.workload}.spans"
            shutil.copyfile(work / "trace.spans", keep)
            values, missing = per_layer(str(keep), traced, untraced)
            if missing:
                print(f"note: probes with no target (read as 0): {', '.join(missing)}")
            results, units = (untraced, traced), dict(per_layer_units())
            print(f"spans written to {keep.relative_to(ROOT)}")
        else:
            setup_s = measure_setup()
            result = measure(args.workload, args.seed, ctx, work, args.seconds)
            values, results, units = end_to_end(result, setup_s), (result,), dict(END_TO_END)
            n = len(result["samples"])
            tail = metrics.tail_percentile(n)
            print(f"latency samples {n} ({result['latency_unit']} each); highest percentile "
                  f"with >= {metrics.MIN_BEYOND} samples beyond: {f'p{tail}' if tail else 'none'}")
            raw = rate_and_latency(result["items"], result["raw_samples"])
            print("unscaled wall clock: " + "  ".join(f"{k} {_fmt(v)}" for k, v in raw.items()))
        verdicts = [v for r in results for v in r["verdicts"]]
        failed = checks.fail_count(verdicts)
        digests = sorted({d for r in results for d in r["output_digests"]})
        print(f"output  digest {' '.join(digests)}  bytes {results[-1]['output_bytes']}"
              + ("  (differs between calls)" if len(digests) > 1 else ""))
        print(f"fail_frac {checks.fail_frac(verdicts):.6g} ratio  ({failed} of {len(verdicts)})")
        for msg in [v for v in verdicts if v][:10]:
            print(f"  FAILED {msg}")
        for name, value in values.items():
            print(f"{name:<40} {_fmt(value):>14} {units[name]}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(verdicts),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
