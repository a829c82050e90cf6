"""Tests of the benchmark's own logic: tail percentiles, self times, failure
counting, generator determinism and the metric list in BENCHMARK.json."""

from __future__ import annotations

import json
import pathlib
from array import array
from fractions import Fraction

import pytest

import checks
import child
import gen
import metrics
import run
import spans

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- tail-percentile choice ---------------------------------------------------


@pytest.mark.parametrize(
    "n, want",
    [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert metrics.tail_percentile(n) == want
    if want is not None:
        assert n * (100 - want) / 100 >= metrics.MIN_BEYOND


def test_percentile_interpolates_order_statistics():
    xs = list(range(1, 101))
    assert metrics.percentile(xs, 50) == pytest.approx(50.5)
    assert metrics.percentile(xs, 90) == pytest.approx(90.1)
    assert metrics.percentile([7.0], 90) == 7.0


def test_item_loops_run_until_p90_has_ten_samples_beyond():
    clock = child.Clock(seconds=0.0)
    for _ in range(99):
        clock.add(0.0)
        assert not clock.enough()
    clock.add(0.0)
    assert clock.enough()
    assert len(clock.result()["durations"]) == 100


# -- self time for nested and recursive spans ----------------------------------


def _spans(rows):
    """rows: (name, parent index, start, end) in opening order."""
    names = sorted({r[0] for r in rows})
    return (names, array("i", [names.index(r[0]) for r in rows]),
            array("i", [r[1] for r in rows]), array("d", [r[2] for r in rows]),
            array("d", [r[3] for r in rows]))


def test_self_time_subtracts_children_once_through_recursion():
    # correction_terms(mirror) -> correction_terms -> hm_plus_one, and a
    # second hm_plus_one directly under the outer call
    by_name = metrics.self_times(*_spans([
        ("surgery.correction_terms", -1, 0.0, 10.0),
        ("surgery.correction_terms", 0, 1.0, 8.0),
        ("surgery.hm_plus_one", 1, 2.0, 5.0),
        ("surgery.hm_plus_one", 0, 8.5, 9.5),
    ]))
    assert by_name["surgery.correction_terms"] == {"calls": 2, "self_s": pytest.approx(6.0)}
    assert by_name["surgery.hm_plus_one"] == {"calls": 2, "self_s": pytest.approx(4.0)}


def test_recorder_self_times_add_up_to_the_root_span():
    rec = spans.Recorder()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = spans.probe(rec, "toy.fact", fact)
    assert wrapped(6) == 720
    assert list(rec.parents) == [-1, 0, 1, 2, 3, 4]
    by_name = metrics.self_times(rec.names, rec.name_ids, rec.parents, rec.starts, rec.ends)
    root = rec.ends[0] - rec.starts[0]
    assert by_name["toy.fact"]["calls"] == 6
    assert by_name["toy.fact"]["self_s"] == pytest.approx(root)


def test_probes_reach_names_imported_elsewhere_and_fold_nested_elimination():
    from pin2floer import surgery
    from pin2floer.gf2 import F2Matrix

    original = surgery.correction_terms
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        kd = surgery.validate_knot("mirror trefoil", 2, (-1, 1))
        surgery.correction_terms(kd, 1)
        elim_spans = lambda: list(rec.name_ids).count(rec.names.index("gf2.elim"))  # noqa: E731
        before = elim_spans()
        F2Matrix.identity(3).rank()  # rank calls rref: one elimination, not two
        after = elim_spans()
    finally:
        restore()
    assert surgery.correction_terms is original
    assert not rec.missing
    by_name = metrics.self_times(rec.names, rec.name_ids, rec.parents, rec.starts, rec.ends)
    assert by_name["surgery.correction_terms"]["calls"] == 2
    # surgery imports check_exact_triangle by name; the mirrored +1 slope
    # runs the -1 pipeline, which audits two bar triangles
    assert by_name["complexes.check_exact_triangle"]["calls"] == 2
    assert rec.counters["surgery.keys"] == 1
    assert after - before == 1


# -- failure counting ------------------------------------------------------------


def _knot_output(rows, expected):
    reports = []
    for row, e in zip(rows, expected):
        a, b, g = checks.expected_terms(e)
        reports.append({
            "name": row["name"], "sigma": e["sigma"], "arf": e["arf"],
            "mirrored": e["mirrored"], "surgery": e["slope"],
            "hs_towers": {"alpha": str(a), "beta": str(b), "gamma": str(g)},
            "agree": True, "obstructed": a != b and b != g,
        })
    return reports


def test_fail_frac_counts_wrong_and_missing_rows():
    rows, expected, _props = gen.make_knot_rows(7, n_rows=5)
    reports = _knot_output(rows, expected)
    ok = json.dumps({"knots": reports}).encode()
    assert checks.fail_count(checks.check_knot_batch(rows, expected, ok, 0)) == 0

    reports[1]["hs_towers"]["alpha"] = str(Fraction(reports[1]["hs_towers"]["alpha"]) + 2)
    broken = json.dumps({"knots": reports[:4]}).encode()
    verdicts = checks.check_knot_batch(rows, expected, broken, 0)
    assert [v is not None for v in verdicts] == [False, True, False, False, True]
    assert checks.fail_frac(verdicts) == pytest.approx(0.4)

    crashed = checks.check_knot_batch(rows, expected, b"", 2)
    assert checks.fail_count(crashed) == 5


def test_errors_and_changed_verify_rows_count_as_failures():
    verdicts = checks.check_homalg(
        [{"acyclic": False}, {"acyclic": False}],
        [{"acyclic": False}, {"error": "RuntimeError('boom')"}],
    )
    assert checks.fail_count(verdicts) == 1
    baseline = {"a": "PASS", "b": "WARN"}
    same = json.dumps({"rows": [{"id": "a", "status": "PASS"}, {"id": "b", "status": "WARN"},
                                {"id": "new", "status": "PASS"}]}).encode()
    assert checks.check_verify(baseline, same, 0) is None
    changed = json.dumps({"rows": [{"id": "a", "status": "PASS"}, {"id": "b", "status": "PASS"}]})
    assert checks.check_verify(baseline, changed.encode(), 0) is not None
    failing = json.dumps({"rows": [{"id": "a", "status": "FAIL"}, {"id": "b", "status": "WARN"}]})
    assert checks.check_verify(baseline, failing.encode(), 2) is not None


# -- generators -------------------------------------------------------------------


def test_generators_are_seeded():
    assert gen.digest(gen.make_knot_rows(3)[0]) == gen.digest(gen.make_knot_rows(3)[0])
    assert gen.digest(gen.make_knot_rows(3)[0]) != gen.digest(gen.make_knot_rows(4)[0])
    a, b = gen.make_gysin_inputs(3)[0], gen.make_gysin_inputs(3)[0]
    assert a == b and len({json.dumps(x) for x in a}) == len(a)
    assert gen.make_homalg_item(3, 5) == gen.make_homalg_item(3, 5)


def test_homalg_items_hold_what_they_were_built_with():
    items = [gen.make_homalg_item(11, i) for i in range(4)]  # cone, ss, formula, ss
    outcomes = [child._homalg_item(item) for item, _exp in items]
    expected = json.loads(json.dumps([exp for _item, exp in items]))
    assert checks.check_homalg(expected, outcomes) == [None] * 4
    assert [o.get("acyclic") for o in outcomes[::2]] == [True, False]


def test_gysin_checks_accept_the_search_and_catch_a_dropped_candidate():
    inputs, expected, _props = gen.make_gysin_inputs(5)
    pick = [i for i, e in enumerate(expected) if e["two_candidates"]][:1]
    pick += [i for i, e in enumerate(expected) if e["infeasible"]][:1]
    assert len(pick) == 2
    sub = [inputs[i] for i in pick]
    outs = []
    from pin2floer.gysin import GysinError, oracle_solve
    for inp in sub:
        try:
            sol = oracle_solve(child.gysin_module(inp))
            outs.append({"candidates": [
                {"starts": [str(s) for s in c.standard.tower_starts()],
                 "boxes": [[str(b.deg), b.dim] for b in c.boxes]} for c in sol.candidates]})
        except GysinError:
            outs.append({"infeasible": True})
    exp = [expected[i] for i in pick]
    assert checks.check_gysin(sub, exp, outs) == [None, None]
    outs[0]["candidates"] = outs[0]["candidates"][:1]
    assert checks.fail_count(checks.check_gysin(sub, exp, outs)) == 1


# -- BENCHMARK.json lists what the runner reports ---------------------------------------


def test_benchmark_json_matches_the_runner():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in cfg["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in cfg["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in cfg["per_layer"]] == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
