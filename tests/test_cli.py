"""Command-line surface: exact outputs and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pin2floer import cli
from pin2floer.cli import main
from pin2floer.complexes import (
    filtered_to_json,
    random_admissible_triple,
    random_filtered_complex,
    triangle_bundle_to_json,
)
from pin2floer.modules import Box, StructuredModule, Tower, module_to_json

CSV_TEXT = """name,signature,alexander,arf,surgery
trefoil,-2,-1;1,1,+1
figure-eight,0,3;-1,,+1
mirror-trefoil,2,-1;1,1,-1
"""


def test_blowup_plain(capsys):
    assert main(["blowup", "-k", "3"]) == 0
    assert capsys.readouterr().out == "Q^2 V^1\n"


def test_blowup_large_k(capsys):
    assert main(["blowup", "-k", "18"]) == 0
    assert capsys.readouterr().out == "Q^2 V^76\n"


def test_blowup_zero(capsys):
    assert main(["blowup", "-k", "4"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_blowup_json(capsys):
    assert main(["blowup", "-k", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"k": 2, "coefficient": "Q^2", "zero": False}


def test_knot_correction_line(capsys):
    rc = main(
        ["knot", "correction", "--alexander", "-1;1", "--signature", "-2",
         "--surgery", "+1"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "alpha=-1 beta=-1 gamma=-1\n"


def test_knot_correction_json(capsys):
    rc = main(
        ["knot", "correction", "--alexander", "3;-1", "--signature", "0",
         "--surgery", "+1", "--name", "fig8", "--json"]
    )
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["name"] == "fig8"
    assert rep["arf"] == 1
    assert rep["agree"] is True
    assert rep["hs_towers"] == {"alpha": 1, "beta": -1, "gamma": -1}
    assert rep["table"] == rep["hs_towers"]
    assert rep["obstructed"] is False
    assert rep["mirrored"] is False
    assert "towers" in rep["hm_plus_one"]


def test_knot_correction_validation_error(capsys):
    rc = main(
        ["knot", "correction", "--alexander", "1;1", "--signature", "-2",
         "--surgery", "+1"]
    )
    assert rc == 2
    assert "error: validation:" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_knot_correction_rejects_a_slope_other_than_one(capsys, json_flag):
    rc = main(
        ["knot", "correction", "--alexander", "-1;1", "--signature", "-2",
         "--surgery", "2", *json_flag]
    )
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "error: validation: surgery slope must be +1 or -1, got 2" in cap.err


def test_knot_correction_usage_error(capsys):
    rc = main(["knot", "correction", "--signature", "-2", "--surgery", "+1"])
    assert rc == 1
    assert "required" in capsys.readouterr().err


def test_knot_batch(tmp_path, capsys):
    p = tmp_path / "knots.csv"
    p.write_text(CSV_TEXT)
    assert main(["knot", "batch", "--csv", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "trefoil: sigma=-2 arf=1 surgery=+1 -> alpha=-1 beta=-1 gamma=-1"
    )
    assert out[2].endswith("(mirrored)")


def test_knot_batch_bad_row(tmp_path, capsys):
    p = tmp_path / "knots.csv"
    p.write_text("name,signature,alexander,arf,surgery\nbad,-3,-1;1,,+1\n")
    assert main(["knot", "batch", "--csv", str(p)]) == 2
    assert "bad" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, column, reason",
    [
        ("k1,,-1;1,1,+1", "signature", "is missing or empty"),
        ("k1,abc,-1;1,1,+1", "signature", "must be an integer, got 'abc'"),
        ("k1,-2", "alexander", "is missing or empty"),
        ("k1,-2,x;1,1,+1", "alexander", "must be integers joined by ';'"),
        ("k1,-2,-1;1,abc,+1", "arf", "must be an integer, got 'abc'"),
        ("k1,-2,-1;1,1", "surgery", "is missing or empty"),
        ("k1,-2,-1;1,1,abc", "surgery", "must be an integer, got 'abc'"),
    ],
)
def test_knot_batch_bad_column(tmp_path, capsys, row, column, reason):
    p = tmp_path / "knots.csv"
    p.write_text(f"name,signature,alexander,arf,surgery\n{row}\n")
    assert main(["knot", "batch", "--csv", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"knot 'k1': column '{column}' {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_knot_batch_rejects_a_slope_other_than_one(tmp_path, capsys, json_flag):
    p = tmp_path / "knots.csv"
    p.write_text("name,signature,alexander,arf,surgery\nk1,-2,-1;1,1,2\n")
    assert main(["knot", "batch", "--csv", str(p), *json_flag]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "knot 'k1': surgery slope must be +1 or -1, got 2" in cap.err


def test_knot_batch_json_bad_third_row_writes_nothing(tmp_path, capsys):
    p = tmp_path / "knots.csv"
    p.write_text(
        "name,signature,alexander,arf,surgery\n"
        "trefoil,-2,-1;1,1,+1\nfigure-eight,0,3;-1,,-1\nk3,-2,-1;1,1,abc\n"
    )
    assert main(["knot", "batch", "--csv", str(p), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "knot 'k3': column 'surgery'" in err


def test_knot_batch_missing_file(capsys):
    assert main(["knot", "batch", "--csv", "/does/not/exist.csv"]) == 2
    assert "error: io:" in capsys.readouterr().err


def test_gysin_solve_unique(capsys):
    rc = main(["gysin", "solve", "--tower", "0", "--box", "-1:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "S(0, 0, 0) + F^1<-1>" in out
    assert "unique: yes" in out


def test_gysin_solve_three_boxes_below_the_tower(capsys):
    # a window pad of 8 or 9 once found no partner at all for this input
    assert main(["gysin", "solve", "--tower", "0", "--box", "-1:3"]) == 0
    out = capsys.readouterr().out
    assert "S(1, -1, -1) + F^1<-1>" in out
    assert "unique: yes" in out


def test_gysin_solve_two_candidates(capsys):
    # a window pad of 8 to 10 once missed the second candidate here
    rc = main(
        ["gysin", "solve", "--tower", "-4", "--box", "-4:3", "--box", "-3:1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "unique: no" in out
    assert out.count("S(") == 2
    assert "S(-2, -2, -2) + F^2<-4> + F^1<-3>" in out
    assert "S(0, -2, -2) + F^2<-4>" in out


def test_gysin_solve_has_no_window_knob(capsys):
    assert main(["gysin", "solve", "--tower", "0", "--pad", "8"]) == 1
    assert "unrecognized arguments: --pad" in capsys.readouterr().err


def test_gysin_solve_json(capsys):
    rc = main(["gysin", "solve", "--tower", "-2", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["unique"] is True
    assert data["candidates"][0]["towers"] == {"alpha": -1, "beta": -1, "gamma": -1}


def test_gysin_bad_box_spec(capsys):
    assert main(["gysin", "solve", "--tower", "0", "--box", "nope"]) == 2
    assert "DEG:DIM" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_gysin_solve_rejects_a_survivor_cap_below_one(capsys, cap, json_flag):
    argv = ["gysin", "solve", "--tower", "0", "--box", "-1:2", "--max-solutions", cap]
    assert main(argv + json_flag) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--max-solutions must be >= 1, got {cap}" in out.err


def test_homalg_triangle_acyclic(tmp_path, capsys):
    rng = random.Random(0)
    f1, f2, h1 = random_admissible_triple(rng, (0, 1, 2, 3), method="cone")
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(triangle_bundle_to_json(f1, f2, h1)))
    assert main(["homalg", "triangle", "--file", str(p)]) == 0
    out = capsys.readouterr().out
    assert "acyclic: yes" in out
    assert "triangle exact: yes" in out


def test_homalg_triangle_not_acyclic_json(tmp_path, capsys):
    rng = random.Random(7)
    f1, f2, h1 = random_admissible_triple(rng, (0, 1, 2, 3), method="formula")
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(triangle_bundle_to_json(f1, f2, h1)))
    assert main(["homalg", "triangle", "--file", str(p), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    if not data["acyclic"]:
        assert data["cone_homology"]
    else:
        assert data["exact"] is True


def test_homalg_ss(tmp_path, capsys):
    rng = random.Random(4)
    fc = random_filtered_complex(rng, (0, 1, 2))
    p = tmp_path / "filt.json"
    p.write_text(json.dumps(filtered_to_json(fc)))
    assert main(["homalg", "ss", "--file", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("E^0:")
    assert "E^inf:" in out


@pytest.mark.parametrize(
    "command, kind", [("triangle", "triangle bundle"), ("ss", "filtered complex")]
)
def test_homalg_rejects_a_top_level_array(tmp_path, capsys, command, kind):
    p = tmp_path / "array.json"
    p.write_text("[1, 2]")
    assert main(["homalg", command, "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"error: validation: {kind} must be a JSON object" in cap.err


@pytest.mark.parametrize(
    "command, doc, path",
    [
        ("triangle", {"c1": 5}, "c1 must be a JSON object"),
        ("ss", {"dims": [1]}, "dims must be a JSON object"),
        ("ss", {"dims": {"0": 1}, "d": {}, "levels": {"0": 5}}, "levels.0 must be a JSON array"),
        (
            "ss",
            {"dims": {"0": 1, "1": 1}, "d": {"1": [5]}, "levels": {"0": [0], "1": [0]}},
            "d.1: row 0 must be a JSON array, got int",
        ),
    ],
    ids=["triangle-complex", "ss-dims", "ss-levels", "ss-row"],
)
def test_homalg_rejects_a_nested_container_of_the_wrong_type(tmp_path, capsys, command, doc, path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert main(["homalg", command, "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"error: validation: {path}" in cap.err


@pytest.mark.parametrize("entry", [2, True, 0.5, "1"])
def test_homalg_ss_rejects_a_matrix_entry_other_than_zero_or_one(tmp_path, capsys, entry):
    p = tmp_path / "doc.json"
    p.write_text(
        json.dumps({"dims": {"0": 1, "1": 1}, "d": {"1": [[entry]]}, "levels": {"0": [0], "1": [0]}})
    )
    assert main(["homalg", "ss", "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"error: validation: d.1: row 0, column 0 is {entry!r}, must be 0 or 1" in cap.err


@pytest.mark.parametrize("part, field", [("c2", "d"), ("f1", "blocks"), ("h1", "blocks")])
def test_homalg_triangle_names_the_matrix_of_a_bad_entry(tmp_path, capsys, part, field):
    doc = triangle_bundle_to_json(*random_admissible_triple(random.Random(4), method="formula"))
    key, rows = next((k, m) for k, m in doc[part][field].items() if m and m[0])
    rows[0][0] = 2
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(doc))
    assert main(["homalg", "triangle", "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"error: validation: {part}.{field}.{key}: row 0, column 0 is 2, must be 0 or 1" in cap.err


_ONE_VECTOR = {"dims": {"0": 1}, "d": {}, "levels": {"0": [0]}}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_ONE_VECTOR, "dims": {"0": 1.5}}, "dims.0 must be a JSON integer, got float"),
        ({**_ONE_VECTOR, "dims": {"0": True}}, "dims.0 must be a JSON integer, got bool"),
        (
            {**_ONE_VECTOR, "levels": {"0": [0.5]}},
            "levels.0: level 0 must be a JSON integer, got float",
        ),
        ({**_ONE_VECTOR, "dims": {"x": 1}}, "dims: key 'x' is not an integer degree"),
        ({**_ONE_VECTOR, "d": {"1.0": []}}, "d: key '1.0' is not an integer degree"),
        ({**_ONE_VECTOR, "levels": {"zero": [0]}}, "levels: key 'zero' is not an integer degree"),
    ],
    ids=["dim-float", "dim-bool", "level-float", "dims-key", "d-key", "levels-key"],
)
def test_homalg_ss_requires_json_integers(tmp_path, capsys, doc, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert main(["homalg", "ss", "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"error: validation: {message}" in cap.err


@pytest.mark.parametrize("part, degree", [("f1", 0.7), ("f2", True), ("f1", "0")])
def test_homalg_triangle_requires_an_integer_map_degree(tmp_path, capsys, part, degree):
    doc = triangle_bundle_to_json(*random_admissible_triple(random.Random(4), method="formula"))
    doc[part]["degree"] = degree
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps(doc))
    assert main(["homalg", "triangle", "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    kind = type(degree).__name__
    assert f"error: validation: {part}.degree must be a JSON integer, got {kind}" in cap.err


def test_homalg_ss_rejects_a_negative_dimension(tmp_path, capsys):
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({"dims": {"0": -1}, "d": {}, "levels": {"0": []}}))
    assert main(["homalg", "ss", "--file", str(p)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "error: validation: dimension at degree 0 is -1, must be >= 0" in cap.err


@pytest.mark.parametrize("r_max", ["-1", "-3"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_homalg_ss_negative_r_max_is_rejected(tmp_path, capsys, r_max, json_flag):
    p = tmp_path / "filt.json"
    p.write_text(json.dumps(filtered_to_json(random_filtered_complex(random.Random(4), (0, 1, 2)))))
    assert main(["homalg", "ss", "--file", str(p), "--r-max", r_max, *json_flag]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"--r-max must be >= 0, got {r_max}" in cap.err


def test_catalog_entry(capsys):
    assert main(["catalog", "Poincare"]) == 0
    out = capsys.readouterr().out
    assert "name: Poincare" in out
    assert "alpha=-1 beta=-1 gamma=-1" in out


def test_catalog_list(capsys):
    assert main(["catalog", "--list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert len(names) == 54
    assert "S3" in names


def test_catalog_json(capsys):
    assert main(["catalog", "S3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ct"] == {"alpha": 0, "beta": 0, "gamma": 0}


def test_catalog_unknown(capsys):
    assert main(["catalog", "wat"]) == 2
    assert "unknown catalog name" in capsys.readouterr().err


def test_verify_paper(capsys):
    assert main(["verify", "paper"]) == 0
    out = capsys.readouterr().out
    assert "FAIL: 0" in out
    assert "verdict: PASS" in out


def test_verify_paper_json(capsys):
    assert main(["verify", "paper", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["FAIL"] == 0
    warn_anchors = {
        r["anchor"] for r in data["rows"] if r["status"] == "WARN"
    }
    assert warn_anchors == {"case-labels", "finite-multiplicity"}


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pin2floer", "blowup", "-k", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Q^2 V^10\n"


# -- the JSON emitter ----------------------------------------------------------------


def _stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emitted(obj) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_json(obj)
    return buf.getvalue()


_strings = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600aZ') | st.characters()
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), -(10**18))
    | st.floats()
    | st.floats(-1e6, 1e6).map(lambda x: round(x, 3))
    | _strings
)
_json_trees = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_strings, kids, max_size=4),
    max_leaves=40,
)


@given(_json_trees)
@example({"a": True, "b": 1, "c": 1.0, "d": [True, 1, 1.0, None], "e": {}, "f": []})
@example([{}, [], ({"": ""},), -(2**80), 0.001, 1e300, -0.0])
@settings(max_examples=400, deadline=None)
def test_emitter_matches_stdlib_dumps(obj):
    assert _emitted(obj) == _stdlib_json(obj)


@st.composite
def _modules(draw):
    tower = st.builds(Tower, st.integers(-30, 30), st.sampled_from([2, 4]))
    towers = draw(st.lists(tower, max_size=3))
    n = len(towers)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    links = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    box = st.builds(Box, st.integers(-30, 30), st.integers(1, 12), st.booleans())
    boxes = draw(st.lists(box, max_size=6))
    return StructuredModule(towers=towers, boxes=boxes, links=links)


def _nested(obj, depth: int):
    # alternate list and dict levels, so the module sits ``depth`` levels deep
    for level in range(depth):
        obj = [obj] if level % 2 else {"m": obj, "n": 1}
    return obj


@given(_modules(), st.integers(0, 4))
@example(StructuredModule(), 0)
@example(
    StructuredModule(
        towers=(Tower(0, 2), Tower(-3, 4)), boxes=(Box(-1, 2, True), Box(-5, 1)), links=((1, 0),)
    ),
    3,
)
@settings(max_examples=200, deadline=None)
def test_module_is_emitted_as_its_module_to_json_dict(m, depth):
    assert _emitted(_nested(m, depth)) == _stdlib_json(_nested(module_to_json(m), depth))


def test_one_box_at_two_depths_in_one_process():
    # the box text cache must tell nesting depths apart
    m = StructuredModule(towers=(Tower(2, 2),), boxes=(Box(-7, 3, True), Box(-7, 3)))
    for depth in (1, 3, 1, 2):
        assert _emitted(_nested(m, depth)) == _stdlib_json(_nested(module_to_json(m), depth))


def _bundle_file(tmp_path, method, seed):
    f1, f2, h1 = random_admissible_triple(random.Random(seed), (0, 1, 2, 3), method=method)
    p = tmp_path / f"tri-{method}-{seed}.json"
    p.write_text(json.dumps(triangle_bundle_to_json(f1, f2, h1)))
    return str(p)


def _filtered_file(tmp_path):
    p = tmp_path / "filt.json"
    fc = random_filtered_complex(random.Random(4), (0, 1, 2))
    p.write_text(json.dumps(filtered_to_json(fc)))
    return str(p)


@pytest.mark.parametrize(
    "argv",
    [
        ["gysin", "solve", "--tower", "-4", "--box", "-4:3", "--box", "-3:1"],
        ["knot", "correction", "--alexander", "-1;1", "--signature", "-2", "--surgery", "-1"],
        ["homalg", "triangle", "--file", lambda d: _bundle_file(d, "cone", 0)],
        ["homalg", "triangle", "--file", lambda d: _bundle_file(d, "formula", 7)],
        ["homalg", "ss", "--file", _filtered_file],
        ["blowup", "-k", "18"],
        ["catalog"],
        ["catalog", "Poincare"],
        ["verify", "paper"],
    ],
    ids=lambda argv: " ".join(a for a in argv if isinstance(a, str) and a.isalpha()),
)
def test_json_output_matches_stdlib_dumps(tmp_path, capsys, monkeypatch, argv):
    # every subcommand emits through _emit_json; the object it was handed is
    # serialised again by the stdlib and must give the same bytes
    emitted = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json", lambda obj: (emitted.append(obj), emit(obj)))
    argv = [a(tmp_path) if callable(a) else a for a in argv] + ["--json"]
    assert main(argv) == 0
    assert len(emitted) == 1
    assert capsys.readouterr().out == _stdlib_json(emitted[0])


@pytest.mark.parametrize(
    "obj", [{"x": Fraction(1, 2)}, [{1, 2}], {"ok": b"bytes"}, {1: "int key"}, object()]
)
def test_emitter_rejects_unsupported_types(capsys, obj):
    with pytest.raises(TypeError):
        cli._emit_json(obj)
    assert capsys.readouterr().out == ""
