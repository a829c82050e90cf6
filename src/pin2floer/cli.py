"""Command-line front end (installed as ``p2f``).

Subcommands::

    p2f gysin solve --tower 0 --box -1:2 [--json]
    p2f knot correction --alexander "-1;1" --signature -2 --surgery +1
    p2f knot batch --csv knots.csv [--json]
    p2f homalg triangle --file bundle.json [--json]
    p2f homalg ss --file filtered.json [--r-max N] [--json]
    p2f blowup -k 3 [--json]
    p2f catalog Poincare | p2f catalog --list
    p2f verify paper [--json]

Exit codes: 0 on success (WARN included), 1 on usage errors, 2 on
validation failures or verification FAILs. ``--json`` switches any
subcommand to canonical JSON (sorted keys) on stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .complexes import (
    NotAcyclic,
    check_exact_triangle,
    filtered_from_json,
    filtered_pages,
    triangle_bundle_from_json,
    triangle_detect,
)
from .gysin import oracle_solve
from .modules import (
    Box,
    StructuredModule,
    T_plus,
    F_box,
    _box_to_json,
    _grading_to_json,
    _tower_to_json,
    correction_terms_of,
    format_grading,
    module_to_json,
)
from .surgery import (
    KnotData,
    KnotError,
    catalog,
    catalog_names,
    blowup_coefficient,
    correction_terms,
    hm_plus_one_surgery,
    seifert_obstruction,
    validate_knot,
)
from .verify import run_verify

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to exit code 1.

    The negative-number matcher is widened so values like ``-1;1``
    (Alexander lists) and ``-1:2`` (box specs) pass as option arguments
    instead of being mistaken for flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+(?:[:;]-?\d+)+$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _encode_json(obj, out: list, indent: str = "\n") -> None:
    """Append the text of ``obj`` to ``out`` as ``_emit_json`` lays it out,
    with ``indent`` (a newline and spaces) as the current nesting. A
    ``StructuredModule`` is written as its ``module_to_json`` dict would be."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_json(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _encode_json(obj[key], out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _encode_json(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, StructuredModule):
        _encode_module(obj, out, indent)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.cache
def _box_text(deg: int, dim: int, qsplit: bool, indent: str) -> str:
    """The text of one box at nesting ``indent``; cached, since a knot batch
    repeats a few thousand distinct boxes across ~10^5 places."""
    chunks: list = []
    _encode_json(_box_to_json(Box(deg, dim, qsplit)), chunks, indent)
    return "".join(chunks)


def _encode_module(m: StructuredModule, out: list, indent: str) -> None:
    """``_encode_json`` of ``module_to_json(m)`` without building the box
    dicts: the keys in sorted order, each box's text from ``_box_text``."""
    inner = indent + "  "
    item = inner + "  "
    texts = [_box_text(b.deg, b.dim, b.qsplit, item) for b in m.boxes]
    boxes = "[" + item + ("," + item).join(texts) + inner + "]" if texts else "[]"
    out.append("{" + inner + '"boxes": ' + boxes + "," + inner + '"links": ')
    _encode_json(m.links, out, inner)
    out.append("," + inner + '"towers": ')
    _encode_json([_tower_to_json(t) for t in m.towers], out, inner)
    out.append(indent + "}")


def _emit_json(obj) -> None:
    """Write ``obj`` to stdout as canonical JSON in one write.

    The bytes equal ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
    newline for trees of dicts with ``str`` keys, lists, tuples, ``str``,
    ``int``, ``float``, ``bool`` and ``None``. A ``StructuredModule`` value
    is encoded as its ``module_to_json`` dict would be; any other value or
    key raises ``TypeError``. ``json.dumps`` with ``indent`` runs the
    pure-Python encoder, which this avoids.
    """
    out: list = []
    _encode_json(obj, out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _ct_json(ct) -> dict:
    return {
        "alpha": _grading_to_json(ct.alpha),
        "beta": _grading_to_json(ct.beta),
        "gamma": _grading_to_json(ct.gamma),
    }


def _module_text(m: StructuredModule) -> str:
    parts = []
    for t in m.towers:
        parts.append(f"T^+({t.base}, step {t.step})")
    for b in sorted(m.boxes, key=lambda b: b.deg):
        tag = ", qsplit" if b.qsplit else ""
        parts.append(f"F^{b.dim}<{b.deg}{tag}>")
    body = " + ".join(parts) if parts else "0"
    if m.links:
        body += "  [Q-links: " + ", ".join(f"{i}->{j}" for i, j in m.links) + "]"
    return body


def _candidate_text(standard, boxes) -> str:
    s = f"S{correction_terms_of(standard)}"
    for b in sorted(boxes, key=lambda b: b.deg):
        s += f" + F^{b.dim}<{b.deg}>"
    return s


# --- gysin ------------------------------------------------------------------


def _parse_box(spec: str):
    try:
        deg_s, dim_s = spec.split(":")
        return int(deg_s), int(dim_s)
    except ValueError:
        raise KnotError(
            f"box spec must look like DEG:DIM (e.g. -1:2), got {spec!r}"
        ) from None


def _cmd_gysin_solve(args) -> int:
    if args.max_solutions < 1:
        raise ValueError(f"--max-solutions must be >= 1, got {args.max_solutions}")
    m = T_plus(args.tower)
    for spec in args.box or ():
        deg, dim = _parse_box(spec)
        m = m + F_box(dim, deg)
    sol = oracle_solve(m, max_solutions=args.max_solutions)
    if args.json:
        _emit_json(
            {
                "input": module_to_json(m),
                "window": list(sol.window),
                "unique": sol.unique,
                "candidates": [
                    {
                        "towers": _ct_json(correction_terms_of(c.standard)),
                        "boxes": [
                            {"deg": b.deg, "dim": b.dim}
                            for b in sorted(c.boxes, key=lambda b: b.deg)
                        ],
                        "module": module_to_json(c.module),
                    }
                    for c in sol.candidates
                ],
            }
        )
        return 0
    print(f"input: {_module_text(m)}")
    print(f"window: [{sol.window[0]}, {sol.window[1]}]")
    for c in sol.candidates:
        print(_candidate_text(c.standard, c.boxes))
    print(f"unique: {'yes' if sol.unique else 'no'}")
    return 0


# --- knot -------------------------------------------------------------------


def _parse_alexander(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x.strip()) for x in text.split(";") if x.strip() != "")
    except ValueError:
        raise KnotError(
            f"Alexander coefficients must be integers joined by ';', got {text!r}"
        ) from None


def _knot_report(kd: KnotData, slope: int) -> dict:
    """One knot's JSON report, less the "hm_plus_one" module, which only the
    JSON output prints. ``correction_terms`` raises unless the pipeline and
    the table agree, so "table" and "agree" restate the one checked triple."""
    ct = correction_terms(kd, slope)
    terms = _ct_json(ct)
    return {
        "name": kd.name,
        "sigma": kd.signature,
        "arf": kd.arf,
        "mirrored": kd.mirrored,
        "surgery": slope,
        "hs_towers": terms,
        "table": terms,
        "agree": True,
        "obstructed": seifert_obstruction(ct).obstructed,
    }


def _ct_line(ct) -> str:
    return (
        f"alpha={format_grading(ct.alpha)} "
        f"beta={format_grading(ct.beta)} "
        f"gamma={format_grading(ct.gamma)}"
    )


def _cmd_knot_correction(args) -> int:
    kd = validate_knot(
        args.name, args.signature, _parse_alexander(args.alexander), arf=args.arf
    )
    if args.json:
        rep = _knot_report(kd, args.surgery)
        rep["hm_plus_one"] = module_to_json(hm_plus_one_surgery(kd))
        _emit_json(rep)
        return 0
    print(_ct_line(correction_terms(kd, args.surgery)))
    return 0


def _read_knot_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise KnotError(f"no knot rows in {path}")
    need = {"name", "signature", "alexander", "surgery"}
    missing = need - set(rows[0].keys())
    if missing:
        raise KnotError(f"CSV is missing columns: {sorted(missing)}")
    return rows


def _column(row: dict, column: str, parse=int, what: str = "an integer"):
    """Parse one CSV field; a short row leaves trailing fields as None."""
    raw = (row.get(column) or "").strip()
    if not raw:
        raise KnotError(f"column {column!r} is missing or empty")
    try:
        return parse(raw)
    except ValueError:
        raise KnotError(f"column {column!r} must be {what}, got {raw!r}") from None


def _batch_one(row: dict, with_module: bool) -> dict:
    """One CSV row's report; ``with_module`` adds the "hm_plus_one" module
    itself, for ``_encode_json`` to write."""
    name = (row.get("name") or "").strip()
    try:
        signature = _column(row, "signature")
        alexander = _column(
            row, "alexander", _parse_alexander, "integers joined by ';'"
        )
        arf = _column(row, "arf") if (row.get("arf") or "").strip() else None
        slope = _column(row, "surgery")
        kd = validate_knot(name, signature, alexander, arf=arf)
        rep = _knot_report(kd, slope)
        if with_module:
            rep["hm_plus_one"] = hm_plus_one_surgery(kd)
        return rep
    except ValueError as e:
        raise KnotError(f"knot {name!r}: {e}") from None


def _cmd_knot_batch(args) -> int:
    rows = _read_knot_rows(args.csv)
    if args.json:
        # The layout of _emit_json({"knots": reports}), one report at a time:
        # each is encoded and joined as soon as it is computed, and stdout is
        # written once, so a failing row leaves it empty.
        out = ['{\n  "knots": [']
        for i, row in enumerate(rows):
            chunks = [",\n    " if i else "\n    "]
            _encode_json(_batch_one(row, True), chunks, "\n    ")
            out.append("".join(chunks))
        out.append("\n  ]\n}\n")
        sys.stdout.write("".join(out))
        return 0
    reports = [_batch_one(r, False) for r in rows]
    for rep in reports:
        flags = []
        if rep["mirrored"]:
            flags.append("mirrored")
        if rep["obstructed"]:
            flags.append("obstructed")
        tail = f"  ({', '.join(flags)})" if flags else ""
        h = rep["hs_towers"]
        print(
            f"{rep['name']}: sigma={rep['sigma']} arf={rep['arf']} "
            f"surgery={rep['surgery']:+d} -> alpha={h['alpha']} "
            f"beta={h['beta']} gamma={h['gamma']}{tail}"
        )
    return 0


# --- homalg -----------------------------------------------------------------


def _cmd_homalg_triangle(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    f1, f2, h1 = triangle_bundle_from_json(data)
    res = triangle_detect(f1, f2, h1)
    if isinstance(res, NotAcyclic):
        if args.json:
            _emit_json(
                {
                    "acyclic": False,
                    "cone_homology": {str(k): n for k, n in sorted(res.homology_dims.items())},
                }
            )
        else:
            print("acyclic: no")
            print(
                "cone homology: "
                + " ".join(f"{k}:{n}" for k, n in sorted(res.homology_dims.items()))
            )
        return 0
    report = check_exact_triangle(res.f1_star, res.f2_star, res.f3)
    if args.json:
        _emit_json(
            {
                "acyclic": True,
                "exact": report.ok,
                "failures": [
                    {"vertex": v, "degree": str(k), "reason": msg}
                    for v, k, msg in report.failures
                ],
            }
        )
    else:
        print("acyclic: yes")
        print(f"triangle exact: {'yes' if report.ok else 'NO'}")
        for v, k, msg in report.failures:
            print(f"  vertex {v} degree {k}: {msg}")
    return 0 if report.ok else 2


def _cmd_homalg_ss(args) -> int:
    if args.r_max is not None and args.r_max < 0:
        raise ValueError(f"--r-max must be >= 0, got {args.r_max}")
    with open(args.file) as fh:
        data = json.load(fh)
    fc = filtered_from_json(data)
    pages = filtered_pages(fc, r_max=args.r_max)

    def page_entries(page: dict) -> list:
        return [[p, k, n] for (p, k), n in sorted(page.items())]

    if args.json:
        _emit_json(
            {
                "pages": [
                    {"r": r, "entries": page_entries(pg)}
                    for r, pg in enumerate(pages.pages)
                ],
                "stable_r": pages.stable_r,
                "einf": page_entries(pages.einf),
            }
        )
        return 0
    for r, pg in enumerate(pages.pages):
        cells = " ".join(f"({p},{k}):{n}" for (p, k), n in sorted(pg.items()))
        print(f"E^{r}: {cells if cells else '0'}")
    print(f"stable from r={pages.stable_r}")
    cells = " ".join(f"({p},{k}):{n}" for (p, k), n in sorted(pages.einf.items()))
    print(f"E^inf: {cells if cells else '0'}")
    return 0


# --- blowup / catalog / verify ----------------------------------------------


def _cmd_blowup(args) -> int:
    coeff = blowup_coefficient(args.k)
    if args.json:
        _emit_json({"k": args.k, "coefficient": str(coeff), "zero": coeff.is_zero()})
        return 0
    print(str(coeff))
    return 0


def _cmd_catalog(args) -> int:
    if args.list or args.name is None:
        if args.json:
            _emit_json({"names": list(catalog_names())})
        else:
            for n in catalog_names():
                print(n)
        return 0
    entry = catalog(args.name)
    if args.json:
        _emit_json(
            {
                "name": entry.name,
                "hs": module_to_json(entry.hs),
                "hm": module_to_json(entry.hm) if entry.hm is not None else None,
                "ct": _ct_json(entry.ct) if entry.ct is not None else None,
                "hm_reversed": entry.hm_reversed,
                "boxes_undefined": entry.boxes_undefined,
            }
        )
        return 0
    print(f"name: {entry.name}")
    print(f"hs: {_module_text(entry.hs)}")
    if entry.hm is not None:
        rev = "  (for the reversed orientation)" if entry.hm_reversed else ""
        print(f"hm: {_module_text(entry.hm)}{rev}")
    if entry.ct is not None:
        print(f"correction terms: {_ct_line(entry.ct)}")
    if entry.boxes_undefined:
        print("note: finite part omitted (not determined by reversal alone)")
    return 0


def _cmd_verify_paper(args) -> int:
    report = run_verify()
    if args.json:
        _emit_json(report.to_json())
        return 0 if report.ok else 2
    c = report.counts
    print(
        f"PASS: {c.get('PASS', 0)}  WARN: {c.get('WARN', 0)}  "
        f"FAIL: {c.get('FAIL', 0)}  elapsed: {report.elapsed_s:.2f}s"
    )
    for r in report.rows:
        if r.status == "WARN":
            print(f"WARN [{r.anchor}] {r.id}: {r.got}")
    for r in report.rows:
        if r.status == "FAIL":
            print(f"FAIL {r.id}: expected {r.expected}, got {r.got}")
    print(f"verdict: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 2


# --- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    top = _Parser(prog="p2f", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gysin", help="abstract Gysin-sequence solvers")
    gsub = g.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    gs = gsub.add_parser("solve", help="find all standard-module partners")
    gs.add_argument("--tower", type=int, required=True, help="base of the step-2 tower")
    gs.add_argument(
        "--box",
        action="append",
        metavar="DEG:DIM",
        help="finite summand, repeatable (e.g. --box -1:2)",
    )
    gs.add_argument("--max-solutions", type=int, default=64)
    gs.add_argument("--json", action="store_true")
    gs.set_defaults(func=_cmd_gysin_solve)

    k = sub.add_parser("knot", help="alternating-knot surgery computations")
    ksub = k.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    kc = ksub.add_parser("correction", help="correction terms of one knot")
    kc.add_argument("--alexander", required=True, help='coefficients "a0;a1;..."')
    kc.add_argument("--signature", type=int, required=True)
    kc.add_argument("--surgery", type=int, required=True, help="+1 or -1")
    kc.add_argument("--name", default="knot")
    kc.add_argument("--arf", type=int, default=None)
    kc.add_argument("--json", action="store_true")
    kc.set_defaults(func=_cmd_knot_correction)
    kb = ksub.add_parser("batch", help="process a CSV of knots")
    kb.add_argument("--csv", required=True, help="columns: name,signature,alexander,arf,surgery")
    kb.add_argument("--json", action="store_true")
    kb.set_defaults(func=_cmd_knot_batch)

    h = sub.add_parser("homalg", help="homological-algebra utilities")
    hsub = h.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    ht = hsub.add_parser("triangle", help="detect an exact triangle from (f1, f2, H1)")
    ht.add_argument("--file", required=True, help="JSON bundle with c1,c2,c3,f1,f2,h1")
    ht.add_argument("--json", action="store_true")
    ht.set_defaults(func=_cmd_homalg_triangle)
    hs = hsub.add_parser("ss", help="spectral sequence of a filtered complex")
    hs.add_argument("--file", required=True, help="JSON filtered complex")
    hs.add_argument("--r-max", type=int, default=None)
    hs.add_argument("--json", action="store_true")
    hs.set_defaults(func=_cmd_homalg_ss)

    b = sub.add_parser("blowup", help="blow-up coefficient of a generator")
    b.add_argument("-k", type=int, required=True)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_blowup)

    c = sub.add_parser("catalog", help="known model spaces")
    c.add_argument("name", nargs="?", default=None)
    c.add_argument("--list", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_catalog)

    v = sub.add_parser("verify", help="verification sweeps")
    vsub = v.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    vp = vsub.add_parser("paper", help="run every deterministic check group")
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(func=_cmd_verify_paper)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except AssertionError as e:
        print(f"error: mismatch: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: validation: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
