"""Outside-in tracing of the package's public functions.

``install`` wraps each probed function and rebinds every name under which
the package looks it up: a function imported by name into another module
(``surgery`` imports ``check_exact_triangle``, ``cli`` imports
``run_verify``) is replaced there too, and a method is replaced on its
class under every alias (``StructuredModule.__add__`` is ``direct_sum``).
No package source changes. A probe whose target no longer exists is
reported as missing and reads zero.

Spans are kept in memory in flat arrays (name, parent, start, end) and
written once at the end by ``Recorder.dump``; counters record what the
spans alone cannot say, such as which feasibility checks certified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "pin2floer"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.seen_keys: set = set()
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._active[name] += 1
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    def top(self) -> str | None:
        return self.names[self.name_ids[self._stack[-1]]] if self._stack else None

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def maximum(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def dump(self, path: str) -> None:
        """Write the header as one JSON line, then the four span arrays."""
        header = {
            "names": self.names,
            "n": len(self.name_ids),
            "counters": dict(self.counters),
            "maxima": self.maxima,
            "missing": self.missing,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def probe(rec: Recorder, name: str, fn, collapse=False, before=None, after=None):
    """Wrap fn in a span named ``name``.

    ``collapse`` folds a call made from inside a span of the same name into
    that span (``rank`` calling ``rref`` is one elimination, not two).
    ``before(rec, args, kwargs)`` and ``after(rec, result)`` update counters.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if collapse and rec.top() == name:
            return fn(*args, **kwargs)
        if before is not None:
            before(rec, args, kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx, name)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


# -- counters taken at the probe boundaries ----------------------------------


def _shape_max(rec, args, _kw):
    for m in args[:2]:
        shape = getattr(m, "shape", None)
        if shape:
            rec.maximum("gf2.max_dim", max(shape))


def _count_skeleton(rec, _args, _kw):
    if rec.active("gysin.oracle"):
        rec.counters["gysin.skeletons"] += 1


def _memo_key(rec, args, kw):
    kd = args[0] if args else kw.get("kd")
    slope = args[1] if len(args) > 1 else kw.get("slope")
    if getattr(kd, "mirrored", True):
        return  # the unmirrored inner call carries the key
    key = (kd.signature, kd.arf, slope)
    rec.counters["surgery.keys"] += 1
    if key in rec.seen_keys:
        rec.counters["surgery.repeat_keys"] += 1
    rec.seen_keys.add(key)


def _is(type_name):
    def test(result):
        return type(result).__name__ == type_name

    return test


def _after_count(key, test):
    def after(rec, result):
        rec.counters[key + "_total"] += 1
        if test(result):
            rec.counters[key] += 1

    return after


def _after_verify(rec, report):
    rows = getattr(report, "rows", ())
    rec.counters["verify.rows"] += len(rows)
    rec.counters["verify.warn_rows"] += sum(getattr(r, "status", "") == "WARN" for r in rows)


# (span name, module, attribute path, probe options)
PROBES = (
    ("gf2.elim", "gf2", "F2Matrix.rref", {"collapse": True, "before": _shape_max}),
    ("gf2.elim", "gf2", "F2Matrix.rank", {"collapse": True, "before": _shape_max}),
    ("gf2.elim", "gf2", "F2Matrix.kernel_masks", {"collapse": True, "before": _shape_max}),
    ("gf2.elim", "gf2", "F2Matrix.solve_mask", {"collapse": True, "before": _shape_max}),
    ("gf2.mul", "gf2", "F2Matrix.mul", {"before": _shape_max}),
    ("complexes.triangle_detect", "complexes", "triangle_detect",
     {"after": _after_count("complexes.acyclic", _is("Triangle"))}),
    ("complexes.check_exact_triangle", "complexes", "check_exact_triangle", {}),
    ("complexes.filtered_pages", "complexes", "filtered_pages", {}),
    ("complexes.homology", "complexes", "homology", {}),
    ("modules.dims", "modules", "dims", {}),
    ("modules.q_rank_profile", "modules", "q_rank_profile", {}),
    ("modules.direct_sum", "modules", "direct_sum", {"collapse": True}),
    ("modules.direct_sum", "modules", "StructuredModule.direct_sum", {"collapse": True}),
    ("modules.to_structured", "modules", "StandardModule.to_structured",
     {"before": _count_skeleton}),
    ("gysin.oracle", "gysin", "oracle_solve", {}),
    ("gysin.feasibility", "gysin", "feasibility_check",
     {"after": _after_count("gysin.certified", _is("GysinCertificate"))}),
    ("gysin.closed_form", "gysin", "closed_form_corrected", {}),
    ("surgery.validate", "surgery", "validate_knot", {}),
    ("surgery.correction_terms", "surgery", "correction_terms", {"before": _memo_key}),
    ("surgery.hm_plus_one", "surgery", "hm_plus_one_surgery", {}),
    ("surgery.bar_towers", "surgery", "zero_surgery_bar_towers", {}),
    ("surgery.minus_one", "surgery", "minus_one_towers", {}),
    ("surgery.catalog_check", "surgery", "catalog_check", {}),
    ("cli.main", "cli", "main", {}),
    ("verify.run", "verify", "run_verify", {"after": _after_verify}),
)


class _JsonProxy:
    """Stands in for the ``json`` module inside the package so that JSON
    serialisation (``dumps``/``dump``) is timed as the ``cli.emit`` span."""

    def __init__(self, rec, real):
        self._real = real
        self.dumps = probe(rec, "cli.emit", real.dumps)
        self.dump = probe(rec, "cli.emit", real.dump)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(rec: Recorder):
    """Patch every probe into the imported package; returns an undo function."""
    importlib.import_module(PACKAGE)
    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for name, mod_name, path, opts in PROBES:
        try:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(f"{mod_name}.{path}")
            continue
        wrapper = probe(rec, name, original, **opts)
        if cls_path:
            for alias, value in list(owner.__dict__.items()):
                if value is original:
                    rebind(owner, alias, wrapper)
        else:
            for mod in _package_modules():
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        rebind(mod, alias, wrapper)
    real_json = sys.modules["json"]
    proxy = _JsonProxy(rec, real_json)
    for mod in _package_modules():
        if vars(mod).get("json") is real_json:
            rebind(mod, "json", proxy)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
