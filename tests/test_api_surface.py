"""Every public name of the package has a caller outside the tests.

A name listed in a module's ``__all__`` counts as used when some ``Name`` or
``Attribute`` node in ``src/``, ``scripts/`` or ``bench/`` spells it, or when
a probe of ``bench/spans.py`` patches it. Docstrings and strings do not count,
so a function that only tests call shows up here and should go.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pin2floer"

# JSON writers and readers whose other half ships: tests use them to write
# and read fixtures for ``p2f homalg`` and to round-trip modules.
TEST_ONLY = {"filtered_to_json", "triangle_bundle_to_json", "module_from_json"}


def _public_names() -> dict[str, str]:
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update((elt.value, path.stem) for elt in node.value.elts)
    return names


def _probed_names() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets
        ):
            # (span name, module, attribute path, probe options)
            return {part for probe in node.value.elts for part in probe.elts[2].value.split(".")}
    raise AssertionError("bench/spans.py has no PROBES table")


def _referenced_names() -> set[str]:
    refs = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
    return refs | _probed_names()


def test_every_public_name_has_a_caller():
    refs = _referenced_names()
    unused = sorted(
        f"{module}.{name}"
        for name, module in _public_names().items()
        if name not in refs and name not in TEST_ONLY
    )
    assert unused == []


def test_test_only_names_are_public_and_unreferenced():
    public, refs = _public_names(), _referenced_names()
    assert TEST_ONLY <= set(public)
    assert not TEST_ONLY & refs
