"""Smoke runs of the bundled scripts, so an API change cannot break them silently."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "name, argv",
    [
        ("triangle_fuzz", ["--trials", "20"]),
        ("knot_batch_demo", [str(SCRIPTS / "sample_knots.csv")]),
        ("gysin_family_survey", ["--n-max", "2"]),
    ],
)
def test_script_main_succeeds(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
