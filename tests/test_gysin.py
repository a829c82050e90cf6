"""Oracle and closed forms for the tower-plus-boxes partner problem."""

from __future__ import annotations

import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pin2floer.gysin import (
    _WINDOW_PAD,
    GysinCandidate,
    GysinCertificate,
    GysinError,
    GysinSolution,
    Infeasible,
    IncreaseStep,
    closed_form_corrected,
    closed_form_stated,
    feasibility_check,
    increase_classify,
    oracle_solve,
    stated_corrected_diffs,
    _strip_qsplit,
    _validate_source,
)
from pin2floer.modules import (
    Box,
    CorrectionTerms,
    StandardModule,
    StructuredModule,
    F_box,
    T_plus,
    _standard_structured,
    correction_terms_of,
    degree_kernel,
    direct_sum,
    format_grading,
    standard_from_starts,
)


def _starts_and_boxes(cand):
    starts = tuple(int(x) for x in cand.standard.tower_starts())
    boxes = tuple(sorted((int(b.deg), b.dim) for b in cand.boxes))
    return starts, boxes


# -- oracle on the pinned inputs -------------------------------------------------


def test_bare_tower_partners():
    sol = oracle_solve(T_plus(0))
    assert sol.unique
    assert sol.candidates[0].standard == StandardModule(0, 0, 0)
    assert sol.candidates[0].boxes == ()

    sol = oracle_solve(T_plus(-2))
    assert sol.unique
    assert sol.candidates[0].standard == StandardModule(-1, -1, -1)
    assert sol.candidates[0].boxes == ()


@pytest.mark.parametrize("k", range(6))
def test_even_box_family_unique(k):
    m = T_plus(0) + F_box(2 * k, -1) if k else T_plus(0)
    sol = oracle_solve(m)
    assert sol.unique
    cand = sol.candidates[0]
    assert cand.standard == StandardModule(0, 0, 0)
    expected = ((-1, k),) if k else ()
    assert tuple(sorted((int(b.deg), b.dim) for b in cand.boxes)) == expected


def test_oracle_certificates_attached():
    sol = oracle_solve(T_plus(0) + F_box(2, -1))
    assert all(isinstance(c.certificate, GysinCertificate) for c in sol.candidates)


def test_two_survivor_input():
    """A tower plus mixed boxes where the window data genuinely underdetermines."""
    m = direct_sum(T_plus(-4), F_box(3, -4), F_box(1, -3))
    sol = oracle_solve(m)
    assert not sol.unique
    got = {_starts_and_boxes(c) for c in sol.candidates}
    want = {
        (
            tuple(int(x) for x in StandardModule(0, -2, -2).tower_starts()),
            ((-4, 2),),
        ),
        (
            tuple(int(x) for x in StandardModule(-2, -2, -2).tower_starts()),
            ((-4, 2), (-3, 1)),
        ),
    }
    assert got == want


def test_odd_box_on_shifted_tower_two_survivors():
    # long-standing artifact: one odd box one below the base also admits a
    # shifted-tower reading, so the oracle alone reports two candidates
    sol = oracle_solve(T_plus(-2) + F_box(1, -2))
    assert len(sol.candidates) == 2
    assert not sol.unique


def test_feasibility_rejects_wrong_multiplicity():
    verdict = feasibility_check(
        T_plus(0) + F_box(1, -1),
        StandardModule(1, -1, -1).to_structured((Box(-1, 1),)),
    )
    assert isinstance(verdict, Infeasible)
    assert int(verdict.degree) == -1


def test_feasibility_accepts_correct_partner():
    verdict = feasibility_check(
        T_plus(0) + F_box(1, -1),
        StandardModule(1, -1, -1).to_structured(),
    )
    assert isinstance(verdict, GysinCertificate)


def test_source_validation():
    with pytest.raises(GysinError):
        oracle_solve(StandardModule(0, 0, 0).to_structured())  # not a step-2 input


def test_feasibility_rejects_fractional_candidate_box():
    # a box at 1/2 used to be folded onto degree 0 and certified; now no
    # such candidate can be built
    with pytest.raises(ValueError, match="box degree 1/2 is not an integer"):
        StandardModule(0, 0, 0).to_structured((Box(Fraction(1, 2), 1),))


@pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 3)])
def test_feasibility_rejects_fractional_tower_starts(alpha):
    start = format_grading(2 * alpha)
    assert start in ("1/2", "-1/2", "2/3")
    with pytest.raises(ValueError, match=f"tower start {start} is not an integer"):
        StandardModule(alpha, alpha, alpha)


def test_known_side_must_be_integral():
    with pytest.raises(ValueError, match="box degree -1/2 is not an integer"):
        T_plus(0) + F_box(1, Fraction(-1, 2))


# -- search budgets name the window they ran in -----------------------------------


def test_node_budget_error_names_window_and_budget():
    with pytest.raises(
        GysinError,
        match=r"\(6 nodes > max_nodes=5\) in window \[-5, 12\]",
    ):
        oracle_solve(T_plus(0) + F_box(1, -1), max_nodes=5)


def test_survivor_cap_error_names_window_and_cap():
    m = direct_sum(T_plus(-4), F_box(3, -4), F_box(1, -3))
    with pytest.raises(
        GysinError,
        match=r"survivors \(2 > max_solutions=1\) in window \[-8, 9\]",
    ):
        oracle_solve(m, max_solutions=1)


@pytest.mark.parametrize("name", ["max_solutions", "max_nodes"])
@pytest.mark.parametrize("limit", [0, -1])
def test_search_limits_below_one_are_rejected_up_front(name, limit):
    # without the check, 0 gave "implausibly many survivors (1 > 0)" or an
    # exceeded node budget, after part of the search had run
    with pytest.raises(GysinError, match=f"^{name} must be >= 1, got {limit}$"):
        oracle_solve(T_plus(0) + F_box(1, -1), **{name: limit})


def test_a_survivor_cap_of_one_admits_a_unique_partner():
    assert oracle_solve(T_plus(0) + F_box(1, -1), max_solutions=1).unique


def test_no_partner_error_names_window():
    with pytest.raises(
        GysinError, match=r"no feasible Gysin partner in window \[-16, 12\]$"
    ):
        oracle_solve(T_plus(0) + F_box(1, -12))


# -- closed forms -----------------------------------------------------------------


@pytest.mark.parametrize("family", [-1, 0, 1, 2])
@pytest.mark.parametrize("n", range(6))
def test_closed_form_certified(family, n):
    ans = closed_form_corrected(family, n)
    assert isinstance(ans.certificate, GysinCertificate)
    assert ans.box_dim == n // 2


def test_closed_form_family_minus_one():
    # family 2K-1 with K=0: base tower T^+_0, boxes at -1
    for n, (std, label) in {
        0: (StandardModule(0, 0, 0), "even"),
        1: (StandardModule(1, -1, -1), "odd"),
        2: (StandardModule(0, 0, 0), "even"),
        3: (StandardModule(1, -1, -1), "odd"),
    }.items():
        ans = closed_form_corrected(-1, n)
        assert ans.standard == std
        assert ans.parity_label == label
        assert ans.box_deg == -1


def test_closed_form_family_zero():
    # family 2K with K=0: boxes on the base class itself
    ans = closed_form_corrected(0, 3)
    assert ans.standard == StandardModule(1, 1, -1)
    assert ans.box_deg == 0
    assert ans.box_dim == 1


def test_closed_form_box_degree_constraint():
    assert closed_form_corrected(-1, 2, box_deg=-5).box_deg == -5
    with pytest.raises(GysinError):
        closed_form_corrected(-1, 2, box_deg=-2)


def test_closed_form_negative_n():
    with pytest.raises(GysinError):
        closed_form_corrected(-1, -1)


def test_closed_form_module_matches_oracle():
    for n in range(4):
        ans = closed_form_corrected(-1, n)
        sol = oracle_solve(T_plus(0) + F_box(n, -1) if n else T_plus(0))
        got = {_starts_and_boxes(c) for c in sol.candidates}
        starts = tuple(int(x) for x in ans.standard.tower_starts())
        boxes = ((-1, ans.box_dim),) if ans.box_dim else ()
        assert (starts, boxes) in got


def test_stated_deviations_are_the_two_documented_kinds():
    seen = set()
    for family in (-1, 0):
        for n in range(6):
            for w in stated_corrected_diffs(family, n):
                seen.add(w.cls)
    assert seen == {"case-labels", "finite-multiplicity"}


def test_stated_table_agrees_on_first_family_even_n():
    assert stated_corrected_diffs(-1, 0) == ()
    assert stated_corrected_diffs(-1, 2) == ()
    assert closed_form_stated(-1, 1).box_dim == 1  # the famous off-by-one


@given(st.integers(-3, 3), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_corrected_box_count_is_floor_half(family, n):
    assert closed_form_corrected(family, n).box_dim == n // 2


@given(st.integers(-3, 3), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_odd_n_never_latches_even_pattern(family, n):
    ans = closed_form_corrected(family, n)
    if n % 2 == 0:
        assert ans.standard.alpha == ans.standard.beta == ans.standard.gamma
    else:
        assert ans.standard.alpha != ans.standard.gamma


# -- window-step classifier --------------------------------------------------------


def test_increase_classify_repr():
    step = increase_classify((0, 1, 1))
    assert isinstance(step, IncreaseStep)
    assert "IncreaseStep(kind=" in repr(step)


# -- the single lazy search against the (a, b, c) triple loop it replaced ------------


def _reference_oracle_solve(m, max_solutions=64, max_nodes=500_000):
    """The triple-loop ``oracle_solve`` that preceded the lazy search, verbatim.

    One DFS per skeleton (a, b, c), each from the bottom of the window, with
    the skeleton's dimensions and Q-ranks from ``degree_kernel``.
    """
    for name, limit in (("max_solutions", max_solutions), ("max_nodes", max_nodes)):
        if limit < 1:
            raise GysinError(f"{name} must be >= 1, got {limit}")
    m = _strip_qsplit(m)
    _validate_source(m)
    smin = m.support_min()
    hi = m.feature_max() + _WINDOW_PAD
    lo = smin - 4
    box_top = hi - 8
    m_dims, _q = degree_kernel(m, (lo - 1, hi + 1))
    box_degrees = {b.deg for b in m.boxes if b.deg <= box_top}

    found = {}
    nodes = 0
    for a in range(smin - 2 + (smin % 2), box_top + 1, 2):
        for b in range(a + 1, smin - 3, -4):
            for c in range(b + 1, smin - 3, -4):
                skel = _standard_structured(a, b, c)
                st_dims, t_prof = degree_kernel(skel, (lo - 1, hi + 1))
                stack = [(lo, 0, (), 0)]
                while stack:
                    nodes += 1
                    if nodes > max_nodes:
                        raise GysinError(
                            "candidate search exceeded its node budget "
                            f"({nodes} nodes > max_nodes={max_nodes}) in window "
                            f"[{lo}, {hi}]; narrow the window or raise max_nodes"
                        )
                    k, qk, boxes, s_prev = stack.pop()
                    if k > hi:
                        full = _standard_structured(a, b, c, boxes)
                        cert = feasibility_check(m, full, window=(lo, hi))
                        if isinstance(cert, GysinCertificate):
                            key = ((a, b, c), tuple(sorted((b_.deg, b_.dim) for b_ in boxes)))
                            if key not in found:
                                std = standard_from_starts(a, b, c)
                                found[key] = GysinCandidate(std, boxes, full, cert)
                            if len(found) > max_solutions:
                                raise GysinError(
                                    "candidate search found implausibly many "
                                    f"survivors ({len(found)} > max_solutions="
                                    f"{max_solutions}) in window [{lo}, {hi}]"
                                )
                        continue
                    stk = st_dims.get(k, 0)
                    tk = t_prof.get(k, 0)
                    mk = m_dims.get(k, 0)
                    if qk < tk or qk > s_prev:
                        continue
                    x_lo = max(0, qk - tk, qk - stk)
                    x_hi = mk + qk - stk
                    if k not in box_degrees:
                        x_hi = min(x_hi, 0)
                    if k >= hi - 3 and qk != tk:
                        continue
                    for x in range(x_lo, x_hi + 1):
                        sk = stk + x
                        qnext = 2 * sk - mk - qk
                        nb = boxes + ((Box(k, x),) if x else ())
                        stack.append((k + 1, qnext, nb, sk))

    if not found:
        raise GysinError(f"no feasible Gysin partner in window [{lo}, {hi}]")
    cands = [cand for _key, cand in sorted(found.items(), key=lambda kv: kv[0])]
    return GysinSolution(candidates=tuple(cands), unique=len(cands) == 1, window=(lo, hi))


def _outcome(solve, m):
    """The solution (candidates, modules, certificates, window, unique), or the error.

    Node counts mean different things in the two searches, so a node-budget
    error is compared by kind; every other message is compared whole.
    """
    try:
        return solve(m)
    except GysinError as e:
        return "node budget" if "node budget" in str(e) else str(e)


def _tower_plus_boxes(k, boxes):
    return StructuredModule(
        towers=T_plus(2 * k).towers, boxes=tuple(Box(deg, n) for deg, n in boxes)
    )


def _assert_same_as_reference(m):
    got = _outcome(oracle_solve, m)
    assert got == _outcome(_reference_oracle_solve, m)
    return got


@given(
    st.integers(-3, 3),
    st.lists(st.tuples(st.integers(-8, 4), st.integers(1, 3)), min_size=1, max_size=2,
             unique_by=lambda box: box[0]),
)
@settings(max_examples=150, deadline=None)
def test_lazy_search_matches_triple_loop(k, offsets):
    _assert_same_as_reference(_tower_plus_boxes(k, [(2 * k + o, n) for o, n in offsets]))


def test_bench_seed_one_inputs_match_triple_loop(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs, _expected, _props = importlib.import_module("gen").make_gysin_inputs(1)
    assert len(inputs) == 1008
    outcomes = [_assert_same_as_reference(_tower_plus_boxes(i["k"], i["boxes"])) for i in inputs]
    solved = [o for o in outcomes if isinstance(o, GysinSolution)]
    assert any(not o.unique for o in solved)
    assert any(isinstance(o, str) and o.startswith("no feasible") for o in outcomes)


def test_budget_bound_input_is_answered():
    # the triple loop spent its 500,000 nodes on skeletons over this window
    m = T_plus(0) + F_box(2, -1000)
    with pytest.raises(GysinError, match="node budget"):
        _reference_oracle_solve(m)
    sol = oracle_solve(m, max_nodes=2_000)
    assert sol.unique and sol.window == (-1004, 12)
    (cand,) = sol.candidates
    want = closed_form_corrected(0, 2, box_deg=-1000)
    assert (cand.standard, cand.boxes) == (want.standard, (Box(-1000, want.box_dim),))


# -- boxes only where the known side has boxes is a rule of the search ----------------


def test_box_placement_is_a_search_rule_not_a_consequence():
    m = T_plus(-6) + F_box(1, -14)
    cand = StandardModule(-2, -2, -2).to_structured(tuple(Box(d, 1) for d in range(-14, -5)))
    for window in (None, (-18, 6)):
        assert isinstance(feasibility_check(m, cand, window=window), GysinCertificate)
    with pytest.raises(GysinError, match=r"^no feasible Gysin partner in window \[-18, 6\]$"):
        oracle_solve(m)


@pytest.mark.parametrize(
    "known, reported, other, box_degrees, window",
    [
        # S^3, whose partner S(0, 0, 0) has towers from 0, 1 and 2
        (T_plus(0), (0, 0, 0), (2, 2, 2), (0, 1, 2), (-4, 12)),
        # the +1-surgery core of sigma = -8, Arf 0
        (T_plus(-4), (-2, -2, -2), (0, 0, 0), (-4, -3, -2), (-8, 8)),
    ],
    ids=["S3", "sigma-8-arf0"],
)
def test_the_box_rule_decides_a_unique_partner(known, reported, other, box_degrees, window):
    # boxes below towers started 4 higher have the dimensions and Q-ranks of
    # the lower towers; only V, which the recurrence does not see, tells them apart
    sol = oracle_solve(known)
    assert sol.unique and sol.window == window
    assert correction_terms_of(sol.candidates[0].standard) == CorrectionTerms(*reported)
    cand = StandardModule(*other).to_structured(tuple(Box(d, 1) for d in box_degrees))
    assert isinstance(feasibility_check(known, cand, window=window), GysinCertificate)
