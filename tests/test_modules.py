"""The coefficient ring, graded towers, and standard modules."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pin2floer.modules import (
    Box,
    CorrectionTerms,
    RingElement,
    StandardModule,
    StructuredModule,
    Tower,
    WindowError,
    F_box,
    T_plus,
    classify_parity,
    correction_terms_of,
    degree_kernel,
    dims,
    direct_sum,
    format_grading,
    module_from_json,
    module_to_json,
    q_rank_profile,
    reverse_orientation,
    ring_mul,
    standard_from_starts,
)

# -- ring F[[V]][Q]/(Q^3) ------------------------------------------------------


def test_ring_rendering():
    assert str(RingElement.zero()) == "0"
    assert str(RingElement.one()) == "1"
    assert str(RingElement.monomial(1, 0)) == "Q^1"
    assert str(RingElement.monomial(0, 1)) == "V^1"
    assert str(RingElement.monomial(2, 3)) == "Q^2 V^3"
    assert str(RingElement.one() + RingElement.monomial(1, 0)) == "1 + Q^1"


def test_q_cubed_vanishes():
    q = RingElement.monomial(1, 0)
    assert ring_mul(ring_mul(q, q), q).is_zero()
    assert not ring_mul(q, q).is_zero()


def test_characteristic_two():
    x = RingElement.one() + RingElement.monomial(2, 5)
    assert (x + x).is_zero()
    # (1 + Q)^2 = 1 + Q^2 since 2Q = 0
    one_plus_q = RingElement.one() + RingElement.monomial(1, 0)
    assert str(ring_mul(one_plus_q, one_plus_q)) == "1 + Q^2"


def test_monomial_degrees():
    # deg Q = -1, deg V = -4
    assert RingElement.monomial(1, 0).degrees() == [Fraction(-1)]
    assert RingElement.monomial(0, 2).degrees() == [Fraction(-8)]
    assert RingElement.monomial(2, 1).degrees() == [Fraction(-6)]


@given(st.integers(0, 2), st.integers(0, 6), st.integers(0, 2), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_ring_mul_commutes(q1, v1, q2, v2):
    x = RingElement.monomial(q1, v1)
    y = RingElement.monomial(q2, v2)
    assert ring_mul(x, y) == ring_mul(y, x)


@given(st.integers(0, 2), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_one_is_identity(q, v):
    x = RingElement.monomial(q, v)
    assert ring_mul(RingElement.one(), x) == x


# V-exponents far past any truncation order: every law must hold exactly
_elements = st.builds(
    lambda terms: sum(
        (RingElement.monomial(q, v) for q, v in terms), RingElement.zero()
    ),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10_000)), max_size=4),
)


@given(_elements, _elements, _elements)
@settings(max_examples=150, deadline=None)
def test_ring_laws_with_large_v_exponents(x, y, z):
    assert ring_mul(x, y) == ring_mul(y, x)
    assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
    assert ring_mul(x, y + z) == ring_mul(x, y) + ring_mul(x, z)
    assert ring_mul(RingElement.one(), x) == x


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_q_cubed_vanishes_at_large_v(v1, v2, v3):
    q = [RingElement.monomial(1, v) for v in (v1, v2, v3)]
    assert ring_mul(ring_mul(q[0], q[1]), q[2]).is_zero()
    assert ring_mul(q[0], q[1]) == RingElement.monomial(2, v1 + v2)


_big_v = st.integers(0, 10_000)


@given(st.integers(0, 2), _big_v, st.integers(0, 2), _big_v)
@settings(max_examples=100, deadline=None)
def test_monomial_degrees_add(q1, v1, q2, v2):
    x, y = RingElement.monomial(q1, v1), RingElement.monomial(q2, v2)
    prod = ring_mul(x, y)
    if q1 + q2 > 2:
        assert prod.is_zero()
    else:
        assert prod.degrees() == [x.degrees()[0] + y.degrees()[0]]


def test_ring_rejects_bad_exponents():
    with pytest.raises(ValueError, match="negative V-exponent"):
        RingElement({(0, -1)})
    with pytest.raises(ValueError, match="Q-exponent 3"):
        RingElement({(3, 0)})


# -- towers and boxes ----------------------------------------------------------


def test_tower_validation():
    with pytest.raises(ValueError):
        Tower(0, step=3)
    for kind in ("minus", "bar"):
        doc = {"towers": [{"base": 0, "step": 2}, {"base": 1, "kind": kind}]}
        with pytest.raises(ValueError, match=rf"tower 1 has kind '{kind}'"):
            module_from_json(doc)


def test_box_needs_positive_dim():
    with pytest.raises(ValueError):
        Box(0, 0)
    Box(0, 1, qsplit=True)  # fine


def test_plus_tower_dims():
    m = T_plus(-2)
    d = dims(m, (-6, 4))
    assert d == {Fraction(-2): 1, Fraction(0): 1, Fraction(2): 1, Fraction(4): 1}


def test_dims_empty_window_raises():
    with pytest.raises(WindowError):
        dims(T_plus(0), (3, 1))


def test_q_rank_profile_empty_window_raises():
    m = standard_from_starts(0, 1, 2).to_structured()
    with pytest.raises(WindowError, match=r"empty window \[3, 1\]"):
        q_rank_profile(m, (3, 1))


def test_degree_kernel_units():
    m = standard_from_starts(0, 1, 2).to_structured((Box(-1, 2),))
    dim, qrank = degree_kernel(m, (-2, 6))
    assert dim == {0: 1, 4: 1, 1: 1, 5: 1, 2: 1, 6: 1, -1: 2}
    assert qrank == {2: 1, 6: 1, 1: 1, 5: 1}
    assert all(type(z) is int for z in (*dim, *qrank))
    # integral Fractions are integers; a half-integer window end is not
    assert degree_kernel(T_plus(0), (Fraction(-2), Fraction(4))) == ({0: 1, 2: 1, 4: 1}, {})
    with pytest.raises(ValueError, match="window end -1/2 is not an integer"):
        degree_kernel(T_plus(0), (Fraction(-1, 2), 2))


# -- the integer kernel against the per-degree walk it replaced ----------------


def _ref_supports(t, z):
    n = (z - t.base) / t.step
    return n.denominator == 1 and n >= 0


def _ref_dims(m, window):
    lo, hi = Fraction(window[0]), Fraction(window[1])
    out = {}
    for t in m.towers:
        k0 = max(math.ceil((lo - t.base) / t.step), 0)
        z = t.base + t.step * k0
        while z <= hi:
            out[z] = out.get(z, 0) + 1
            z += t.step
    for b in m.boxes:
        if lo <= b.deg <= hi:
            out[b.deg] = out.get(b.deg, 0) + b.dim
    return out


def _ref_q_rank_profile(m, window):
    lo, hi = Fraction(window[0]), Fraction(window[1])
    out = {}
    for i, j in m.links:
        src, tgt = m.towers[i], m.towers[j]
        z = lo
        while z <= hi:
            if _ref_supports(src, z) and _ref_supports(tgt, z - 1):
                out[z] = out.get(z, 0) + 1
            z += 1
    return out


_gradings = st.integers(-80, 80)


@st.composite
def _modules_and_windows(draw):
    # most gradings lie near 0, and tower i often starts one above tower i-1
    # (mod 4), as in a Q-chain, so that links fire; the rest are arbitrary
    # integers
    gradings = st.one_of(
        st.sampled_from(range(-8, 9)),
        st.sampled_from(range(-8, 9)),
        _gradings,
    )
    towers = []
    for i in range(draw(st.integers(0, 4))):
        chained = st.integers(-2, 2).map(lambda k, i=i: i + 4 * k)
        base = draw(st.one_of(gradings, chained))
        towers.append(Tower(base, draw(st.sampled_from([2, 4]))))
    n = len(towers)
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j])
    down = st.sampled_from([(i, i - 1) for i in range(1, n)])  # along the chain
    links = []
    if n > 1:
        links = [draw(st.one_of(pairs, down)) for _ in range(draw(st.integers(0, 4)))]
    boxes = draw(st.lists(st.builds(Box, gradings, st.integers(1, 3)), max_size=3))
    lo = draw(gradings)
    hi = lo + draw(st.integers(0, 120))
    return StructuredModule(tuple(towers), tuple(boxes), tuple(links)), (lo, hi)


@given(_modules_and_windows())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_per_degree_walk(case):
    m, window = case
    for got, want in (
        (dims(m, window), _ref_dims(m, window)),
        (q_rank_profile(m, window), _ref_q_rank_profile(m, window)),
    ):
        assert got == want
        assert all(type(k) is int for k in got)


def test_direct_sum_accumulates():
    m = direct_sum(T_plus(0), F_box(2, -1), F_box(1, -1))
    d = dims(m, (-2, 2))
    assert d[Fraction(-1)] == 3
    assert d[Fraction(0)] == 1
    assert Fraction(1) not in d


def test_sum_reindexes_links():
    s = standard_from_starts(0, 1, 2).to_structured()
    m = direct_sum(T_plus(5), s)
    # the links of s must now point at towers 1, 2, 3
    assert all(i > 0 and j > 0 for i, j in m.links)
    assert q_rank_profile(m, (0, 4)) == q_rank_profile(
        direct_sum(s, T_plus(5)), (0, 4)
    )


# -- standard modules ----------------------------------------------------------


def test_tower_starts():
    s = StandardModule(0, 0, 0)
    assert s.tower_starts() == (Fraction(0), Fraction(1), Fraction(2))
    s2 = StandardModule(-1, -1, -1)
    assert s2.tower_starts() == (Fraction(-2), Fraction(-1), Fraction(0))


def test_standard_dims_profile():
    s = StandardModule(0, 0, 0)
    d = s.dims((-2, 10))
    profile = [d.get(Fraction(k), 0) for k in range(-2, 11)]
    # one-dimensional except for a hole every fourth degree
    assert profile == [0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1]


def test_standard_from_starts_roundtrip():
    s = standard_from_starts(-2, -1, 0)
    assert s == StandardModule(-1, -1, -1)
    with pytest.raises(ValueError):
        standard_from_starts(0, 0, 2)  # b must be odd relative to the pattern


def test_structured_links_shape():
    m = standard_from_starts(0, 1, 2).to_structured()
    assert len(m.towers) == 3
    assert m.links == ((2, 1), (1, 0))


@given(st.integers(-6, 6), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_standard_roundtrips_through_starts(gamma, i, j):
    # alpha >= beta >= gamma with even differences, as the Q-links demand
    s = StandardModule(gamma + 2 * (i + j), gamma + 2 * i, gamma)
    a, b, c = s.tower_starts()
    assert standard_from_starts(a, b, c) == s


# -- correction terms ----------------------------------------------------------


def test_correction_terms_ordering():
    CorrectionTerms(1, -1, -3)
    with pytest.raises(ValueError):
        CorrectionTerms(-1, 1, -3)  # alpha >= beta >= gamma required
    with pytest.raises(ValueError):
        CorrectionTerms(1, 0, Fraction(-1, 3))  # differences must be integers


def test_correction_terms_str():
    assert str(CorrectionTerms(1, -1, -3)) == "(1, -1, -3)"
    assert CorrectionTerms(1, -1, -3).as_tuple() == (
        Fraction(1),
        Fraction(-1),
        Fraction(-3),
    )


def test_reverse_orientation_involution():
    ct = CorrectionTerms(1, -1, -3)
    assert reverse_orientation(ct) == CorrectionTerms(3, 1, -1)
    assert reverse_orientation(reverse_orientation(ct)) == ct


def test_correction_terms_of_standard():
    assert correction_terms_of(StandardModule(-1, -1, -1)) == CorrectionTerms(
        -1, -1, -1
    )


def test_a_standard_module_checks_and_keeps_one_triple():
    s = StandardModule("1/2", Fraction(-3, 2), Fraction(-3, 2))
    assert correction_terms_of(s) is correction_terms_of(s)
    assert correction_terms_of(s).as_tuple() == (s.alpha, s.beta, s.gamma)
    # CorrectionTerms checks the order and the shared fractional part, the
    # standard module only the evenness of the differences
    for terms, message in (
        ((0, 2, 0), "must be ordered"),
        ((1, Fraction(1, 2), 0), "must share one fractional part"),
        ((1, 0, 0), "alpha-beta difference 1 must be an even integer"),
    ):
        with pytest.raises(ValueError, match=message):
            StandardModule(*terms)


# -- parity classifier ---------------------------------------------------------


def test_classify_parity_on_standards():
    even = StandardModule(0, 0, 0)
    assert classify_parity(even.dims((-10, 10)), 0) == "even"
    odd = StandardModule(1, -1, -1)
    assert classify_parity(odd.dims((-10, 10)), 0) == "odd"


# -- serialization ---------------------------------------------------------------


def test_module_json_roundtrip():
    m = direct_sum(
        standard_from_starts(-2, -1, 0).to_structured(),
        F_box(3, -1, qsplit=True),
    )
    again = module_from_json(module_to_json(m))
    assert again == m


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"towers": [{"base": 0}, {"base": "1/2"}]}, "tower 1 base 1/2"),
        ({"boxes": [{"deg": -1, "dim": 1}, {"deg": "1/2", "dim": 2}]}, "box 1 degree 1/2"),
    ],
)
def test_module_json_rejects_fractional_degrees(doc, named):
    with pytest.raises(ValueError, match=f"{named} is not an integer"):
        module_from_json(doc)


def test_integral_degrees_are_stored_as_int():
    for value in (4, Fraction(4), "4"):
        assert type(Tower(value).base) is int and Tower(value).base == 4
    assert type(Box("3", 1).deg) is int and Box("3", 1).deg == 3
    assert type(Box(Fraction(3), 1).deg) is int
    assert module_from_json({"towers": [{"base": "-2", "step": 2}]}) == T_plus(-2)
    s = StandardModule(Fraction(1, 2), Fraction(-3, 2), Fraction(-3, 2))
    assert s.tower_starts() == (1, -2, -1)
    assert all(type(x) is int for x in s.tower_starts())
    assert all(type(z) is int for z in RingElement.monomial(2, 1).degrees())


@pytest.mark.parametrize("value", [True, False, Fraction(1, 2), "1/2", "x", 1.0, None])
def test_non_integer_degrees_raise(value):
    with pytest.raises(ValueError, match=f"tower base {value} is not an integer"):
        Tower(value)
    with pytest.raises(ValueError, match=f"box degree {value} is not an integer"):
        Box(value, 1)


def test_format_grading():
    assert format_grading(Fraction(3)) == "3"
    assert format_grading(Fraction(-1, 2)) == "-1/2"


def test_structured_rejects_bad_link_index():
    with pytest.raises(ValueError):
        StructuredModule(towers=(Tower(0, 2),), links=((0, 1),))
