"""Bit-packed GF(2) linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pin2floer.gf2 import ContractError, F2Matrix


def _random_matrix(rng: random.Random, rows: int, cols: int) -> F2Matrix:
    return F2Matrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def test_from_rows_and_entries():
    m = F2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.shape == (2, 3)
    assert m.entry(0, 0) == 1
    assert m.entry(0, 1) == 0
    assert m.entry(1, 2) == 1
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]


def test_ragged_rows_rejected():
    with pytest.raises(ContractError):
        F2Matrix.from_rows([[1, 0], [1]])


@pytest.mark.parametrize("entry", [2, -1, True, 1.0, "1", None])
def test_entries_must_be_the_ints_zero_or_one(entry):
    with pytest.raises(ContractError, match=r"^row 1, column 2 is .+, must be 0 or 1$"):
        F2Matrix.from_rows([[0, 1, 0], [1, 0, entry]])


def test_identity_and_zero():
    assert F2Matrix.identity(3).rank() == 3
    assert F2Matrix.zero(2, 5).is_zero()
    assert F2Matrix.zero(0, 0).rank() == 0


def test_addition_is_xor():
    a = F2Matrix.from_rows([[1, 1], [0, 1]])
    b = F2Matrix.from_rows([[1, 0], [0, 1]])
    assert (a + b) == F2Matrix.from_rows([[0, 1], [0, 0]])
    assert (a + a).is_zero()


def test_mul_shape_mismatch():
    a = F2Matrix.zero(2, 3)
    b = F2Matrix.zero(2, 3)
    with pytest.raises(ContractError):
        a.mul(b)


def test_mul_known_product():
    a = F2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    b = F2Matrix.from_rows([[1, 0], [1, 1], [0, 1]])
    assert a.mul(b) == F2Matrix.from_rows([[0, 1], [1, 0]])


def test_apply_matches_mul():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, 4, 6)
        v = rng.getrandbits(6)
        col = F2Matrix(6, 1, [(v >> j) & 1 for j in range(6)])
        out = m.mul(col)
        expected = sum(out.entry(i, 0) << i for i in range(4))
        assert m.apply(v) == expected


def test_rank_of_singular_matrix():
    m = F2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m.rank() == 2


def test_kernel_vectors_map_to_zero():
    rng = random.Random(5)
    for _ in range(40):
        m = _random_matrix(rng, 5, 7)
        kers = m.kernel_masks()
        assert len(kers) == 7 - m.rank()
        for v in kers:
            assert m.apply(v) == 0
    assert F2Matrix.identity(4).kernel_masks() == []


def test_solve_mask_roundtrip():
    rng = random.Random(23)
    hits = 0
    for _ in range(60):
        m = _random_matrix(rng, 5, 5)
        target = rng.getrandbits(5)
        x = m.solve_mask(target)
        if x is not None:
            hits += 1
            assert m.apply(x) == target
        else:  # None only when no vector at all is a preimage
            assert all(m.apply(y) != target for y in range(1 << 5))
    assert hits > 10  # random 5x5 over GF(2) is invertible ~30% of the time


def test_solve_mask_unsolvable():
    m = F2Matrix.from_rows([[1, 0], [1, 0]])
    assert m.solve_mask(0b01) is None  # (1, 0) not in the image
    assert m.solve_mask(0b11) is not None


def test_hstack_vstack_block():
    a = F2Matrix.from_rows([[1, 0], [0, 1]])
    b = F2Matrix.from_rows([[1], [1]])
    h = F2Matrix.hstack([a, b])
    assert h.to_lists() == [[1, 0, 1], [0, 1, 1]]
    v = F2Matrix.vstack([a, a])
    assert v.shape == (4, 2)
    assert v.rank() == 2
    blk = F2Matrix.block([[a, b], [None, F2Matrix.from_rows([[1]])]], (2, 1), (2, 1))
    assert blk.shape == (3, 3)
    assert blk.entry(2, 2) == 1
    assert blk.entry(2, 0) == 0
    with pytest.raises(ContractError):
        F2Matrix.block([[a]], (3,), (2,))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**30))
@settings(max_examples=80, deadline=None)
def test_rank_bounded_and_transpose_invariant(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols)
    r = m.rank()
    assert 0 <= r <= min(rows, cols)
    assert m.transpose().rank() == r


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = _random_matrix(rng, rows, cols)
    assert m.rank() + len(m.kernel_masks()) == cols


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_rref_reproduces_row_space(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, 5, 5)
    pivots, reduced = m.rref()
    assert len(pivots) == len(reduced) == m.rank()
    span = F2Matrix(len(reduced), 5, reduced)
    assert span.rank() == m.rank()
    for p, row in zip(pivots, reduced):
        assert (row >> p) & 1  # pivot entry set
        assert sum((r >> p) & 1 for r in reduced) == 1  # and cleared elsewhere


def _random_invertible(rng: random.Random, n: int) -> F2Matrix:
    """P*L*U with unit-triangular L, U: every invertible matrix has this form."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = F2Matrix(n, n, [1 << j for j in perm])
    lower = F2Matrix(n, n, [rng.getrandbits(i) | 1 << i if i else 1 for i in range(n)])
    upper = F2Matrix(n, n, [(rng.getrandbits(n - i - 1) << (i + 1)) | 1 << i for i in range(n)])
    return p.mul(lower).mul(upper)


@given(st.integers(0, 12), st.integers(0, 2**30))
@settings(max_examples=80, deadline=None)
def test_inverse_roundtrip(n, seed):
    m = _random_invertible(random.Random(seed), n)
    inv = m.inverse()
    assert m.mul(inv) == F2Matrix.identity(n)
    assert inv.mul(m) == F2Matrix.identity(n)


def test_inverse_rejects_singular_and_non_square():
    with pytest.raises(ContractError, match="singular"):
        F2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).inverse()
    with pytest.raises(ContractError, match="singular"):
        F2Matrix.zero(2, 2).inverse()
    with pytest.raises(ContractError, match="non-square"):
        F2Matrix.zero(2, 3).inverse()
