"""Dense linear algebra over GF(2) with bit-packed rows.

Matrices are immutable. Each row is stored as a Python int whose bit ``j``
is the entry in column ``j``, so elimination is word-wide XOR and every
routine is deterministic: pivots are always the first nonzero entry found
in row-major scan order. ``rref`` is the one elimination loop; rank,
kernel, solving and inverse all read its output.

Intended scale is small dense problems (well under 10^3 x 10^3). Nothing
here is sparse or clever, on purpose.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["ContractError", "F2Matrix"]


class ContractError(ValueError):
    """A broken contract, such as mismatched shapes or an entry other than 0 or 1."""


def _pack(row: Sequence[int], i: int) -> int:
    """Row ``i`` as a word; each entry must be the int 0 or 1."""
    bits = 0
    for j, v in enumerate(row):
        if v.__class__ is not int or v >> 1:
            raise ContractError(f"row {i}, column {j} is {v!r}, must be 0 or 1")
        bits |= v << j
    return bits


def _unpack(bits: int, n: int) -> tuple[int, ...]:
    return tuple([(bits >> j) & 1 for j in range(n)])


class F2Matrix:
    """An immutable rows x cols matrix over the field with two elements."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows: int, cols: int, bits: Iterable[int] = ()):
        # tuple(<generator>) grows and then shrinks the tuple in place, which
        # scatters small-object memory; building a list first avoids that
        bits = tuple([int(b) for b in bits])
        if rows < 0 or cols < 0:
            raise ContractError(f"negative shape ({rows}, {cols})")
        if len(bits) != rows:
            raise ContractError(
                f"matrix of shape ({rows}, {cols}) needs {rows} row words, got {len(bits)}"
            )
        mask = (1 << cols) - 1
        for b in bits:
            if b & ~mask:
                raise ContractError(f"row word {b:#x} has bits outside {cols} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("F2Matrix is immutable")

    # -- construction ----------------------------------------------------

    @classmethod
    def _wrap(cls, rows: int, cols: int, bits: Iterable[int]) -> "F2Matrix":
        """Adopt row words already known to fit the shape, skipping the checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "bits", tuple(bits))
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "F2Matrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ContractError(
                    f"ragged rows: expected width {cols}, got {len(r)}"
                )
        return cls(len(rows), cols, [_pack(r, i) for i, r in enumerate(rows)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, (1 << i for i in range(n)))

    # -- basics ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [list(_unpack(b, self.cols)) for b in self.bits]

    def is_zero(self) -> bool:
        return not any(self.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.shape == other.shape
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"F2Matrix({self.rows}x{self.cols})"

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.shape != other.shape:
            raise ContractError(f"cannot add shapes {self.shape} and {other.shape}")
        return F2Matrix._wrap(self.rows, self.cols, [a ^ b for a, b in zip(self.bits, other.bits)])

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, b in enumerate(self.bits):
            while b:
                low = b & -b
                out[low.bit_length() - 1] |= 1 << i
                b ^= low
        return F2Matrix._wrap(self.cols, self.rows, out)

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product self * other (self applied after other's rows)."""
        if self.cols != other.rows:
            raise ContractError(
                f"cannot compose shapes {self.shape} and {other.shape}: "
                f"{self.cols} != {other.rows}"
            )
        out = []
        for b in self.bits:
            acc = 0
            bb = b
            while bb:
                low = bb & -bb
                acc ^= other.bits[low.bit_length() - 1]
                bb ^= low
            out.append(acc)
        return F2Matrix._wrap(self.rows, other.cols, out)

    def apply(self, vec: int) -> int:
        """Apply to a column vector given as a bitmask over self.cols."""
        if vec >> self.cols:
            raise ContractError(f"vector has bits outside {self.cols} coordinates")
        out = 0
        for i, b in enumerate(self.bits):
            if (b & vec).bit_count() & 1:
                out |= 1 << i
        return out

    # -- elimination -----------------------------------------------------

    def rref(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Reduced row echelon form.

        Returns (pivot_columns, reduced_rows). Rows are fully reduced (each
        pivot is the only nonzero entry in its column) and zero rows are
        dropped. Pivot choice is the first nonzero row for each column, in
        column order.
        """
        work = list(self.bits)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            sel = None
            for i in range(r, self.rows):
                if (work[i] >> c) & 1:
                    sel = i
                    break
            if sel is None:
                continue
            work[r], work[sel] = work[sel], work[r]
            for i in range(self.rows):
                if i != r and ((work[i] >> c) & 1):
                    work[i] ^= work[r]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return tuple(pivots), tuple(work[:r])

    def rank(self) -> int:
        return len(self.rref()[0])

    def kernel_masks(self) -> list[int]:
        """Basis of the right kernel, each vector a bitmask over self.cols."""
        pivots, rows = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for f in free:
            v = 1 << f
            for p, row in zip(pivots, rows):
                if (row >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return basis

    def solve_mask(self, target: int) -> Optional[int]:
        """A particular solution x (bitmask) of self*x = target, or None.

        Reduces [self | target]; the target column takes a pivot exactly
        when the system is inconsistent. Free variables are set to zero.
        """
        if target >> self.rows:
            raise ContractError(f"target has bits outside {self.rows} coordinates")
        n = self.cols
        aug = F2Matrix._wrap(
            self.rows, n + 1, (b | ((target >> i) & 1) << n for i, b in enumerate(self.bits))
        )
        pivots, rows = aug.rref()
        if pivots and pivots[-1] == n:
            return None
        x = 0
        for c, row in zip(pivots, rows):
            if (row >> n) & 1:
                x |= 1 << c
        return x

    def inverse(self) -> "F2Matrix":
        """The inverse matrix, from the reduced form of [self | I]."""
        n = self.rows
        if self.cols != n:
            raise ContractError(f"cannot invert a non-square matrix of shape {self.shape}")
        aug = F2Matrix._wrap(n, 2 * n, (b | 1 << (n + i) for i, b in enumerate(self.bits)))
        pivots, rows = aug.rref()
        if pivots != tuple(range(n)):
            raise ContractError(f"matrix of shape {self.shape} is singular")
        return F2Matrix._wrap(n, n, (row >> n for row in rows))

    # -- block assembly ---------------------------------------------------

    @staticmethod
    def hstack(mats: Sequence["F2Matrix"]) -> "F2Matrix":
        mats = list(mats)
        if not mats:
            return F2Matrix.zero(0, 0)
        rows = mats[0].rows
        for m in mats:
            if m.rows != rows:
                raise ContractError(
                    f"hstack row mismatch: {m.shape} vs {mats[0].shape}"
                )
        out = []
        for i in range(rows):
            acc = 0
            off = 0
            for m in mats:
                acc |= m.bits[i] << off
                off += m.cols
            out.append(acc)
        return F2Matrix(rows, sum(m.cols for m in mats), out)

    @staticmethod
    def vstack(mats: Sequence["F2Matrix"]) -> "F2Matrix":
        mats = list(mats)
        if not mats:
            return F2Matrix.zero(0, 0)
        cols = mats[0].cols
        for m in mats:
            if m.cols != cols:
                raise ContractError(
                    f"vstack column mismatch: {m.shape} vs {mats[0].shape}"
                )
        bits: list[int] = []
        for m in mats:
            bits.extend(m.bits)
        return F2Matrix(len(bits), cols, bits)

    @staticmethod
    def block(
        grid: Sequence[Sequence[Optional["F2Matrix"]]],
        row_dims: Sequence[int],
        col_dims: Sequence[int],
    ) -> "F2Matrix":
        """Assemble a block matrix; None entries are zero blocks."""
        rows = []
        for bi, row in enumerate(grid):
            if len(row) != len(col_dims):
                raise ContractError(
                    f"block row {bi} has {len(row)} entries, expected {len(col_dims)}"
                )
            pieces = []
            for bj, m in enumerate(row):
                if m is None:
                    m = F2Matrix.zero(row_dims[bi], col_dims[bj])
                if m.shape != (row_dims[bi], col_dims[bj]):
                    raise ContractError(
                        f"block ({bi},{bj}) has shape {m.shape}, "
                        f"expected ({row_dims[bi]}, {col_dims[bj]})"
                    )
                pieces.append(m)
            rows.append(F2Matrix.hstack(pieces))
        return F2Matrix.vstack(rows)
