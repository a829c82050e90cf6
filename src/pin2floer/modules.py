"""Graded modules over R = F[[V]][Q]/(Q^3), F the two-element field.

The ring has deg V = -4 and deg Q = -1. Everything downstream (Gysin
solving, surgery formulas) works with the small zoo of R-modules that
actually occur:

* ``Tower(base, step)`` -- a rank-one-per-degree plus tower, bounded below
  at ``base`` and extending upward forever. (The two-sided towers of the
  surgery triangles are period-4 data and live in ``surgery``.)
* ``Box(deg, dim)`` -- a finite F^dim summand sitting in one degree, with
  no V-action and no outgoing Q guaranteed.
* ``StructuredModule`` -- a direct sum of towers and boxes plus a list of
  Q-links between towers (source index, target index).
* ``StandardModule`` -- the three-tower Q-chain with correction terms
  (alpha, beta, gamma); tower starts are (2*alpha, 2*beta+1, 2*gamma+2)
  and Q passes c-tower -> b-tower -> a-tower.

Module degrees are ints: tower bases and box degrees are checked once,
when a module is built, and anything that is not an integer raises
ValueError. Correction terms stay exact rationals (`fractions.Fraction`),
since they are rational for rational homology spheres, and ring elements
are exact in every power of V (there is no V-adic truncation). Per-degree
dimensions and Q-ranks come from one integer kernel, ``degree_kernel``;
``dims`` and ``q_rank_profile`` are its two halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

__all__ = [
    "Box",
    "CorrectionTerms",
    "RingElement",
    "StandardModule",
    "StructuredModule",
    "Tower",
    "WindowError",
    "as_grading",
    "classify_parity",
    "correction_terms_of",
    "degree_kernel",
    "dims",
    "direct_sum",
    "F_box",
    "format_grading",
    "module_from_json",
    "module_to_json",
    "q_rank_profile",
    "reverse_orientation",
    "ring_mul",
    "standard_from_starts",
    "T_plus",
]

GradingLike = Union[int, str, Fraction]


class WindowError(ValueError):
    """An operation needed a finite degree window and none was usable."""


def as_grading(x: GradingLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact grading."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a grading")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a grading")


def _as_degree(x: GradingLike, what: str) -> int:
    """Coerce an int, an integral Fraction or an integral string to an int
    module degree; a bool or any non-integer value raises ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"{what} {x} is not an integer")


def format_grading(x: Fraction) -> str:
    """Render a grading as 'n' for integers, 'p/q' otherwise."""
    x = as_grading(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingElement:
    """An element of F[[V]][Q]/(Q^3), exact in every V-exponent.

    Stored as the set of monomials (q, v) whose coefficient is one; the
    monomial Q^q V^v has degree -q - 4v. Storage grows with the number of
    terms, not with the size of the exponents, so no V-power is ever
    truncated.
    """

    terms: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        terms = frozenset((int(q), int(v)) for q, v in self.terms)
        for q, v in terms:
            if not (0 <= q <= 2):
                raise ValueError(f"Q-exponent {q} outside 0..2 (Q^3 = 0)")
            if v < 0:
                raise ValueError(f"negative V-exponent {v}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls) -> "RingElement":
        return cls()

    @classmethod
    def one(cls) -> "RingElement":
        return cls.monomial(0, 0)

    @classmethod
    def monomial(cls, q: int = 0, v: int = 0) -> "RingElement":
        return cls(frozenset({(q, v)}))

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> list[tuple[int, int]]:
        """All (q, v) with nonzero coefficient, sorted."""
        return sorted(self.terms)

    def degrees(self) -> list[int]:
        return [-q - 4 * v for q, v in self.monomials()]

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.terms ^ other.terms)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return ring_mul(self, other)

    def __str__(self) -> str:
        terms = []
        for q, v in self.monomials():
            parts = []
            if q:
                parts.append(f"Q^{q}")
            if v:
                parts.append(f"V^{v}")
            terms.append(" ".join(parts) if parts else "1")
        return " + ".join(terms) if terms else "0"


def ring_mul(x: RingElement, y: RingElement) -> RingElement:
    """Product in F[[V]][Q]/(Q^3).

    Commutative and degree-additive on surviving monomials; Q-exponents at
    or past 3 are dropped, V-exponents never are.
    """
    out: set[tuple[int, int]] = set()
    for q1, v1 in x.terms:
        for q2, v2 in y.terms:
            if q1 + q2 <= 2:
                out ^= {(q1 + q2, v1 + v2)}
    return RingElement(frozenset(out))


# ---------------------------------------------------------------------------
# Towers, boxes, structured modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tower:
    """A rank-one-per-degree plus tower with step 2 or 4, living in degrees
    base, base+step, base+2*step, ..."""

    base: int
    step: int = 4

    def __post_init__(self):
        object.__setattr__(self, "base", _as_degree(self.base, "tower base"))
        if self.step not in (2, 4):
            raise ValueError(f"tower step must be 2 or 4, got {self.step}")


@dataclass(frozen=True)
class Box:
    """F^dim concentrated in a single degree.

    ``qsplit`` marks summands coming from conjugate spin-c pairs in the
    surgery formulas; they are carried along but excluded from Gysin
    bookkeeping and correction terms.
    """

    deg: int
    dim: int
    qsplit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "deg", _as_degree(self.deg, "box degree"))
        if self.dim < 1:
            raise ValueError(f"box dimension must be positive, got {self.dim}")


@dataclass(frozen=True)
class StructuredModule:
    """Direct sum of towers and boxes with declared Q-links between towers.

    Links are (source tower index, target tower index); Q has degree -1, so
    the link contributes rank one out of degree z exactly when z is in the
    source tower and z-1 is in the target tower.
    """

    towers: tuple[Tower, ...] = ()
    boxes: tuple[Box, ...] = ()
    links: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "towers", tuple(self.towers))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "links", tuple((int(i), int(j)) for i, j in self.links))
        n = len(self.towers)
        for i, j in self.links:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"link ({i},{j}) references missing tower (have {n})")
            if i == j:
                raise ValueError(f"link ({i},{j}) may not point a tower at itself")

    # -- structure -------------------------------------------------------

    def support_min(self) -> int:
        """Lowest supported degree: tower bases and box degrees."""
        cands = [t.base for t in self.towers] + [b.deg for b in self.boxes]
        if not cands:
            raise ValueError("empty module has no support")
        return min(cands)

    def feature_max(self) -> int:
        """Highest 'feature' degree: tower bases and box degrees."""
        cands = [t.base for t in self.towers] + [b.deg for b in self.boxes]
        if not cands:
            raise ValueError("empty module has no features")
        return max(cands)

    def direct_sum(self, other: "StructuredModule") -> "StructuredModule":
        shift = len(self.towers)
        return StructuredModule(
            towers=self.towers + other.towers,
            boxes=self.boxes + other.boxes,
            links=self.links + tuple((i + shift, j + shift) for i, j in other.links),
        )

    __add__ = direct_sum


def degree_kernel(
    m: StructuredModule, window: tuple[GradingLike, GradingLike]
) -> tuple[dict[int, int], dict[int, int]]:
    """Dimensions and link Q-ranks of m inside the closed window [lo, hi].

    Returns (dims, qranks) keyed by degree. A tower's degrees in the window
    form one integer range. A link (src, tgt) is active at z when z is in
    the source range and z - 1 is in the target tower (Q has degree -1).
    The window ends must be integers; lo > hi raises WindowError.
    """
    lo, hi = _as_degree(window[0], "window end"), _as_degree(window[1], "window end")
    if lo > hi:
        raise WindowError(f"empty window [{lo}, {hi}]")
    dim: dict[int, int] = {}
    ladders = []  # per tower: degrees in the window
    for t in m.towers:
        base, step = t.base, t.step
        start = max(base, base - (base - lo) // step * step)  # first rung >= lo
        zs = range(start, hi + 1, step)
        ladders.append(zs)
        for z in zs:
            dim[z] = dim.get(z, 0) + 1
    for b in m.boxes:
        if lo <= b.deg <= hi:
            dim[b.deg] = dim.get(b.deg, 0) + b.dim
    qrank: dict[int, int] = {}
    for i, j in m.links:
        tgt = m.towers[j]
        for z in ladders[i]:
            if (z - 1 - tgt.base) % tgt.step == 0 and z - 1 >= tgt.base:
                qrank[z] = qrank.get(z, 0) + 1
    return dim, qrank


def dims(
    m: StructuredModule, window: tuple[GradingLike, GradingLike]
) -> dict[int, int]:
    """Per-degree dimensions of m inside the closed window [lo, hi].

    The first half of ``degree_kernel``; raises WindowError when lo > hi.
    """
    return degree_kernel(m, window)[0]


def q_rank_profile(
    m: StructuredModule, window: tuple[GradingLike, GradingLike]
) -> dict[int, int]:
    """Guaranteed Q-rank out of each degree in [lo, hi], from links.

    A link (src, tgt) is active at z when z lies in the source tower and
    z-1 lies in the target tower. Boxes contribute nothing here: their
    Q-behavior is not pinned by the structure data. The second half of
    ``degree_kernel``; raises WindowError when lo > hi.
    """
    return degree_kernel(m, window)[1]


# -- convenience constructors ------------------------------------------------


def T_plus(base: GradingLike) -> StructuredModule:
    """The step-2 plus tower T^+_base (the F[[U]]-side infinite tower)."""
    return StructuredModule(towers=(Tower(base, 2),))


def F_box(dim: int, deg: GradingLike, qsplit: bool = False) -> StructuredModule:
    """F^dim concentrated in one degree; dim 0 gives the zero module."""
    if dim == 0:
        return StructuredModule()
    return StructuredModule(boxes=(Box(deg, dim, qsplit),))


def direct_sum(*mods: StructuredModule) -> StructuredModule:
    out = StructuredModule()
    for m in mods:
        out = out + m
    return out


# ---------------------------------------------------------------------------
# Standard modules and correction terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrectionTerms:
    """The (alpha, beta, gamma) triple: ordered, equal fractional parts."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        a, b, g = (as_grading(v) for v in (self.alpha, self.beta, self.gamma))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)
        if not (a >= b >= g):
            raise ValueError(f"correction terms must be ordered: {a} >= {b} >= {g} fails")
        if not (_is_int(a - b) and _is_int(b - g)):
            raise ValueError("correction terms must share one fractional part")

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alpha, self.beta, self.gamma)

    def __str__(self) -> str:
        return (
            f"({format_grading(self.alpha)}, {format_grading(self.beta)}, "
            f"{format_grading(self.gamma)})"
        )


@dataclass(frozen=True)
class StandardModule:
    """Three step-4 plus towers in a Q-chain, named by correction terms.

    Tower starts are a = 2*alpha, b = 2*beta + 1, c = 2*gamma + 2 and Q maps
    the c-tower into the b-tower and the b-tower into the a-tower. For those
    links to be grading-compatible (Q has degree -1, towers have step 4) the
    starts must satisfy b = a+1 and c = b+1 mod 4, i.e. alpha - beta and
    beta - gamma are even. The triple is built and checked once, as a
    ``CorrectionTerms``; the three starts must be integers (ValueError names
    the first that is not); ``tower_starts`` returns them as ints.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        ct = CorrectionTerms(self.alpha, self.beta, self.gamma)
        a, b, g = ct.as_tuple()
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "_ct", ct)
        gaps = []
        for d, name in ((a - b, "alpha-beta"), (b - g, "beta-gamma")):
            if d.numerator % 2:
                raise ValueError(
                    f"{name} difference {d} must be an even integer for the "
                    "Q-links between towers to be grading-compatible"
                )
            gaps.append(2 * d.numerator)
        # with both differences even integers, the starts are integers
        # exactly when 2*alpha is; each lies 1 - 2*difference above the last
        start_a = _as_degree(2 * a, "tower start")
        start_b = start_a + 1 - gaps[0]
        object.__setattr__(self, "_starts", (start_a, start_b, start_b + 1 - gaps[1]))

    def tower_starts(self) -> tuple[int, int, int]:
        return self._starts

    def to_structured(self, boxes: Sequence[Box] = ()) -> StructuredModule:
        return _standard_structured(*self.tower_starts(), boxes)

    def dims(self, window) -> dict[int, int]:
        return dims(self.to_structured(), window)


def _standard_structured(a: int, b: int, c: int, boxes: Sequence[Box] = ()) -> StructuredModule:
    """Three step-4 towers at starts (a, b, c) with Q-links c -> b -> a, plus boxes.

    Unlike ``standard_from_starts`` it checks nothing and computes no
    correction terms, so the Gysin search can build its leaf candidates cheaply.
    """
    return StructuredModule(
        towers=(Tower(a, 4), Tower(b, 4), Tower(c, 4)),
        boxes=tuple(boxes),
        links=((2, 1), (1, 0)),
    )


def standard_from_starts(a: GradingLike, b: GradingLike, c: GradingLike) -> StandardModule:
    """Build a standard module from its tower starts (a, b, c)."""
    a, b, c = (_as_degree(x, "tower start") for x in (a, b, c))
    return StandardModule(Fraction(a, 2), Fraction(b - 1, 2), Fraction(c - 2, 2))


def correction_terms_of(s: StandardModule) -> CorrectionTerms:
    """The correction terms a standard module built and checked once."""
    return s._ct


def reverse_orientation(ct: CorrectionTerms) -> CorrectionTerms:
    """Correction terms of the orientation reversal: (a,b,g) -> (-g,-b,-a).

    An involution; it negates beta exactly.
    """
    return CorrectionTerms(-ct.gamma, -ct.beta, -ct.alpha)


def classify_parity(s_dims: Mapping[int, int], h: GradingLike) -> str:
    """Which mod-4 class near the top of the window the module misses.

    'even' when degrees congruent to 2h-1 (mod 4) are absent from the top
    period, 'odd' when 2h+1 is the absent class. Exactly one must hold for
    a stabilized standard-module window; anything else raises.
    """
    if not s_dims:
        raise ValueError("cannot classify an empty dimension profile")
    h = as_grading(h)
    top = max(s_dims)
    band = {d: n for d, n in s_dims.items() if top - 3 <= d <= top and n}

    def class_empty(anchor: Fraction) -> bool:
        return not any(_is_int((d - anchor) / 4) for d in band)

    even_ok = class_empty(2 * h - 1)
    odd_ok = class_empty(2 * h + 1)
    if even_ok == odd_ok:
        raise ValueError(
            "top window period does not show a stabilized standard module "
            f"(even-pattern={even_ok}, odd-pattern={odd_ok})"
        )
    return "even" if even_ok else "odd"


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def _grading_to_json(x: Fraction):
    return x.numerator if x.denominator == 1 else format_grading(x)


def _tower_to_json(t: Tower) -> dict:
    return {"base": t.base, "step": t.step, "kind": "plus"}


def _box_to_json(b: Box) -> dict:
    entry: dict = {"deg": b.deg, "dim": b.dim}
    if b.qsplit:
        entry["qsplit"] = True
    return entry


def module_to_json(m: StructuredModule) -> dict:
    return {
        "towers": [_tower_to_json(t) for t in m.towers],
        "boxes": [_box_to_json(b) for b in m.boxes],
        "links": [list(l) for l in m.links],
    }


def module_from_json(data: Mapping) -> StructuredModule:
    """Inverse of ``module_to_json``; every tower must be a plus tower and
    every degree an integer (ValueError names the tower or box index)."""
    towers = []
    for idx, t in enumerate(data.get("towers", ())):
        kind = t.get("kind", "plus")
        if kind != "plus":
            raise ValueError(f"tower {idx} has kind {kind!r}; only 'plus' towers exist")
        towers.append(Tower(_as_degree(t["base"], f"tower {idx} base"), int(t.get("step", 4))))
    boxes = tuple(
        Box(_as_degree(b["deg"], f"box {idx} degree"), int(b["dim"]), bool(b.get("qsplit", False)))
        for idx, b in enumerate(data.get("boxes", ()))
    )
    links = tuple((int(i), int(j)) for i, j in data.get("links", ()))
    return StructuredModule(towers=towers, boxes=boxes, links=links)
