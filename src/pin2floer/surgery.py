"""Surgery formulas for alternating knots and the model-space catalog.

Everything here is driven by the Alexander polynomial (written
a_0 + sum_j a_j (t^j + t^-j)) and the signature of an alternating knot:

* torsion coefficients t_s, the per-spin-c bounds delta(sigma, s), and the
  box multiplicities b_s, with the alternating positivity check;
* the S^1-side modules of 0- and +1-surgery, spin-c level by level;
* the Pin(2)-side answer of +1-surgery through the certified closed form;
* the two-sided-tower model of 0-surgery and the -1-surgery answer, each
  audited as an exact triangle of two-sided tower maps in every degree
  (the maps commute with the invertible V of degree -4, so four degrees
  decide exactness, and tower bases are seen mod 4 only);
* the closed-form correction-term tables, cross-checked against the
  pipeline on every call;
* the blow-up coefficient, the Seifert-space obstruction, and the spin
  cobordism inequalities;
* a small catalog of known model spaces with a self-consistency check.

The closed form and both triangles are checked once per distinct input
per process: they are cached on their exact, hashable arguments, and a
failing input is not cached and raises on every call.

Signatures are normalized to sigma <= 0 by mirroring; a mirrored knot's
correction terms are computed for the opposite surgery slope and reversed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .complexes import GradedMap, check_exact_triangle
from .gf2 import F2Matrix
from .gysin import (
    FamilyAnswer,
    GysinCertificate,
    GysinError,
    closed_form_corrected,
    oracle_solve,
)
from .modules import (
    Box,
    CorrectionTerms,
    RingElement,
    StandardModule,
    StructuredModule,
    Tower,
    T_plus,
    F_box,
    correction_terms_of,
    reverse_orientation,
    standard_from_starts,
)

__all__ = [
    "BarTowers",
    "CatalogEntry",
    "KnotData",
    "KnotError",
    "ObstructionResult",
    "PipelineMismatch",
    "SpinCLevel",
    "SpinCobordismResult",
    "ZeroSurgeryModules",
    "b_coefficient",
    "blowup_coefficient",
    "catalog",
    "catalog_check",
    "catalog_names",
    "correction_terms",
    "delta_bound",
    "hm_plus_one_surgery",
    "hm_zero_surgery",
    "hs_plus_one_surgery",
    "minus_one_from_signature",
    "minus_one_towers",
    "plus_one_from_signature",
    "seifert_obstruction",
    "spin_cobordism_check",
    "table_correction_terms",
    "torsion_coefficient",
    "validate_knot",
    "zero_surgery_bar_towers",
]


class KnotError(ValueError):
    pass


class PipelineMismatch(AssertionError):
    """The surgery pipeline and the printed table disagree; both are shown."""


# ---------------------------------------------------------------------------
# Knot data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnotData:
    """An alternating knot given by signature and Alexander coefficients.

    ``alexander`` lists (a_0, a_1, ..., a_g) from the symmetric expansion
    a_0 + sum_{j>=1} a_j (t^j + t^{-j}). The stored signature is always
    <= 0; a positive input signature is recorded via ``mirrored`` and the
    computations run on the mirror.
    """

    name: str
    signature: int
    alexander: tuple[int, ...]
    arf: int
    mirrored: bool = False

    @property
    def genus_bound(self) -> int:
        return len(self.alexander) - 1

    @functools.cached_property
    def _torsion(self) -> tuple[int, ...]:
        """(t_0, ..., t_g) in one suffix-sum pass, from t_g = 0 downward:
        t_s = t_{s+1} + sum_{m > s} a_m."""
        a = self.alexander
        out = [0] * len(a)
        tail = 0
        for s in range(len(a) - 2, -1, -1):
            tail += a[s + 1]
            out[s] = out[s + 1] + tail
        return tuple(out)

    @functools.cached_property
    def _levels(self) -> tuple[tuple[int, int], ...]:
        """((b_s, delta(sigma, s)) for s = 0..smax) in one pass; past smax =
        max(g, ceil(|sigma|/2)) both vanish."""
        smax = max(self.genus_bound, (abs(self.signature) + 1) // 2)
        return tuple(
            (b_coefficient(self, s), delta_bound(self.signature, s)) for s in range(smax + 1)
        )


def _alexander_at_minus_one(coeffs: Sequence[int]) -> int:
    return coeffs[0] + 2 * sum(
        (-1 if j % 2 else 1) * a for j, a in enumerate(coeffs) if j
    )


def validate_knot(
    name: str,
    signature: int,
    alexander: Sequence[int],
    arf: Optional[int] = None,
) -> KnotData:
    """Check a knot's data for consistency and normalize the signature.

    Enforces: even signature; Alexander normalization Delta(1) = 1; the
    determinant/Arf relation (|Delta(-1)| is 1 or 7 mod 8 for Arf 0, 3 or 5
    for Arf 1), against the supplied arf when given; and nonnegativity of
    every box multiplicity b_s, without which the alternating surgery
    formulas do not apply.
    """
    coeffs = tuple(int(a) for a in alexander)
    if not coeffs:
        raise KnotError("need at least the constant Alexander coefficient")
    if signature % 2:
        raise KnotError(f"knot signature must be even, got {signature}")
    at_one = coeffs[0] + 2 * sum(coeffs[1:])
    if at_one != 1:
        raise KnotError(
            f"Alexander polynomial is not normalized: value at 1 is {at_one}, not 1"
        )
    det = abs(_alexander_at_minus_one(coeffs))
    r = det % 8
    if r in (1, 7):
        computed_arf = 0
    elif r in (3, 5):
        computed_arf = 1
    else:  # pragma: no cover - determinant of a knot is odd
        raise KnotError(f"determinant {det} is even; not a knot polynomial")
    if arf is not None and int(arf) != computed_arf:
        raise KnotError(
            f"stated Arf invariant {arf} contradicts the determinant "
            f"({det} = {r} mod 8 forces Arf {computed_arf})"
        )
    mirrored = signature > 0
    kd = KnotData(
        name=name,
        signature=-abs(signature),
        alexander=coeffs,
        arf=computed_arf,
        mirrored=mirrored,
    )
    # torsion parity is determined by Arf; a mismatch means the inputs are
    # inconsistent in a way the checks above cannot see
    if torsion_coefficient(kd, 0) % 2 != computed_arf:
        raise KnotError(
            "torsion coefficient t_0 has the wrong parity for this Arf invariant"
        )
    for s, (bs, _ds) in enumerate(kd._levels):
        if bs < 0:
            raise KnotError(
                f"box multiplicity b_{s} = {bs} is negative; the data is not "
                "consistent with the alternating hypothesis"
            )
    return kd


def torsion_coefficient(kd: KnotData, s: int) -> int:
    """t_s = sum_{j>=1} j * a_{|s|+j}, read from the knot's one-pass table."""
    s = abs(s)
    return kd._torsion[s] if s <= kd.genus_bound else 0


def delta_bound(sigma: int, s: int) -> int:
    """delta(sigma, s) = max(0, ceil((|sigma| - 2|s|)/4))."""
    if sigma % 2:
        raise KnotError(f"signature must be even, got {sigma}")
    num = abs(sigma) - 2 * abs(s)
    return max(0, -((-num) // 4))


def b_coefficient(kd: KnotData, s: int) -> int:
    """Box multiplicity b_s = (-1)^{s + sigma/2} (delta(sigma, s) - t_s)."""
    sign = -1 if (s + kd.signature // 2) % 2 else 1
    return sign * (delta_bound(kd.signature, s) - torsion_coefficient(kd, s))


# ---------------------------------------------------------------------------
# S^1-side surgeries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinCLevel:
    """One spin-c summand; gradings of s > 0 levels are pinned mod 2 only."""

    s: int
    module: StructuredModule
    parity_only: bool


@dataclass(frozen=True)
class ZeroSurgeryModules:
    levels: tuple[SpinCLevel, ...]


def _finite_level_module(b: int, delta: int, rep_deg: int) -> StructuredModule:
    """F^b at the representative degree plus a length-delta finite ladder.

    The ladder sits in the opposite parity, descending from the degree just
    below the representative: one box each at rep-1, rep-3, ...
    """
    boxes = [Box(rep_deg, b)] if b else []
    boxes += [Box(rep_deg - 1 - 2 * i, 1) for i in range(delta)]
    return StructuredModule(boxes=tuple(boxes))


def _plus_one_core(kd: KnotData) -> StructuredModule:
    """The distinguished spin-c summand of +1-surgery: T^+_{-2 delta_0} + F^{b_0}.

    This is the non-qsplit part of ``hm_plus_one_surgery`` and the whole
    input of the Pin(2)-side answer; the b_0 boxes sit one below half the
    signature.
    """
    b0, delta0 = kd._levels[0]
    return StructuredModule(
        towers=T_plus(-2 * delta0).towers,
        boxes=(Box(kd.signature // 2 - 1, b0),) if b0 else (),
    )


def hm_zero_surgery(kd: KnotData) -> ZeroSurgeryModules:
    """S^1-side modules of 0-surgery, one level per spin-c structure s >= 0.

    The torsion level s = 0 is two step-2 towers T^+_{-1} and
    T^+_{-2 delta(sigma,0)} plus b_0 boxes one below half the signature;
    levels s > 0 are finite with parity-only gradings.
    """
    half = kd.signature // 2
    levels = [
        SpinCLevel(s=0, module=T_plus(-1) + _plus_one_core(kd), parity_only=False)
    ]
    for s, (bs, ds) in enumerate(kd._levels[1:], 1):
        if not bs and not ds:
            continue
        levels.append(
            SpinCLevel(
                s=s,
                module=_finite_level_module(bs, ds, s + half),
                parity_only=True,
            )
        )
    return ZeroSurgeryModules(levels=tuple(levels))


@functools.cache
def _qsplit_box(deg: int, dim: int) -> Box:
    """One shared qsplit box per (deg, dim); a batch of knots repeats a few
    thousand of them across ~10^5 places, and ``Box`` is frozen."""
    return Box(deg, dim, qsplit=True)


def hm_plus_one_surgery(kd: KnotData) -> StructuredModule:
    """S^1-side module of +1-surgery, all spin-c structures together.

    The distinguished structure gives T^+_{-2 delta_0} with b_0 boxes; the
    remaining structures come in conjugate pairs contributing two copies of
    each finite level, recorded as qsplit boxes (they carry no Q-rank into
    the Pin(2) bookkeeping). Boxes are listed level by level, b_s before
    the ladder, and the module is built once from that list.
    """
    half = kd.signature // 2
    core = _plus_one_core(kd)
    boxes = list(core.boxes)
    for s, (bs, ds) in enumerate(kd._levels[1:], 1):
        if bs:
            boxes.append(_qsplit_box(s + half, 2 * bs))
        boxes += [_qsplit_box(s + half - 1 - 2 * i, 2) for i in range(ds)]
    return StructuredModule(towers=core.towers, boxes=tuple(boxes))


@functools.cache
def _resolve_single_family(core: StructuredModule) -> FamilyAnswer:
    """Closed-form answer for one tower plus boxes in a single degree.

    Cached on the frozen module, so each distinct input is certified by
    ``closed_form_corrected`` once per process; many knots share one core.
    """
    if len(core.towers) != 1 or core.towers[0].step != 2:
        raise GysinError("expected a single step-2 tower plus boxes")
    base = core.towers[0].base
    degs = {b.deg for b in core.boxes if not b.qsplit}
    n = sum(b.dim for b in core.boxes if not b.qsplit)
    if len(degs) > 1:
        raise GysinError("no single-degree closed form for multi-degree boxes")
    box_deg = degs.pop() if degs else base - 1
    if (box_deg - (base - 1)) % 4 == 0:
        family = base - 1
    elif (box_deg - base) % 4 == 0:
        family = base
    else:
        raise GysinError(
            f"boxes in degree {box_deg} do not sit on either family class of "
            f"a base-{base} tower"
        )
    return closed_form_corrected(family, n, box_deg=box_deg)


def hs_plus_one_surgery(kd: KnotData) -> FamilyAnswer:
    """Pin(2)-side answer of +1-surgery.

    Resolved through the certified closed form, which always applies here:
    the non-qsplit part of the +1-surgery module is one tower plus boxes in
    a single degree.
    """
    return _resolve_single_family(_plus_one_core(kd))


# ---------------------------------------------------------------------------
# Correction-term tables
# ---------------------------------------------------------------------------


def table_correction_terms(sigma: int, arf: int, slope: int) -> CorrectionTerms:
    """The closed-form (sigma, Arf) -> correction-term table for slope +-1.

    Covers nonpositive even signatures; mirrors are handled by the caller
    (compute for the mirror at the opposite slope and reverse orientation).
    """
    if sigma % 2 or sigma > 0:
        raise KnotError(f"table wants a nonpositive even signature, got {sigma}")
    if arf not in (0, 1):
        raise KnotError(f"Arf invariant must be 0 or 1, got {arf}")
    if slope not in (1, -1):
        raise KnotError(f"table covers slopes +1 and -1, got {slope}")
    k = abs(sigma) // 8
    r = abs(sigma) % 8
    if slope == -1:
        if arf == 0:
            return CorrectionTerms(0, 0, 0)
        if r == 0:
            return CorrectionTerms(1, -2 * k + 1, -2 * k - 1)
        return CorrectionTerms(1, -2 * k - 1, -2 * k - 1)
    if arf == 0:
        rows = {
            0: (-2 * k, -2 * k, -2 * k),
            2: (-2 * k, -2 * k, -2 * k - 2),
            4: (-2 * k, -2 * k - 2, -2 * k - 2),
            6: (-2 * k - 2, -2 * k - 2, -2 * k - 2),
        }
    else:
        rows = {
            0: (-2 * k + 1, -2 * k - 1, -2 * k - 1),
            2: (-2 * k - 1, -2 * k - 1, -2 * k - 1),
            4: (-2 * k - 1, -2 * k - 1, -2 * k - 1),
            6: (-2 * k - 1, -2 * k - 1, -2 * k - 3),
        }
    return CorrectionTerms(*rows[r])


# ---------------------------------------------------------------------------
# Two-sided tower models and the -1-surgery answer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarTowers:
    """Two-sided step-4 towers with Q-links, from the 0-surgery model.

    Arf 1 gives the quadruple (1, 0, b, a) with links (0->1, 2->3); Arf 0
    gives two chained triples (1, 0, -1) and (c, b, a).
    """

    bases: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    arf: int


def _bar_slots(bases: Sequence[int], z: int) -> dict[int, int]:
    """Tower index -> coordinate at degree z, for the towers supported there."""
    out = {}
    for idx, b in enumerate(bases):
        if (z - b) % 4 == 0:
            out[idx] = len(out)
    return out


def _bar_dims(bases: Sequence[int], degrees: Iterable[int]) -> dict[int, int]:
    counts = [len(_bar_slots(bases, r)) for r in range(4)]
    return {z: counts[z % 4] for z in degrees if counts[z % 4]}


def _bar_map(
    src_bases: Sequence[int],
    tgt_bases: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    degree: int,
) -> GradedMap:
    """Partial tower-matching map between two-sided step-4 tower sums.

    ``pairs`` lists (source tower index, target tower index); the map sends
    the source tower's degree-z slot to the target tower's degree
    z+degree slot whenever both exist. Coordinates at each degree are
    ordered by tower index, so the block at z depends only on z mod 4: the
    four residue blocks are built once. They are placed at the source
    degrees an audit of the vertex degrees 0..3 reads: 0..3, where the map
    leaves its source, and -degree..3-degree, where it enters its target.
    """
    residue_blocks = {}
    for r in range(4):
        sc = _bar_slots(src_bases, r)
        tc = _bar_slots(tgt_bases, r + degree)
        if not sc or not tc:
            continue
        rows = [0] * len(tc)
        for i_src, i_tgt in pairs:
            if i_src in sc and i_tgt in tc:
                rows[tc[i_tgt]] |= 1 << sc[i_src]
        residue_blocks[r] = F2Matrix(len(tc), len(sc), rows)
    zs = {*range(4), *range(-degree, 4 - degree)}
    blocks = {z: residue_blocks[z % 4] for z in zs if z % 4 in residue_blocks}
    return GradedMap(
        _bar_dims(src_bases, zs),
        _bar_dims(tgt_bases, {z + degree for z in zs}),
        degree,
        blocks,
    )


def _verify_bar_triangle(
    bases: Sequence[Sequence[int]],
    pairs: Sequence[Sequence[tuple[int, int]]],
    degrees: Sequence[int],
    label: str,
) -> None:
    """Check that X_0 -> X_1 -> X_2 -> X_0 is exact in every degree.

    ``bases[i]`` lists the two-sided step-4 towers of X_i; the map out of
    X_i is ``_bar_map`` with ``pairs[i]`` and ``degrees[i]``. Each X_i is a
    free F[V, V^-1]-module, V of degree -4 and invertible, and each
    tower-matching map commutes with V. So the dimensions, blocks and
    composites the audit compares at degree z + 4 are those at z, and the
    triangle is exact at z + 4 exactly when it is exact at z. Exactness
    over all of Z is therefore decided by the four vertex degrees 0..3,
    and those four are audited.
    """
    maps = [
        _bar_map(bases[i], bases[(i + 1) % 3], pairs[i], degrees[i]) for i in range(3)
    ]
    report = check_exact_triangle(*maps, degrees=range(4))
    if not report.ok:
        raise AssertionError(
            f"{label} is not exact: " + "; ".join(
                f"vertex {v} degree {d}: {msg}" for v, d, msg in report.failures[:4]
            )
        )


_S_BAR = (2, 1, 0)  # the standard two-sided model with its Q-chain


@functools.cache
def zero_surgery_bar_towers(hs_plus: StandardModule, arf: int) -> BarTowers:
    """Two-sided tower model of 0-surgery from the +1-surgery answer.

    An exact triangle of two-sided tower sums links the standard model,
    this output, and the towers of the +1-surgery answer; it is checked in
    every degree before the result is returned. A two-sided step-4 tower
    fills its base's class mod 4, so the audit sees the starts mod 4 only.
    Results are cached on the exact arguments, so the triangle is checked
    once per distinct input per process; an input that fails raises on
    every call.
    """
    if arf not in (0, 1):
        raise KnotError(f"Arf invariant must be 0 or 1, got {arf}")
    a, b, c = hs_plus.tower_starts()
    if arf == 1:
        bases: tuple[int, ...] = (1, 0, b, a)
        links = ((0, 1), (2, 3))
        pairs = (((0, 0), (1, 1)), ((2, 1), (3, 2)), ((0, 2),))
    else:
        if a % 4 or (b - 1) % 4 or (c - 2) % 4:
            raise KnotError(
                "Arf 0 requires the +1-surgery towers on the standard classes"
            )
        bases = (1, 0, -1, c, b, a)
        links = ((0, 1), (1, 2), (3, 4), (4, 5))
        pairs = (((0, 0), (1, 1), (2, 2)), ((3, 0), (4, 1), (5, 2)), ())
    # f_inf: S_BAR -> bases, f_zero: bases -> (c, b, a), f_one: (c, b, a) -> S_BAR
    _verify_bar_triangle(
        (_S_BAR, bases, (c, b, a)), pairs, (-1, 0, -c), "0-surgery two-sided triangle"
    )
    return BarTowers(bases=bases, links=links, arf=int(arf))


@functools.cache
def minus_one_towers(quad: BarTowers) -> StandardModule:
    """The -1-surgery answer, a stated formula on the 0-surgery model.

    Arf 1: tower starts (2, q4+1, q3+1) where (q3, q4) are the last two
    bases of the quadruple; Arf 0 always returns the trivial pattern. A
    triangle through the standard model is checked in every degree before
    returning, once per distinct input per process like
    ``zero_surgery_bar_towers``. It sees the starts mod 4 only, so answers
    shifted by 4 pass too; ``correction_terms`` checks the absolute answer
    against ``table_correction_terms``.
    """
    if quad.arf == 1:
        q3, q4 = quad.bases[2], quad.bases[3]
        out = standard_from_starts(2, q4 + 1, q3 + 1)
        pairs = (((0, 1), (1, 2)), ((0, 0),), ((1, 3), (2, 2)))
    else:
        out = StandardModule(0, 0, 0)
        pairs = (((3, 0), (4, 1), (5, 2)), (), ((0, 2), (1, 1), (2, 0)))
    # f_zero: quad -> S_BAR, f_inf: S_BAR -> abc, f_minus: abc -> quad
    abc = out.tower_starts()
    _verify_bar_triangle(
        (quad.bases, _S_BAR, abc), pairs, (0, 0, -1), "-1-surgery two-sided triangle"
    )
    return out


# ---------------------------------------------------------------------------
# Correction terms, end to end
# ---------------------------------------------------------------------------


def correction_terms(kd: KnotData, slope: int) -> CorrectionTerms:
    """Correction terms of +-1-surgery, checked against the table.

    The pipeline (closed form for +1; two-sided tower model for -1) and the
    table must agree, or PipelineMismatch shows both. For mirrored knots
    the computation runs at the opposite slope and the result is
    orientation-reversed.
    """
    if slope not in (1, -1):
        raise KnotError(f"surgery slope must be +1 or -1, got {slope}")
    if kd.mirrored:
        unmirrored = KnotData(kd.name, kd.signature, kd.alexander, kd.arf)
        return reverse_orientation(correction_terms(unmirrored, -slope))
    table = table_correction_terms(kd.signature, kd.arf, slope)
    std = hs_plus_one_surgery(kd).standard
    if slope == -1:
        std = minus_one_towers(zero_surgery_bar_towers(std, kd.arf))
    ct = correction_terms_of(std)
    if ct != table:
        raise PipelineMismatch(
            f"pipeline gives {ct} but the table row for signature "
            f"{kd.signature}, Arf {kd.arf}, slope {slope:+d} says {table}"
        )
    return ct


def plus_one_from_signature(sigma: int, arf: int) -> FamilyAnswer:
    """+1-surgery answer from (signature, Arf) alone.

    The tower pattern of the answer is blind to the actual value of b_0;
    only its parity enters, and that parity equals delta_0 + Arf mod 2.
    Running the derivation on the minimal representative (zero or one box)
    therefore reproduces the whole correction-term table row by row.
    """
    if arf not in (0, 1):
        raise KnotError(f"Arf invariant must be 0 or 1, got {arf}")
    delta0 = delta_bound(sigma, 0)
    n = (delta0 + arf) % 2
    core = T_plus(-2 * delta0) + F_box(n, sigma // 2 - 1)
    return _resolve_single_family(core)


def minus_one_from_signature(sigma: int, arf: int) -> StandardModule:
    """-1-surgery answer from (signature, Arf), through the 0-surgery model."""
    plus = plus_one_from_signature(sigma, arf)
    quad = zero_surgery_bar_towers(plus.standard, arf)
    return minus_one_towers(quad)


# ---------------------------------------------------------------------------
# Blow-up coefficient, obstructions, cobordism inequalities
# ---------------------------------------------------------------------------


def blowup_coefficient(k: int) -> RingElement:
    """Coefficient of the k-th generator under the blow-up map.

    Zero when k = 0 or 1 mod 4; otherwise Q^2 V^{k(k-1)/4}.
    """
    if k % 4 in (0, 1):
        return RingElement.zero()
    return RingElement.monomial(2, (k * (k - 1)) // 4)


@dataclass(frozen=True)
class ObstructionResult:
    obstructed: bool
    detail: str


def seifert_obstruction(ct: CorrectionTerms) -> ObstructionResult:
    """Whether the correction terms rule out positively-fibered Seifert forms.

    Fires exactly when all three values are distinct as a chain: alpha
    differs from beta AND beta differs from gamma.
    """
    if ct.alpha != ct.beta and ct.beta != ct.gamma:
        return ObstructionResult(
            obstructed=True,
            detail=(
                f"alpha={ct.alpha} > beta={ct.beta} > gamma={ct.gamma}: no "
                "Seifert-fibered model realizes three distinct values"
            ),
        )
    return ObstructionResult(obstructed=False, detail="")


@dataclass(frozen=True)
class SpinCobordismResult:
    ok: bool
    failures: tuple[str, ...]


def spin_cobordism_check(
    ct_from: CorrectionTerms,
    ct_to: CorrectionTerms,
    b2plus: int,
    b2minus: int,
) -> SpinCobordismResult:
    """Monotonicity inequalities along a spin cobordism.

    For b2+ = 1: alpha_1 >= beta_0 + (b2- - 1)/8 and
    beta_1 >= gamma_0 + (b2- - 1)/8. For b2+ = 2:
    alpha_1 >= gamma_0 + (b2- - 2)/8. Exact rational arithmetic throughout.
    """
    if b2plus not in (1, 2):
        raise ValueError(f"only b2+ = 1 or 2 are covered, got {b2plus}")
    if b2minus < 0:
        raise ValueError(f"b2- must be nonnegative, got {b2minus}")
    failures = []
    if b2plus == 1:
        gap = Fraction(b2minus - 1, 8)
        if ct_to.alpha < ct_from.beta + gap:
            failures.append(
                f"alpha_1 = {ct_to.alpha} < beta_0 + (b2- - 1)/8 = {ct_from.beta + gap}"
            )
        if ct_to.beta < ct_from.gamma + gap:
            failures.append(
                f"beta_1 = {ct_to.beta} < gamma_0 + (b2- - 1)/8 = {ct_from.gamma + gap}"
            )
    else:
        gap = Fraction(b2minus - 2, 8)
        if ct_to.alpha < ct_from.gamma + gap:
            failures.append(
                f"alpha_1 = {ct_to.alpha} < gamma_0 + (b2- - 2)/8 = {ct_from.gamma + gap}"
            )
    return SpinCobordismResult(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Catalog of model spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    hs: StructuredModule
    hm: Optional[StructuredModule]
    ct: Optional[CorrectionTerms]
    standard: Optional[StandardModule] = None
    hm_reversed: bool = False
    boxes_undefined: bool = False


def _plus_chain(*bases: int) -> StructuredModule:
    """Step-4 plus towers Q-chained in the given (descending) order."""
    towers = tuple(Tower(b, 4) for b in bases)
    links = tuple((i, i + 1) for i in range(len(bases) - 1))
    return StructuredModule(towers=towers, links=links)


def _std_entry(
    name: str,
    std: StandardModule,
    hs_boxes: tuple[Box, ...],
    hm: Optional[StructuredModule],
    hm_reversed: bool = False,
    boxes_undefined: bool = False,
) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        hs=std.to_structured(hs_boxes),
        hm=hm,
        ct=correction_terms_of(std),
        standard=std,
        hm_reversed=hm_reversed,
        boxes_undefined=boxes_undefined,
    )


def _brieskorn_entry(p: int) -> CatalogEntry:
    name = f"Sigma(2,3,{p})"
    r = p % 12
    if r == 1:
        k = p // 12
        std = StandardModule(0, 0, 0)
        hs_boxes = (Box(-1, k),) if k else ()
        hm = T_plus(0) + F_box(2 * k, -1)
        return _std_entry(name, std, hs_boxes, hm)
    if r == 5:
        k = p // 12
        std = StandardModule(1, 1, 1)
        hs_boxes = (Box(1, k),) if k else ()
        hm = T_plus(-2) + F_box(2 * k, -2)
        return _std_entry(name, std, hs_boxes, hm, hm_reversed=True)
    if r == 11:
        k = (p + 1) // 12
        std = StandardModule(2, 0, 0)
        hs_boxes = (Box(1, k - 1),) if k > 1 else ()
        hm = T_plus(-2) + F_box(2 * k - 1, -2)
        return _std_entry(name, std, hs_boxes, hm, hm_reversed=True)
    if r == 7:
        k = (p + 5) // 12
        std = StandardModule(1, -1, -1)
        hs_boxes = (Box(-1, k - 1),) if k > 1 else ()
        hm = T_plus(0) + F_box(2 * k - 1, -1)
        return _std_entry(name, std, hs_boxes, hm)
    raise ValueError(f"no catalog entry for {name}")


def _e_entry(n: int) -> CatalogEntry:
    name = f"E_{n}"
    if n == 0:
        hs = StructuredModule(
            towers=tuple(Tower(b, 4) for b in (1, 0, -1, 2)),
            links=((0, 1), (2, 3)),
        )
        hm = T_plus(-1) + T_plus(0) + F_box(1, -1)
        return CatalogEntry(name=name, hs=hs, hm=hm, ct=None)
    mag = abs(n)
    k, odd = divmod(mag, 2)
    std = StandardModule(1, -1, -1) if odd else StandardModule(0, 0, 0)
    if n > 0:
        hs_boxes = (Box(-1, k),) if k else ()
        hm = T_plus(0) + F_box(mag, -1)
        return _std_entry(name, std, hs_boxes, hm)
    rev = reverse_orientation(correction_terms_of(std))
    rstd = StandardModule(rev.alpha, rev.beta, rev.gamma)
    return CatalogEntry(
        name=name,
        hs=rstd.to_structured(),
        hm=None,
        ct=rev,
        standard=rstd,
        boxes_undefined=True,
    )


def catalog_names() -> tuple[str, ...]:
    names = ["S3", "S2xS1", "Poincare"]
    names += [f"Sigma(2,3,{12 * k + 1})" for k in range(0, 7)]
    names += [f"Sigma(2,3,{12 * k + 5})" for k in range(0, 7)]
    names += [f"Sigma(2,3,{12 * k - 1})" for k in range(1, 7)]
    names += [f"Sigma(2,3,{12 * k - 5})" for k in range(1, 7)]
    names += [f"E_{n}" for n in range(-12, 13)]
    return tuple(names)


def catalog(name: str) -> CatalogEntry:
    """Look up a model space by name; see catalog_names() for the list."""
    if name == "S3":
        return _std_entry("S3", StandardModule(0, 0, 0), (), T_plus(0))
    if name == "S2xS1":
        hs = _plus_chain(2, 1, 0) + _plus_chain(1, 0, -1)
        hm = T_plus(0) + T_plus(-1)
        return CatalogEntry(name="S2xS1", hs=hs, hm=hm, ct=None)
    if name == "Poincare":
        return _std_entry("Poincare", StandardModule(-1, -1, -1), (), T_plus(-2))
    if name.startswith("Sigma(2,3,") and name.endswith(")"):
        try:
            p = int(name[len("Sigma(2,3,"):-1])
        except ValueError:
            raise ValueError(f"unknown catalog name {name!r}") from None
        if name in catalog_names():
            return _brieskorn_entry(p)
    if name.startswith("E_"):
        try:
            n = int(name[2:])
        except ValueError:
            raise ValueError(f"unknown catalog name {name!r}") from None
        if abs(n) <= 12:
            return _e_entry(n)
    raise ValueError(f"unknown catalog name {name!r}")


def catalog_check(entry: CatalogEntry) -> None:
    """Internal consistency of a catalog entry; raises on any failure.

    Entries carrying all three of hs, hm, and correction terms must agree
    with the Gysin machinery: reversed entries through the closed form and
    orientation reversal, direct entries through a unique search result
    matching the stored module on the nose.
    """
    if entry.hm is None or entry.ct is None:
        return
    if entry.hm_reversed:
        ans = _resolve_single_family(entry.hm)
        got = reverse_orientation(correction_terms_of(ans.standard))
        if got.as_tuple() != entry.ct.as_tuple():
            raise AssertionError(
                f"{entry.name}: reversed partner gives {got}, catalog says {entry.ct}"
            )
        return
    sol = oracle_solve(entry.hm)
    if not sol.unique:
        raise AssertionError(
            f"{entry.name}: expected a unique partner, found {len(sol.candidates)}"
        )
    cand = sol.candidates[0]
    got = correction_terms_of(cand.standard)
    if got.as_tuple() != entry.ct.as_tuple():
        raise AssertionError(
            f"{entry.name}: partner has correction terms {got}, catalog says {entry.ct}"
        )
    if not entry.boxes_undefined:
        want = tuple(sorted((b.deg, b.dim) for b in entry.hs.boxes))
        have = tuple(sorted((b.deg, b.dim) for b in cand.boxes))
        if want != have:
            raise AssertionError(
                f"{entry.name}: partner boxes {have} disagree with catalog {want}"
            )
