"""Gysin-sequence bookkeeping: feasibility, search, and closed forms.

Given the S^1-side module M (one step-2 tower plus boxes) the Gysin exact
sequence pins down the Pin(2)-side candidate S degree by degree. Writing
s_k, m_k for the dimensions, t_k for the guaranteed Q-rank out of degree k
of the candidate, and q_k for the actual Q-rank, exactness forces the
recurrence

    q_{k+1} = 2*s_k - m_k - q_k,    q = 0 below the support,

together with the window constraints

    t_k <= q_k <= min(t_k + x_k, s_k, s_{k-1}),    i_k = s_k - q_{k+1} >= 0,

where x_k is the box dimension of the candidate at degree k (the only part
of q not pinned by the tower structure) and i_k, p_k = s_k - q_k are the
ranks of the two non-Q legs. ``feasibility_check`` runs the recurrence and
either certifies a candidate or reports the first degree where it dies;
``oracle_solve`` searches standard-module candidates (with boxes) and
returns all survivors.

The closed forms for the one-box-degree families come in two flavors:
``closed_form_stated`` is the original case table taken at face value,
``closed_form_corrected`` the certificate-checked repair. They disagree in
exactly two ways, surfaced by ``stated_corrected_diffs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .modules import (
    Box,
    StandardModule,
    StructuredModule,
    T_plus,
    _standard_structured,
    degree_kernel,
    standard_from_starts,
)

__all__ = [
    "FamilyAnswer",
    "GysinCandidate",
    "GysinCertificate",
    "GysinError",
    "GysinSolution",
    "Infeasible",
    "Warn",
    "closed_form_corrected",
    "closed_form_stated",
    "feasibility_check",
    "increase_classify",
    "oracle_solve",
    "stated_corrected_diffs",
]


class GysinError(ValueError):
    pass


# Degrees the window reaches above the last feature. Over all 6,188 inputs of
# tests/data/oracle_golden.json, pads 11, 13, 16, 20, 24 and 40 give the same
# candidates as 12, while 10, 9 and 8 change 28, 252 and 392 answers; a
# window derived from the recurrence itself would replace this constant.
_WINDOW_PAD = 12


@dataclass(frozen=True)
class GysinCertificate:
    """Degreewise witness data for a feasible (M, S) pair."""

    window: tuple[int, int]
    q: dict[int, int]
    s: dict[int, int]
    m: dict[int, int]
    t: dict[int, int]
    i: dict[int, int]
    p: dict[int, int]

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            **{
                name: {str(k): v for k, v in sorted(getattr(self, name).items()) if v}
                for name in ("q", "s", "m", "t", "i", "p")
            },
        }


@dataclass(frozen=True)
class Infeasible:
    degree: int
    reason: str

    def __str__(self) -> str:
        return f"infeasible at degree {self.degree}: {self.reason}"


def _strip_qsplit(m: StructuredModule) -> StructuredModule:
    boxes = tuple(b for b in m.boxes if not b.qsplit)
    if len(boxes) == len(m.boxes):
        return m
    return StructuredModule(towers=m.towers, boxes=boxes, links=m.links)


def _validate_source(m: StructuredModule) -> None:
    steps = [t for t in m.towers if t.step == 2]
    if len(steps) != 1 or len(m.towers) != 1:
        raise GysinError(
            "the known side of a Gysin problem must be a single step-2 tower plus boxes"
        )


def feasibility_check(
    m: StructuredModule,
    candidate: StructuredModule,
    window: Optional[tuple[int, int]] = None,
) -> Union[GysinCertificate, Infeasible]:
    """Run the Gysin recurrence for a concrete candidate.

    Returns a GysinCertificate when every degree passes and the Q-rank
    stabilizes to the periodic tower template at the top of the window;
    otherwise the first failure as an Infeasible. qsplit boxes on the known
    side are ignored (they cancel in pairs in this bookkeeping). The
    recurrence steps through integer degrees, which is what module degrees
    are: a Tower or Box with a non-integer degree cannot be built.
    """
    m = _strip_qsplit(m)
    _validate_source(m)
    if window is None:
        lo = min(m.support_min(), candidate.support_min()) - 4
        hi = max(m.feature_max(), candidate.feature_max()) + _WINDOW_PAD
    else:
        lo, hi = window
    s_dims, t_prof = degree_kernel(candidate, (lo - 1, hi + 1))
    m_dims, _q = degree_kernel(m, (lo - 1, hi + 1))
    x_dims: dict[int, int] = {}
    for b in candidate.boxes:
        x_dims[b.deg] = x_dims.get(b.deg, 0) + b.dim

    q: dict[int, int] = {}
    i: dict[int, int] = {}
    p: dict[int, int] = {}
    qk = 0
    for k in range(lo, hi + 1):
        sk = s_dims.get(k, 0)
        mk = m_dims.get(k, 0)
        tk = t_prof.get(k, 0)
        xk = x_dims.get(k, 0)
        q[k] = qk
        if qk < tk:
            return Infeasible(k, f"Q-rank {qk} falls below the structural rank {tk}")
        if qk > tk + xk:
            return Infeasible(
                k, f"Q-rank {qk} exceeds structural rank {tk} plus box slack {xk}"
            )
        if qk > sk:
            return Infeasible(k, f"Q-rank {qk} exceeds the candidate dimension {sk}")
        if qk > s_dims.get(k - 1, 0):
            return Infeasible(
                k, f"Q-rank {qk} exceeds the candidate dimension one degree down"
            )
        qnext = 2 * sk - mk - qk
        ik = sk - qnext
        if ik < 0:
            return Infeasible(k, f"negative complementary rank i={ik}")
        i[k] = ik
        p[k] = sk - qk
        qk = qnext
    # top-of-window stabilization: the candidate's towers force the periodic
    # template t in the stable region, so q must have locked onto it
    for k in range(hi - 3, hi + 1):
        if q[k] != t_prof.get(k, 0):
            return Infeasible(
                k, "Q-rank does not stabilize to the periodic tower template"
            )
    if qk != t_prof.get(hi + 1, 0):
        return Infeasible(
            hi + 1, "Q-rank does not stabilize to the periodic tower template"
        )
    return GysinCertificate(
        window=(lo, hi),
        q=q,
        s={k: v for k, v in s_dims.items() if lo <= k <= hi},
        m={k: v for k, v in m_dims.items() if lo <= k <= hi},
        t={k: v for k, v in t_prof.items() if lo <= k <= hi},
        i=i,
        p=p,
    )


@dataclass(frozen=True)
class GysinCandidate:
    standard: StandardModule
    boxes: tuple[Box, ...]
    module: StructuredModule
    certificate: GysinCertificate


@dataclass(frozen=True)
class GysinSolution:
    """``oracle_solve``'s candidates; ``unique`` means unique under its box rule."""

    candidates: tuple[GysinCandidate, ...]
    unique: bool
    window: tuple[int, int]


_Starts = tuple[Optional[int], Optional[int], Optional[int]]


def _starts_at(k: int, starts: _Starts, first: int, box_top: int) -> list[_Starts]:
    """The tower starts (a, b, c) the search may hold once degree k is decided.

    ``starts`` holds the towers started below k and None for the others. A
    standard module has a even with a <= box_top, b = a + 1 - 4i and
    c = b + 1 - 4j (i, j >= 0), all at least ``first``. Read one degree at a
    time, these bounds say when each tower may start, given the towers that
    started before it. a, b and c differ mod 4, so at most one starts at k.
    An option is dropped once a tower has missed its deadline: a must start
    by box_top, b by a + 1, and c by b + 1 and by a + 2.
    """
    a, b, c = starts
    options = [starts]
    if k >= first and k % 2:
        # b is odd; once a has started, b <= a + 1 leaves only a + 1
        if b is None and (k == a + 1 if a is not None else c is None or (c - k) % 4 == 1):
            options.append((a, k, c))
    elif k >= first:
        # a is even, and the towers started before it fix its residue mod 4
        if a is None and k <= box_top and (b is None or (b - k) % 4 == 1) and (
            c is None or (c - k) % 4 == 2
        ):
            options.append((k, b, c))
        # c is even; once b or a has started, c <= b + 1 or c <= a + 2 leaves one degree
        if c is None and (k == b + 1 if b is not None else a is None or k == a + 2):
            options.append((a, b, k))
    return [
        (a, b, c)
        for a, b, c in options
        if not (
            (a is None and k >= box_top)
            or (b is None and a is not None and k >= a + 1)
            or (c is None and ((b is not None and k >= b + 1) or (a is not None and k >= a + 2)))
        )
    ]


def _skeleton_at(k: int, starts: _Starts) -> tuple[int, int]:
    """(dimension, guaranteed Q-rank) in degree k of the towers started so far.

    A tower starting at z has F in degrees z, z + 4, .... The Q-links c -> b
    and b -> a are active at k when k is on the source ladder and the target
    started by k - 1; its ladder then reaches k - 1, since b = c - 1 and
    a = b - 1 (mod 4). This is ``degree_kernel`` of ``_standard_structured``
    without building the module.
    """
    a, b, c = starts
    on_a = a is not None and a <= k and (k - a) % 4 == 0
    on_b = b is not None and b <= k and (k - b) % 4 == 0
    on_c = c is not None and c <= k and (k - c) % 4 == 0
    t = (on_c and b is not None and b <= k - 1) + (on_b and a is not None and a <= k - 1)
    return on_a + on_b + on_c, t


def oracle_solve(
    m: StructuredModule,
    max_solutions: int = 64,
    max_nodes: int = 500_000,
) -> GysinSolution:
    """Search all standard-module candidates compatible with the known side.

    One depth-first search walks degrees upward from the bottom of the
    window. At each degree it may start one of the towers a, b, c that has
    not started yet (``_starts_at``), reads the skeleton's dimension and
    Q-rank there in closed form (``_skeleton_at``), and chooses a box
    dimension within the slack the recurrence leaves. A node is one search
    state (degree, Q-rank, boxes, previous dimension, starts), and
    ``max_nodes`` bounds their number over the whole search.

    Candidate boxes are placed only in degrees where the known side itself
    has box summands. This is a rule of the search, not a consequence of
    the recurrence: for T^+_{-6} + F_{-14}, S(-2, -2, -2) with F in each
    degree -14..-6 passes ``feasibility_check`` in this search's window, yet
    is not reported. The rule decides answers: T^+_0 (S^3) gets S(0, 0, 0)
    alone, yet S(2, 2, 2) + F_0 + F_1 + F_2 is certified in the same window,
    as boxes below towers started 4 higher show the lower towers' dims and
    Q-ranks, and the recurrence does not see V. So ``unique`` means unique
    under this rule, and the +1-surgery correction terms rest on it.
    Whether such candidates are Pin(2) modules is open.

    Survivors must lock onto the periodic template at the top, and each
    keeps the feasibility_check certificate of its DFS leaf. Raises
    GysinError when nothing survives, or when the search exceeds its node
    budget or its survivor cap; each message names the window (lo, hi), and
    the budget messages also give the count reached and the limit. Both
    limits must be at least 1.
    """
    for name, limit in (("max_solutions", max_solutions), ("max_nodes", max_nodes)):
        if limit < 1:
            raise GysinError(f"{name} must be >= 1, got {limit}")
    m = _strip_qsplit(m)
    _validate_source(m)
    smin = m.support_min()
    hi = m.feature_max() + _WINDOW_PAD
    lo = smin - 4
    box_top = hi - 8  # no boxes in the top two periods: the tail must be pure tower
    m_dims, _q = degree_kernel(m, (lo - 1, hi + 1))
    box_degrees = {b.deg for b in m.boxes if b.deg <= box_top}

    found: dict[tuple, GysinCandidate] = {}
    nodes = 0
    # depth-first over degrees; a tower that has not started yet is None
    stack = [(lo, 0, (), 0, (None, None, None))]  # k, q_k, boxes, s_{k-1}, (a, b, c)
    while stack:
        nodes += 1
        if nodes > max_nodes:
            raise GysinError(
                "candidate search exceeded its node budget "
                f"({nodes} nodes > max_nodes={max_nodes}) in window "
                f"[{lo}, {hi}]; narrow the window or raise max_nodes"
            )
        k, qk, boxes, s_prev, starts = stack.pop()
        if k > hi:
            # every tower has started: the last deadline, box_top + 2, is below hi
            full = _standard_structured(*starts, boxes)
            cert = feasibility_check(m, full, window=(lo, hi))
            if isinstance(cert, GysinCertificate):
                key = (starts, tuple(sorted((b_.deg, b_.dim) for b_ in boxes)))
                if key not in found:
                    std = standard_from_starts(*starts)
                    found[key] = GysinCandidate(std, boxes, full, cert)
                if len(found) > max_solutions:
                    raise GysinError(
                        "candidate search found implausibly many "
                        f"survivors ({len(found)} > max_solutions="
                        f"{max_solutions}) in window [{lo}, {hi}]"
                    )
            continue
        if qk > s_prev:
            continue
        mk = m_dims.get(k, 0)
        for here in _starts_at(k, starts, smin - 2, box_top):
            stk, tk = _skeleton_at(k, here)
            if qk < tk:
                continue
            if k >= hi - 3 and qk != tk:
                continue  # template must already hold in the last period
            x_lo = max(0, qk - tk, qk - stk)
            x_hi = mk + qk - stk
            if k not in box_degrees:
                x_hi = min(x_hi, 0)
            for x in range(x_lo, x_hi + 1):
                sk = stk + x
                qnext = 2 * sk - mk - qk
                nb = boxes + ((Box(k, x),) if x else ())
                stack.append((k + 1, qnext, nb, sk, here))

    if not found:
        raise GysinError(f"no feasible Gysin partner in window [{lo}, {hi}]")
    cands = [cand for _key, cand in sorted(found.items(), key=lambda kv: kv[0])]
    return GysinSolution(
        candidates=tuple(cands), unique=len(cands) == 1, window=(lo, hi)
    )


# ---------------------------------------------------------------------------
# Closed forms for the one-box-degree families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Warn:
    cls: str
    detail: str


@dataclass(frozen=True)
class FamilyAnswer:
    standard: StandardModule
    box_dim: int
    box_deg: int
    parity_label: str
    certificate: Optional[GysinCertificate]

    def module(self) -> StructuredModule:
        boxes = (Box(self.box_deg, self.box_dim),) if self.box_dim else ()
        return self.standard.to_structured(boxes)


def _family_base(family: int) -> tuple[int, int, bool]:
    """(K, tower base 2K, first_form?) for a family label.

    Odd labels 2K-1 name the families whose boxes sit one below the tower
    base mod 4; even labels 2K put the boxes on the base class itself.
    """
    first = family % 2 != 0
    k = (family + 1) // 2 if first else family // 2
    return k, 2 * k, first


def _family_box_deg(family: int, box_deg: Optional[int]) -> int:
    k, base, first = _family_base(family)
    default = base - 1 if first else base
    if box_deg is None:
        return default
    if (box_deg - default) % 4:
        raise GysinError(
            f"family {family} carries boxes in degrees {default} mod 4, "
            f"got degree {box_deg}"
        )
    return box_deg


def closed_form_stated(
    family: int, n: int, box_deg: Optional[int] = None
) -> FamilyAnswer:
    """The case table exactly as printed; no certificate is attached.

    Family 2K-1: n = 2m gives (K,K,K) with F^m (even case), n = 2m+1 gives
    (K+1, K-1, K-1) with F^{m+1} (odd case). Family 2K: n = 2m+1 gives
    (K,K,K) with F^{m+1} labeled even, n = 2m gives (K+1, K+1, K-1) with
    F^{m+1} labeled odd. Compare with closed_form_corrected before trusting
    either the finite parts or the second family's case pairing.
    """
    if n < 0:
        raise GysinError(f"box count must be nonnegative, got {n}")
    k, _base, first = _family_base(family)
    deg = _family_box_deg(family, box_deg)
    half = n // 2
    if first:
        if n % 2 == 0:
            std, box, label = StandardModule(k, k, k), half, "even"
        else:
            std, box, label = StandardModule(k + 1, k - 1, k - 1), half + 1, "odd"
    else:
        if n % 2 == 1:
            std, box, label = StandardModule(k, k, k), half + 1, "even"
        else:
            std, box, label = StandardModule(k + 1, k + 1, k - 1), half + 1, "odd"
    return FamilyAnswer(
        standard=std, box_dim=box, box_deg=deg, parity_label=label, certificate=None
    )


def closed_form_corrected(
    family: int, n: int, box_deg: Optional[int] = None
) -> FamilyAnswer:
    """Certificate-checked closed form for T^+ with n boxes in one degree.

    Both families put F^{floor(n/2)} on the output (at the input box degree)
    and the degenerate tower pattern appears at odd n:
    (K+1, K-1, K-1) in family 2K-1, (K+1, K+1, K-1) in family 2K. The
    answer is certified against the recurrence before being returned; a
    certification failure raises, it is never returned silently.
    """
    if n < 0:
        raise GysinError(f"box count must be nonnegative, got {n}")
    k, base, first = _family_base(family)
    deg = _family_box_deg(family, box_deg)
    half = n // 2
    if n % 2 == 0:
        std, label = StandardModule(k, k, k), "even"
    elif first:
        std, label = StandardModule(k + 1, k - 1, k - 1), "odd"
    else:
        std, label = StandardModule(k + 1, k + 1, k - 1), "odd"
    known = T_plus(base)
    if n:
        known = known + StructuredModule(boxes=(Box(deg, n),))
    out_boxes = (Box(deg, half),) if half else ()
    cert = feasibility_check(known, std.to_structured(out_boxes))
    if not isinstance(cert, GysinCertificate):
        raise GysinError(
            f"closed form failed its own certification for family {family}, "
            f"n={n}: {cert}"
        )
    return FamilyAnswer(
        standard=std, box_dim=half, box_deg=deg, parity_label=label, certificate=cert
    )


def stated_corrected_diffs(
    family: int, n: int, box_deg: Optional[int] = None
) -> tuple[Warn, ...]:
    """Where the printed table deviates from the certified answer.

    Exactly two classes ever appear: ``case-labels`` when the second
    family's n-parity pairing puts the wrong tower pattern on a case, and
    ``finite-multiplicity`` when only the box count is off.
    """
    stated = closed_form_stated(family, n, box_deg)
    corrected = closed_form_corrected(family, n, box_deg)
    if stated.standard != corrected.standard:
        return (
            Warn(
                cls="case-labels",
                detail=(
                    f"family {family}, n={n}: stated case gives towers "
                    f"{tuple(map(str, stated.standard.tower_starts()))} but the "
                    f"certified answer has "
                    f"{tuple(map(str, corrected.standard.tower_starts()))}"
                ),
            ),
        )
    if stated.box_dim != corrected.box_dim:
        return (
            Warn(
                cls="finite-multiplicity",
                detail=(
                    f"family {family}, n={n}: stated finite part F^{stated.box_dim} "
                    f"should be F^{corrected.box_dim}"
                ),
            ),
        )
    return ()


# ---------------------------------------------------------------------------
# Local rank steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncreaseStep:
    kind: str  # "increasing" | "decreasing"
    p: int
    i: int


def increase_classify(window_dims: tuple[int, int, int]) -> IncreaseStep:
    """Classify an isolated known-side generator from three local dimensions.

    ``window_dims`` is (s_{k-1}, s_k, s_{k+1}) of the candidate around the
    generator's degree k. Pattern (a, a+1, a+1) is an increasing step with
    (p, i) = (1, 0); pattern (a, a, a-1) is decreasing with (0, 1) and
    needs a >= 1. Anything else is inconsistent with an isolated generator.
    """
    lo, mid, hi = (int(v) for v in window_dims)
    if min(lo, mid, hi) < 0:
        raise ValueError("dimensions must be nonnegative")
    if mid == lo + 1 and hi == lo + 1:
        return IncreaseStep(kind="increasing", p=1, i=0)
    if mid == lo and hi == lo - 1:
        if lo < 1:
            raise ValueError(
                "a decreasing step needs a positive dimension to consume"
            )
        return IncreaseStep(kind="decreasing", p=0, i=1)
    raise ValueError(
        f"local pattern {window_dims} matches neither an increasing nor a "
        "decreasing step"
    )
