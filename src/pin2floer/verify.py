"""Deterministic verification sweep over every checkable identity.

``run_verify`` rebuilds the package's headline computations from scratch:
ring relations, rank-profile and parity classification, the Gysin family
sweeps, the documented non-unique example, both correction-term tables at
both slopes, the worked two-sided-tower branch, seeded triangle and
spectral-sequence randomization, complex assembly, the blow-up column, the
obstruction and cobordism checkers, and the full catalog. Each check
yields one row; WARN appears exactly where the stated closed form is
documented to deviate from the corrected one (finite multiplicities in the
odd case, swapped case labels in the second family), and nowhere else.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .complexes import (
    check_exact_triangle,
    filtered_pages,
    homology,
    mainiso_toy_model,
    random_admissible_triple,
    random_filtered_complex,
    triangle_detect,
    Triangle,
    assemble_monopole_complexes,
    AssemblyError,
)
from .gf2 import F2Matrix
from .gysin import (
    closed_form_corrected,
    feasibility_check,
    increase_classify,
    oracle_solve,
    stated_corrected_diffs,
    Infeasible,
)
from .modules import (
    RingElement,
    StandardModule,
    CorrectionTerms,
    T_plus,
    F_box,
    classify_parity,
    correction_terms_of,
    dims,
    reverse_orientation,
    ring_mul,
)
from .surgery import (
    catalog,
    catalog_check,
    catalog_names,
    blowup_coefficient,
    minus_one_from_signature,
    minus_one_towers,
    plus_one_from_signature,
    seifert_obstruction,
    spin_cobordism_check,
    table_correction_terms,
    correction_terms,
    validate_knot,
    zero_surgery_bar_towers,
)

__all__ = ["Row", "VerifyReport", "run_verify"]


@dataclass(frozen=True)
class Row:
    id: str
    anchor: str
    expected: str
    got: str
    status: str  # PASS | WARN | FAIL

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "expected": self.expected,
            "got": self.got,
            "status": self.status,
        }


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[Row, ...]
    elapsed_s: float

    @property
    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "WARN": 0, "FAIL": 0}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts.get("FAIL", 0) == 0

    def to_json(self) -> dict:
        return {
            "counts": self.counts,
            "elapsed_s": round(self.elapsed_s, 3),
            "ok": self.ok,
            "rows": [r.to_json() for r in self.rows],
        }


def _cmp(rid: str, anchor: str, expected, got) -> Row:
    e, g = str(expected), str(got)
    return Row(rid, anchor, e, g, "PASS" if e == g else "FAIL")


def _starts_key(std: StandardModule, boxes) -> tuple:
    return (
        std.tower_starts(),
        tuple(sorted((b.deg, b.dim) for b in boxes)),
    )


# --- check groups ----------------------------------------------------------


def _grp_ring() -> list[Row]:
    rows = []
    q = RingElement.monomial(1, 0)
    q2 = RingElement.monomial(2, 0)
    rows.append(_cmp("ring/q-cubed", "ring-relations", "0", ring_mul(q2, q)))
    v = RingElement.monomial(0, 1)
    rows.append(_cmp("ring/v-powers", "ring-relations", "Q^2 V^3", ring_mul(q2, ring_mul(v, RingElement.monomial(0, 2)))))
    mixed = ring_mul(RingElement.monomial(1, 1), RingElement.monomial(1, 2))
    rows.append(_cmp("ring/q-mixed", "ring-relations", "Q^2 V^3", mixed))
    two = RingElement({(0, 0), (1, 0)})
    rows.append(_cmp("ring/char-two", "ring-relations", "1 + Q^2", ring_mul(two, two)))
    rows.append(_cmp("ring/unit-render", "ring-relations", "1 + Q^1", two))
    return rows


def _grp_profiles() -> list[Row]:
    rows = []
    s = StandardModule(0, 0, 0).to_structured()
    d = dims(s, (-2, 10))
    rows.append(
        _cmp(
            "profiles/standard-dims",
            "rank-profile",
            "[0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1]",
            [d.get(z, 0) for z in range(-2, 11)],
        )
    )
    # parity split: base-0 tower partners classify as announced
    even = closed_form_corrected(-1, 2)
    odd = closed_form_corrected(-1, 3)
    for name, ans in (("even", even), ("odd", odd)):
        prof = dims(ans.module(), (-6, 14))
        got = classify_parity(prof, 0)
        rows.append(_cmp(f"profiles/parity-{name}", "parity-split", name, got))
    rows.append(
        _cmp(
            "profiles/increase-up",
            "one-step-classification",
            "IncreaseStep(kind='increasing', p=1, i=0)",
            repr(increase_classify((3, 4, 4))),
        )
    )
    rows.append(
        _cmp(
            "profiles/increase-down",
            "one-step-classification",
            "IncreaseStep(kind='decreasing', p=0, i=1)",
            repr(increase_classify((3, 3, 2))),
        )
    )
    return rows


def _grp_gysin_even_family() -> list[Row]:
    rows = []
    for k in range(6):
        sol = oracle_solve(T_plus(0) + F_box(2 * k, -1))
        got = [
            _starts_key(c.standard, c.boxes) for c in sol.candidates
        ]
        want = [_starts_key(StandardModule(0, 0, 0), F_box(k, -1).boxes)]
        rows.append(
            _cmp(f"gysin/even-family/k={k}", "gysin-even-family", want, got)
        )
    return rows


def _grp_gysin_odd_family() -> list[Row]:
    rows = []
    for k in range(6):
        sol = oracle_solve(T_plus(0) + F_box(2 * k + 1, -1))
        got = [_starts_key(c.standard, c.boxes) for c in sol.candidates]
        want = [_starts_key(StandardModule(1, -1, -1), F_box(k, -1).boxes)]
        rows.append(
            _cmp(f"gysin/odd-family/k={k}", "gysin-odd-family", want, got)
        )
    return rows


def _grp_gysin_poincare() -> list[Row]:
    sol = oracle_solve(T_plus(-2))
    got = [_starts_key(c.standard, c.boxes) for c in sol.candidates]
    want = [_starts_key(StandardModule(-1, -1, -1), ())]
    return [_cmp("gysin/minus-two-tower", "gysin-lowest-tower", want, got)]


def _grp_gysin_remark() -> list[Row]:
    rows = []
    sol = oracle_solve(T_plus(-4) + F_box(3, -4) + F_box(1, -3))
    got = sorted(_starts_key(c.standard, c.boxes) for c in sol.candidates)
    want = sorted(
        [
            _starts_key(StandardModule(0, -2, -2), F_box(2, -4).boxes),
            _starts_key(
                StandardModule(-2, -2, -2),
                F_box(2, -4).boxes + F_box(1, -3).boxes,
            ),
        ]
    )
    rows.append(_cmp("gysin/two-candidates", "gysin-ambiguous-pair", want, got))
    # the stated odd-case multiplicity fails the rank bookkeeping at -1
    verdict = feasibility_check(
        T_plus(0) + F_box(1, -1),
        StandardModule(1, -1, -1).to_structured(F_box(1, -1).boxes),
    )
    got_v = (
        f"infeasible at degree {verdict.degree}"
        if isinstance(verdict, Infeasible)
        else "feasible"
    )
    rows.append(
        _cmp(
            "gysin/stated-multiplicity-infeasible",
            "gysin-ambiguous-pair",
            "infeasible at degree -1",
            got_v,
        )
    )
    return rows


def _grp_closed_forms() -> list[Row]:
    rows = []
    for family in (-1, 0):
        for n in range(6):
            ans = closed_form_corrected(family, n)
            ok = ans.certificate is not None
            rows.append(
                _cmp(
                    f"closed-form/certified/family={family}/n={n}",
                    "closed-form-certificates",
                    True,
                    ok,
                )
            )
            diffs = stated_corrected_diffs(family, n)
            if not diffs:
                rows.append(
                    Row(
                        f"closed-form/stated/family={family}/n={n}",
                        "closed-form-certificates",
                        "stated = corrected",
                        "stated = corrected",
                        "PASS",
                    )
                )
            for w in diffs:
                rows.append(
                    Row(
                        f"closed-form/stated/family={family}/n={n}",
                        w.cls,
                        "stated = corrected",
                        w.detail,
                        "WARN",
                    )
                )
    return rows


def _grp_plus_one_tables() -> list[Row]:
    rows = []
    for sigma in range(0, -17, -2):
        for arf in (0, 1):
            got = correction_terms_of(plus_one_from_signature(sigma, arf).standard)
            want = table_correction_terms(sigma, arf, 1)
            rows.append(
                _cmp(
                    f"tables/plus-one/sigma={sigma}/arf={arf}",
                    "plus-one-table",
                    want,
                    got,
                )
            )
    return rows


def _grp_minus_one_tables() -> list[Row]:
    rows = []
    for sigma in range(0, -17, -2):
        for arf in (0, 1):
            got = correction_terms_of(minus_one_from_signature(sigma, arf))
            want = table_correction_terms(sigma, arf, -1)
            rows.append(
                _cmp(
                    f"tables/minus-one/sigma={sigma}/arf={arf}",
                    "minus-one-table",
                    want,
                    got,
                )
            )
    return rows


def _grp_worked_branch() -> list[Row]:
    rows = []
    quad = zero_surgery_bar_towers(StandardModule(-1, -3, -3), 1)
    rows.append(
        _cmp("worked/bar-quadruple", "two-sided-model", (1, 0, -5, -2), quad.bases)
    )
    rows.append(
        _cmp(
            "worked/minus-one-answer",
            "two-sided-model",
            "(1, -1, -3)",
            correction_terms_of(minus_one_towers(quad)),
        )
    )
    fig8 = validate_knot("fig8", 0, (3, -1))
    rows.append(
        _cmp(
            "worked/fig8-minus-one",
            "two-sided-model",
            "(1, 1, -1)",
            correction_terms(fig8, -1),
        )
    )
    mirror = validate_knot("mirror-trefoil", 2, (-1, 1))
    rows.append(
        _cmp(
            "worked/mirror-trefoil-minus-one",
            "two-sided-model",
            "(1, 1, 1)",
            correction_terms(mirror, -1),
        )
    )
    return rows


def _grp_triangles() -> list[Row]:
    rows = []
    rng = random.Random(20260816)
    acyclic = 0
    bad = []
    for trial in range(24):
        method = "cone" if trial % 2 else "formula"
        f1, f2, h1 = random_admissible_triple(rng, method=method)
        res = triangle_detect(f1, f2, h1)
        if isinstance(res, Triangle):
            acyclic += 1
            rep = check_exact_triangle(res.f1_star, res.f2_star, res.f3)
            if not rep.ok:
                bad.append(trial)
    rows.append(
        _cmp("triangles/exactness-when-acyclic", "cone-detection", [], bad)
    )
    rows.append(
        _cmp("triangles/cone-method-always-acyclic", "cone-detection", True, acyclic >= 12)
    )
    return rows


def _grp_spectral() -> list[Row]:
    rows = []
    pages = filtered_pages(mainiso_toy_model())
    rows.append(
        _cmp(
            "spectral/toy-e2",
            "filtration-comparison",
            sorted({(0, 0): 2, (1, 1): 1, (2, 2): 2, (3, 1): 2, (4, 2): 1, (5, 3): 2}.items()),
            sorted(pages.pages[2].items()),
        )
    )
    rows.append(
        _cmp("spectral/toy-e4-vanishes", "filtration-comparison", {}, pages.pages[4])
    )
    grouped = filtered_pages(mainiso_toy_model(grouped=True))
    rows.append(
        _cmp("spectral/toy-grouped-e1", "filtration-comparison", {}, grouped.pages[1])
    )
    rng = random.Random(8128)
    mism = []
    for trial in range(12):
        fc = random_filtered_complex(rng, range(0, 4))
        sp = filtered_pages(fc)
        hom = homology(fc.complex).dims
        by_k: dict[int, int] = {}
        for (_p, k), n in sp.einf.items():
            by_k[k] = by_k.get(k, 0) + n
        if {k: n for k, n in by_k.items() if n} != {k: n for k, n in hom.items() if n}:
            mism.append(trial)
    rows.append(_cmp("spectral/einf-vs-homology", "filtration-comparison", [], mism))
    return rows


def _grp_assembly() -> list[Row]:
    rows = []
    z = F2Matrix.zero
    built = assemble_monopole_complexes(
        o_dims={0: 1, 1: 1},
        s_dims={0: 1},
        u_dims={0: 1},
        d_oo={1: z(1, 1)},
        d_os={1: z(1, 1)},
        d_uo={},
        d_us={},
        dbar_ss={},
        dbar_su={0: z(1, 1)},
        dbar_us={},
        dbar_uu={},
    )
    rows.append(
        _cmp(
            "assembly/shapes",
            "complex-assembly",
            [3, 3, 2],
            [c.total_dim() for c in built],
        )
    )
    try:
        assemble_monopole_complexes(
            o_dims={0: 1, 1: 1, 2: 1},
            s_dims={},
            u_dims={},
            d_oo={1: F2Matrix.identity(1), 2: F2Matrix.identity(1)},
            d_os={},
            d_uo={},
            d_us={},
            dbar_ss={},
            dbar_su={},
            dbar_us={},
            dbar_uu={},
        )
        got = "accepted"
    except AssemblyError:
        got = "rejected"
    rows.append(
        _cmp("assembly/rejects-broken", "complex-assembly", "rejected", got)
    )
    return rows


def _grp_blowup() -> list[Row]:
    rows = []
    # then k = 2, 3 (mod 4) with V-exponents past 64: 76, 85, 115, 76, 85
    for k in (*range(-8, 9), 18, 19, 22, -17, -18):
        got = str(blowup_coefficient(k))
        if k % 4 in (0, 1):
            want = "0"
        else:
            e = (k * (k - 1)) // 4
            want = "Q^2" if e == 0 else f"Q^2 V^{e}"
        rows.append(_cmp(f"blowup/k={k}", "blowup-column", want, got))
    return rows


def _grp_obstruction() -> list[Row]:
    rows = []
    for k in range(1, 6):
        ct = table_correction_terms(-8 * k, 1, -1)
        rows.append(
            _cmp(
                f"obstruction/fires/k={k}",
                "seifert-obstruction",
                True,
                seifert_obstruction(ct).obstructed,
            )
        )
    fired = []
    for sigma in range(0, -41, -2):
        for slope in (1, -1):
            ct = table_correction_terms(sigma, 0, slope)
            if seifert_obstruction(ct).obstructed:
                fired.append((sigma, slope))
    rows.append(_cmp("obstruction/quiet-on-arf0", "seifert-obstruction", [], fired))
    return rows


def _grp_cobordism() -> list[Row]:
    rows = []
    samples = [
        CorrectionTerms(0, 0, 0),
        CorrectionTerms(1, -1, -1),
        CorrectionTerms(1, -1, -3),
        CorrectionTerms(-2, -2, -2),
    ]
    bad = []
    for i, ct in enumerate(samples):
        if not spin_cobordism_check(ct, ct, 1, 1).ok:
            bad.append((1, i))
        if not spin_cobordism_check(ct, ct, 2, 2).ok:
            bad.append((2, i))
    rows.append(_cmp("cobordism/self-pairs", "spin-cobordism", [], bad))
    z3 = CorrectionTerms(0, 0, 0)
    res = spin_cobordism_check(z3, z3, 1, 9)
    rows.append(
        _cmp(
            "cobordism/fabricated-violation",
            "spin-cobordism",
            ["alpha", "beta"],
            sorted(f.split("_")[0] for f in res.failures),
        )
    )
    return rows


def _grp_catalog() -> list[Row]:
    rows = []
    broken = []
    for name in catalog_names():
        try:
            catalog_check(catalog(name))
        except AssertionError as e:
            broken.append(f"{name}: {e}")
    rows.append(_cmp("catalog/cross-checks", "catalog", [], broken))
    e = catalog("Poincare")
    rows.append(_cmp("catalog/poincare-ct", "catalog", "(-1, -1, -1)", e.ct))
    rev = catalog("E_-5")
    rows.append(
        _cmp(
            "catalog/reversal-involution",
            "catalog",
            catalog("E_5").ct,
            reverse_orientation(rev.ct),
        )
    )
    return rows


_GROUPS = (
    ("ring", _grp_ring),
    ("profiles", _grp_profiles),
    ("gysin-even", _grp_gysin_even_family),
    ("gysin-odd", _grp_gysin_odd_family),
    ("gysin-poincare", _grp_gysin_poincare),
    ("gysin-remark", _grp_gysin_remark),
    ("closed-forms", _grp_closed_forms),
    ("plus-one-tables", _grp_plus_one_tables),
    ("minus-one-tables", _grp_minus_one_tables),
    ("worked-branch", _grp_worked_branch),
    ("triangles", _grp_triangles),
    ("spectral", _grp_spectral),
    ("assembly", _grp_assembly),
    ("blowup", _grp_blowup),
    ("obstruction", _grp_obstruction),
    ("cobordism", _grp_cobordism),
    ("catalog", _grp_catalog),
)


def _run_group(name, fn) -> list[Row]:
    try:
        return fn()
    except Exception as e:  # a crashed group is a FAIL, not a crash
        return [Row(f"{name}/exception", name, "no exception", f"{type(e).__name__}: {e}", "FAIL")]


def run_verify() -> VerifyReport:
    """Run every check group in order and collect the report.

    Row order is deterministic: group order, then emission order within
    the group.
    """
    t0 = time.perf_counter()
    rows: list[Row] = []
    for name, fn in _GROUPS:
        rows.extend(_run_group(name, fn))
    return VerifyReport(rows=tuple(rows), elapsed_s=time.perf_counter() - t0)
