"""Output checks, each independent of the path being timed.

Every check takes what the generator knows by construction plus what the
program returned, and gives back one entry per item: ``None`` when the
item is right, otherwise a short reason. ``fail_count`` turns that list
into the failure count behind ``fail_frac``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from child import gysin_module


def fail_count(verdicts: Sequence[Optional[str]]) -> int:
    return sum(v is not None for v in verdicts)


def fail_frac(verdicts: Sequence[Optional[str]]) -> float:
    return fail_count(verdicts) / len(verdicts) if verdicts else 0.0


def _reverse(ct):
    """Orientation reversal (alpha, beta, gamma) -> (-gamma, -beta, -alpha)."""
    a, b, g = ct
    return (-g, -b, -a)


def expected_terms(e: dict) -> tuple:
    """Correction terms a row must have, straight from the closed-form table.

    A mirrored knot is the table row of its mirror at the opposite slope,
    orientation-reversed.
    """
    from pin2floer.surgery import table_correction_terms

    slope = -e["slope"] if e["mirrored"] else e["slope"]
    t = table_correction_terms(e["sigma"], e["arf"], slope)
    ct = (t.alpha, t.beta, t.gamma)
    return _reverse(ct) if e["mirrored"] else ct


def check_knot_batch(rows: list[dict], expected: list[dict], stdout: bytes,
                     returncode: int) -> list[Optional[str]]:
    """One verdict per CSV row of one ``p2f knot batch --json`` call."""
    if returncode != 0:
        return [f"exit code {returncode}"] * len(rows)
    try:
        reports = json.loads(stdout)["knots"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e}"] * len(rows)
    out: list[Optional[str]] = []
    for i, (row, e) in enumerate(zip(rows, expected)):
        if i >= len(reports):
            out.append("missing from output")
            continue
        rep = reports[i]
        want = expected_terms(e)
        got = tuple(Fraction(str(rep["hs_towers"][x])) for x in ("alpha", "beta", "gamma"))
        obstructed = want[0] != want[1] and want[1] != want[2]
        fields = {
            "name": (rep.get("name"), row["name"]),
            "sigma": (rep.get("sigma"), e["sigma"]),
            "arf": (rep.get("arf"), e["arf"]),
            "mirrored": (rep.get("mirrored"), e["mirrored"]),
            "surgery": (rep.get("surgery"), e["slope"]),
            "hs_towers": (got, want),
            "agree": (rep.get("agree"), True),
            "obstructed": (rep.get("obstructed"), obstructed),
        }
        bad = [k for k, (g, w) in fields.items() if g != w]
        out.append(f"row {i}: wrong {', '.join(bad)}" if bad else None)
    if len(reports) > len(rows):
        out[-1] = out[-1] or f"{len(reports) - len(rows)} extra rows in output"
    return out


def _candidate_key(starts, boxes) -> tuple:
    return (tuple(Fraction(str(s)) for s in starts),
            tuple(sorted((int(d), int(n)) for d, n in boxes)))


def check_gysin(inputs: list[dict], expected: list[dict],
                outcomes: list[dict]) -> list[Optional[str]]:
    """Candidates against the corrected closed form, each re-certified.

    Family inputs must contain the closed-form answer (two candidates on
    the odd-count base class, one otherwise); where the closed form
    refuses, the search must report no feasible partner. Every candidate of
    every input must pass ``feasibility_check`` on its own window.
    """
    from pin2floer.gysin import GysinCertificate, GysinError, closed_form_corrected, feasibility_check
    from pin2floer.modules import Box, standard_from_starts

    out: list[Optional[str]] = []
    for inp, e, got in zip(inputs, expected, outcomes):
        if "error" in got:
            out.append(f"{inp}: {got['error']}")
            continue
        cands = got.get("candidates")
        keys = [] if cands is None else [_candidate_key(c["starts"], c["boxes"]) for c in cands]
        reason = None
        if e["kind"] == "family":
            deg, n = inp["boxes"][0]
            try:
                ans = closed_form_corrected(e["family"], n, box_deg=deg)
                ref = _candidate_key(ans.standard.tower_starts(),
                                     [(deg, ans.box_dim)] if ans.box_dim else [])
            except GysinError:
                ref = None
            if ref is None and cands is not None:
                reason = "closed form refuses but the search found partners"
            elif ref is not None and ref not in keys:
                reason = "closed-form answer missing from the candidates"
            elif ref is not None and len(keys) != (2 if e["two_candidates"] else 1):
                reason = f"{len(keys)} candidates"
        if reason is None and cands is not None:
            m = gysin_module(inp)
            for (starts, boxes) in keys:
                full = standard_from_starts(*starts).to_structured(
                    tuple(Box(d, n) for d, n in boxes))
                if not isinstance(feasibility_check(m, full), GysinCertificate):
                    reason = f"candidate {starts} {boxes} fails re-certification"
                    break
        out.append(f"{inp}: {reason}" if reason else None)
    return out


def check_homalg(expected: list[dict], outcomes: list[dict]) -> list[Optional[str]]:
    """Acyclicity and homology as constructed; exact triangles; E-infinity."""
    out: list[Optional[str]] = []
    for i, (e, got) in enumerate(zip(expected, outcomes)):
        reason = None
        if "error" in got:
            reason = got["error"]
        elif "homology" in e:
            want = {str(k): n for k, n in e["homology"].items()}
            if got.get("homology") != want:
                reason = f"homology {got.get('homology')} != {want}"
            elif got.get("einf_totals") != want:
                reason = f"E-infinity totals {got.get('einf_totals')} != homology {want}"
        elif got.get("acyclic") != e["acyclic"]:
            reason = f"acyclic={got.get('acyclic')}, constructed {e['acyclic']}"
        elif e["acyclic"]:
            want_h = [{str(k): n for k, n in h.items()} for h in e["h_dims"]]
            if not got.get("exact"):
                reason = "detected triangle fails the exactness audit"
            elif got.get("h_dims") != want_h:
                reason = f"homology dims {got.get('h_dims')} != {want_h}"
        out.append(f"item {i}: {reason}" if reason else None)
    return out


def check_verify(baseline: dict, stdout: bytes, returncode: int) -> Optional[str]:
    """No FAIL row, and every baseline row keeps its status."""
    try:
        rows = {r["id"]: r["status"] for r in json.loads(stdout)["rows"]}
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output (exit code {returncode}): {e}"
    fails = sorted(i for i, s in rows.items() if s == "FAIL")
    if fails:
        return f"FAIL rows: {fails[:5]}"
    changed = sorted(i for i, s in baseline.items() if rows.get(i) != s)
    if changed:
        return f"rows changed status or vanished: {changed[:5]}"
    if returncode != 0:
        return f"exit code {returncode}"
    return None
