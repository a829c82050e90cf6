"""Chain complexes over F2: cones, triangles, filtrations, assembly."""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pin2floer.complexes import (
    AssemblyError,
    ChainMap,
    FilteredComplex,
    GradedComplex,
    GradedMap,
    Homotopy,
    NotAcyclic,
    Triangle,
    assemble_monopole_complexes,
    chain_map_from_json,
    chain_map_to_json,
    check_exact_triangle,
    complex_from_json,
    complex_to_json,
    filtered_from_json,
    filtered_pages,
    filtered_to_json,
    homology,
    induced_map,
    iterated_mapping_cone,
    mainiso_toy_model,
    mapping_cone,
    random_admissible_triple,
    random_chain_map,
    random_complex,
    random_filtered_complex,
    triangle_bundle_from_json,
    triangle_bundle_to_json,
    triangle_detect,
)
from pin2floer import complexes
from pin2floer.complexes import _check_homotopy_identity, _HomologyIndex
from pin2floer.gf2 import ContractError, F2Matrix

# -- containers ----------------------------------------------------------------


def test_complex_rejects_d_squared():
    ident = F2Matrix.identity(1)
    with pytest.raises(ValueError):
        GradedComplex({0: 1, 1: 1, 2: 1}, {1: ident, 2: ident})


def test_complex_multiplies_each_pair_of_differentials_once(monkeypatch):
    c = mainiso_toy_model().complex
    assert sorted(c.d) == [1, 2, 3]
    calls = []
    mul = F2Matrix.mul
    monkeypatch.setattr(F2Matrix, "mul", lambda a, b: calls.append(1) or mul(a, b))
    GradedComplex(c.dims, c.d)
    assert len(calls) == len(set(c.d) | {k + 1 for k in c.d})


def test_complex_rejects_bad_shape():
    with pytest.raises(ContractError):
        GradedComplex({0: 2, 1: 1}, {1: F2Matrix.zero(1, 1)})


def test_complex_rejects_negative_dimension():
    with pytest.raises(ContractError, match="degree 0 is -1"):
        GradedComplex({0: -1, 1: 2}, {})


def test_chain_map_identity_enforced():
    c = GradedComplex({0: 1, 1: 1}, {1: F2Matrix.identity(1)})
    zero = GradedComplex({0: 1, 1: 1}, {})
    with pytest.raises(ValueError):
        ChainMap(c, zero, {0: F2Matrix.identity(1), 1: F2Matrix.identity(1)})


@pytest.mark.parametrize(
    "make",
    [
        lambda c, m: GradedMap(c.dims, c.dims, 0, {3: m}),
        lambda c, m: Homotopy(c, c, {3: m}, degree=1),
        lambda c, m: ChainMap(c, c, {3: m}),
    ],
    ids=["GradedMap", "Homotopy", "ChainMap"],
)
def test_wrong_shape_block_names_degree(make):
    c = GradedComplex({3: 1, 4: 2}, {})
    with pytest.raises(ContractError, match=r"block at degree 3 has shape \(2, 2\)"):
        make(c, F2Matrix.zero(2, 2))


def test_homology_interval_vs_dot():
    # an interval (identity differential) is invisible; a dot survives
    interval = GradedComplex({0: 1, 1: 1}, {1: F2Matrix.identity(1)})
    assert homology(interval).dims == {}
    dot = GradedComplex({3: 1}, {})
    assert homology(dot).dims == {3: 1}


def test_homology_rank_count():
    d2 = F2Matrix.from_rows([[1], [1]])
    c = GradedComplex({1: 2, 2: 1}, {2: d2})
    h = homology(c)
    assert h.dims == {1: 1}
    (rep,) = h.representatives[1]
    assert rep in ((1, 0), (0, 1))


# -- cones and triangles ---------------------------------------------------------


def test_cone_of_identity_is_acyclic():
    rng = random.Random(3)
    c = random_complex(rng, (0, 1, 2))
    ident = ChainMap(c, c, {k: F2Matrix.identity(n) for k, n in c.dims.items()})
    cone, incl, proj = mapping_cone(ident)
    assert homology(cone).dims == {}
    assert incl.degree == 0 and proj.degree == -1


def test_cone_long_exact_sequence():
    rng = random.Random(9)
    c1 = random_complex(rng, (0, 1, 2))
    c2 = random_complex(rng, (0, 1, 2))
    f = random_chain_map(rng, c1, c2)
    cone, incl, proj = mapping_cone(f)
    # Euler characteristics add up: chi(cone) = chi(c2) - chi(c1)
    def chi(cx):
        return sum((-1) ** k * n for k, n in homology(cx).dims.items())

    assert chi(cone) == chi(c2) - chi(c1)


def test_iterated_cone_rejects_bad_homotopy():
    # the identity is checked before the comparison map g = (f2, H1) is
    # built, so its error comes back, never g's chain-map error
    cases = list(_bad_homotopies())
    assert cases
    for f1, f2, bad, want in cases:
        with pytest.raises(ValueError) as got:
            iterated_mapping_cone(f1, f2, bad)
        assert type(got.value) is type(want) and str(got.value) == str(want)
        assert "chain-map identity fails" not in str(got.value)


def _flip_bit(h: Homotopy, k: int, row: int, col: int) -> Homotopy:
    m = h.block_at(k)
    bits = list(m.bits)
    bits[row] ^= 1 << col
    return Homotopy(h.source, h.target, {**h.blocks, k: F2Matrix(m.rows, m.cols, bits)}, h.degree)


def _bad_homotopies():
    """Every one-bit corruption of an admissible H1 that breaks the identity."""
    f1, f2, h1 = random_admissible_triple(random.Random(5), (0, 1, 2), method="formula")
    for k in sorted(h1.source.dims):
        m = h1.block_at(k)
        for row in range(m.rows):
            for col in range(m.cols):
                bad = _flip_bit(h1, k, row, col)
                try:
                    _check_homotopy_identity(f1, f2, bad)
                except ValueError as e:
                    yield f1, f2, bad, e


def test_triangle_detect_rejects_bad_homotopy_with_the_identity_error():
    # the cone is built first and checks the identity; the error must be the
    # one the direct check raises
    cases = list(_bad_homotopies())
    assert cases
    for f1, f2, bad, want in cases:
        with pytest.raises(ValueError) as got:
            triangle_detect(f1, f2, bad)
        assert type(got.value) is type(want) and str(got.value) == str(want)
        assert "homotopy identity d3*H1 + H1*d1 = f2*f1 fails at degree" in str(want)
    f1, f2, h1 = random_admissible_triple(random.Random(5), (0, 1, 2), method="formula")
    with pytest.raises(ContractError, match=r"must have degree \+1, got 2"):
        triangle_detect(f1, f2, Homotopy(h1.source, h1.target, {}, degree=2))


def test_triangle_detect_cone_method_always_acyclic():
    for seed in range(6):
        rng = random.Random(seed)
        f1, f2, h1 = random_admissible_triple(rng, (0, 1, 2, 3), method="cone")
        tri = triangle_detect(f1, f2, h1)
        assert not isinstance(tri, NotAcyclic)
        report = check_exact_triangle(tri.f1_star, tri.f2_star, tri.f3)
        assert report.ok, report.failures


def test_check_exact_triangle_flags_nonexact():
    a = {0: 1}
    u = GradedMap(a, a, 0, {})
    report = check_exact_triangle(u, u, u)
    assert not report.ok
    assert report.failures


@given(st.integers(0, 10_000), st.sampled_from(["formula", "cone"]))
@settings(max_examples=30, deadline=None)
def test_random_triples_satisfy_homotopy_identity(seed, method):
    rng = random.Random(seed)
    f1, f2, h1 = random_admissible_triple(rng, (0, 1, 2), method=method)
    cone = iterated_mapping_cone(f1, f2, h1)  # validates the identity and d^2
    total = f1.source.total_dim() + f1.target.total_dim() + f2.target.total_dim()
    assert cone.total_dim() == total


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_acyclic_triples_give_exact_triangles(seed):
    rng = random.Random(seed)
    f1, f2, h1 = random_admissible_triple(rng, (0, 1, 2, 3), method="formula")
    tri = triangle_detect(f1, f2, h1)
    if isinstance(tri, NotAcyclic):
        return
    report = check_exact_triangle(tri.f1_star, tri.f2_star, tri.f3)
    assert report.ok, report.failures


def _reference_iterated_cone(f1, f2, h1):
    """The iterated cone assembled block by block, as it was built before it
    became the cone of the comparison map."""
    _check_homotopy_identity(f1, f2, h1)
    c1, c2, c3 = f1.source, f1.target, f2.target
    ks = set(c3.dims) | {k + 1 for k in c2.dims} | {k + 2 for k in c1.dims}
    ks |= {k + 1 for k in ks}
    dims = {k: c3.dim_at(k) + c2.dim_at(k - 1) + c1.dim_at(k - 2) for k in ks}
    d = {}
    for k in ks:
        d[k] = F2Matrix.block(
            [
                [c3.d_at(k), f2.block_at(k - 1), h1.block_at(k - 2)],
                [None, c2.d_at(k - 1), f1.block_at(k - 2)],
                [None, None, c1.d_at(k - 2)],
            ],
            row_dims=[c3.dim_at(k - 1), c2.dim_at(k - 2), c1.dim_at(k - 3)],
            col_dims=[c3.dim_at(k), c2.dim_at(k - 1), c1.dim_at(k - 2)],
        )
    return GradedComplex(dims, d)


def _reference_triangle_detect(f1, f2, h1):
    """triangle_detect as it was before it decided acyclicity from g_* alone:
    the homology of the iterated cone decides, and g_* is then inverted
    under the assertion that an acyclic cone makes it an isomorphism.

    cone(f1), its projection and g are assembled here block by block, not
    taken from the cone code under test, so that one wrong block there
    cannot move both sides; each goes through a checked constructor."""
    big = _reference_iterated_cone(f1, f2, h1)
    c1, c2, c3 = f1.source, f1.target, f2.target
    ks = set(c2.dims) | {k + 1 for k in c1.dims}
    ks |= {k + 1 for k in ks}
    d = {}
    for k in ks:
        d[k] = F2Matrix.block(
            [[c2.d_at(k), f1.block_at(k - 1)], [None, c1.d_at(k - 1)]],
            row_dims=[c2.dim_at(k - 1), c1.dim_at(k - 2)],
            col_dims=[c2.dim_at(k), c1.dim_at(k - 1)],
        )
    cone1 = GradedComplex({k: c2.dim_at(k) + c1.dim_at(k - 1) for k in ks}, d)
    proj_blocks, g_blocks = {}, {}
    for k in cone1.dims:
        n1, n2 = c1.dim_at(k - 1), c2.dim_at(k)
        proj_blocks[k] = F2Matrix.hstack([F2Matrix.zero(n1, n2), F2Matrix.identity(n1)])
        g_blocks[k] = F2Matrix.hstack([f2.block_at(k), h1.block_at(k - 1)])
    proj = ChainMap(cone1, c1, proj_blocks, degree=-1)
    g = ChainMap(cone1, c3, g_blocks, degree=0)

    h_big = homology(big)
    if h_big.dims:
        return NotAcyclic(homology_dims=h_big.dims)

    hc1, hc2, hc3 = _HomologyIndex(c1), _HomologyIndex(c2), _HomologyIndex(c3)
    hcone = _HomologyIndex(cone1)
    delta = induced_map(g, hcone, hc3)
    inv_blocks = {}
    for k in sorted(set(hc3.dims()) | set(hcone.dims())):
        try:
            inv_blocks[k] = delta.block_at(k).inverse()
        except ContractError:
            raise AssertionError(
                "comparison map is not an isomorphism despite an acyclic cone"
            ) from None
    delta_inv = GradedMap(hc3.dims(), hcone.dims(), 0, inv_blocks)

    proj_star = induced_map(proj, hcone, hc1)
    f3_blocks = {}
    for k in hc3.dims():
        f3_blocks[k] = proj_star.block_at(k).mul(delta_inv.block_at(k))
    f3 = GradedMap(hc3.dims(), hc1.dims(), -1, f3_blocks)
    return Triangle(
        f1_star=induced_map(f1, hc1, hc2),
        f2_star=induced_map(f2, hc2, hc3),
        f3=f3,
        h_dims=(hc1.dims(), hc2.dims(), hc3.dims()),
    )


def _assert_triangle_matches_reference(f1, f2, h1):
    assert iterated_mapping_cone(f1, f2, h1) == _reference_iterated_cone(f1, f2, h1)
    got, want = triangle_detect(f1, f2, h1), _reference_triangle_detect(f1, f2, h1)
    assert type(got) is type(want)
    if isinstance(want, NotAcyclic):
        assert got.homology_dims == want.homology_dims
        return got
    assert got.h_dims == want.h_dims
    for name in ("f1_star", "f2_star", "f3"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.src, a.tgt, a.degree, a.blocks) == (b.src, b.tgt, b.degree, b.blocks), name
    return got


@given(st.integers(0, 10_000), st.sampled_from(["formula", "cone"]))
@settings(max_examples=60, deadline=None)
def test_triangle_detect_matches_reference(seed, method):
    rng = random.Random(seed)
    _assert_triangle_matches_reference(
        *random_admissible_triple(rng, (0, 1, 2, 3), method=method)
    )


def test_bench_seed_one_triangles_match_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs, _expected, _props = importlib.import_module("gen").make_homalg_inputs(1)
    docs = [item["doc"] for item in inputs if item["kind"] != "ss"]
    assert len(docs) == 50
    verdicts = {
        type(_assert_triangle_matches_reference(*triangle_bundle_from_json(doc)))
        for doc in docs
    }
    assert verdicts == {NotAcyclic, Triangle}


def _bench_seed_one_bundles(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs, _expected, _props = importlib.import_module("gen").make_homalg_inputs(1)
    return [triangle_bundle_from_json(item["doc"]) for item in inputs if item["kind"] != "ss"]


def test_triangle_detect_proves_each_identity_once(monkeypatch):
    # f1 and f2 were checked when they were read, and the homotopy identity
    # makes g a chain map: no ChainMap is built again, and dH + Hd runs only
    # for the identity, once per degree it visits
    bundles = _bench_seed_one_bundles(monkeypatch)
    calls = {"ChainMap": 0, "_dh": 0}
    init, dh = ChainMap.__init__, complexes._dh

    def counting_init(self, *args, **kwargs):
        calls["ChainMap"] += 1
        init(self, *args, **kwargs)

    def counting_dh(h, k):
        calls["_dh"] += 1
        return dh(h, k)

    monkeypatch.setattr(ChainMap, "__init__", counting_init)
    monkeypatch.setattr(complexes, "_dh", counting_dh)
    for bundle in bundles:
        triangle_detect(*bundle)
    visited = sum(len(set(f1.source.dims) | {k + 1 for k in f1.source.dims}) for f1, _, _ in bundles)
    assert calls == {"ChainMap": 0, "_dh": visited}


def test_triangle_detect_needs_chain_maps():
    f1, f2, h1 = random_admissible_triple(random.Random(5), (0, 1, 2), method="formula")
    unchecked = Homotopy(f2.source, f2.target, f2.blocks, degree=0)
    with pytest.raises(ContractError, match="needs degree-0 chain maps"):
        triangle_detect(f1, unchecked, h1)


def test_induced_map_rejects_a_cycle_sent_to_a_non_cycle():
    ident = F2Matrix.identity(1)
    dot, interval = GradedComplex({1: 1}, {}), GradedComplex({0: 1, 1: 1}, {1: ident})
    with pytest.raises(ValueError, match="sent a cycle to a non-cycle at degree 1"):
        induced_map(Homotopy(dot, interval, {1: ident}, degree=0))


def test_induced_map_of_identity():
    rng = random.Random(31)
    c = random_complex(rng, (0, 1, 2))
    ident = ChainMap(c, c, {k: F2Matrix.identity(n) for k, n in c.dims.items()})
    g = induced_map(ident)
    for k, n in homology(c).dims.items():
        assert g.block_at(k) == F2Matrix.identity(n)


# -- spectral sequences -----------------------------------------------------------


def test_filtered_pages_start_at_associated_graded():
    rng = random.Random(4)
    fc = random_filtered_complex(rng, (0, 1, 2))
    pages = filtered_pages(fc)
    e0 = pages.pages[0]
    for k, n in fc.complex.dims.items():
        assert sum(m for (p, kk), m in e0.items() if kk == k) == n


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_einf_sums_to_homology(seed):
    rng = random.Random(seed)
    fc = random_filtered_complex(rng, (0, 1, 2, 3))
    pages = filtered_pages(fc)
    hdims = homology(fc.complex).dims
    for k in set(list(hdims) + [kk for (_, kk) in pages.einf]):
        got = sum(n for (p, kk), n in pages.einf.items() if kk == k)
        assert got == hdims.get(k, 0)


def test_toy_model_collapses_at_page_four():
    pages = filtered_pages(mainiso_toy_model())
    assert pages.pages[2]  # E^2 still carries classes
    assert pages.pages[2] == pages.pages[3]
    assert not pages.pages[4]  # ...and they die exactly here
    assert not pages.einf


def test_toy_model_grouped_collapses_immediately():
    pages = filtered_pages(mainiso_toy_model(grouped=True))
    assert not pages.pages[1]
    assert not pages.einf


def _reference_filtered_pages(fc, r_max=None):
    """The page computation ``filtered_pages`` replaced, kept as an oracle.

    Builds every Z^r(p, k) = {x in F_p C_k : dx in F_{p-r} C_{k-1}} as a
    kernel basis and takes E^r = Z^r / (Z^{r-1}(p-1) + d Z^{r-1}(p+r-1))
    with echelon spans.
    """
    c = fc.complex
    lo_p, hi_p = fc.level_range()
    span = hi_p - lo_p
    stable_r = span + 1
    r_top = max(stable_r + 1, r_max if r_max is not None else 0)

    def fmask(p, k):
        out = 0
        for i, x in enumerate(fc.levels.get(k, ())):
            if x <= p:
                out |= 1 << i
        return out

    z_cache = {}

    def z_basis(r, p, k):
        key = (r, p, k)
        if key in z_cache:
            return z_cache[key]
        n = c.dim_at(k)
        allow = fmask(p, k)
        allowed_cols = [j for j in range(n) if (allow >> j) & 1]
        bad_rows = [i for i, x in enumerate(fc.levels.get(k - 1, ())) if x > p - r]
        if r <= 0 or not allowed_cols or not bad_rows:
            out = [1 << j for j in allowed_cols]
        else:
            d = c.d_at(k)
            sub_rows = []
            for i in bad_rows:
                sub_rows.append(
                    sum(1 << jj for jj, j in enumerate(allowed_cols) if (d.bits[i] >> j) & 1)
                )
            sub = F2Matrix(len(bad_rows), len(allowed_cols), sub_rows)
            out = []
            for kmask in sub.kernel_masks():
                out.append(
                    sum(1 << j for jj, j in enumerate(allowed_cols) if (kmask >> jj) & 1)
                )
        z_cache[key] = out
        return out

    def span_dim(vectors):
        pivots = {}
        for v in vectors:
            while v:
                p = v.bit_length() - 1
                if p not in pivots:
                    pivots[p] = v
                    break
                v ^= pivots[p]
        return len(pivots)

    pages = []
    for r in range(r_top + 1):
        page = {}
        for k in c.degrees():
            for p in range(lo_p, hi_p + 1):
                if r == 0:
                    dim = sum(1 for x in fc.levels.get(k, ()) if x == p)
                else:
                    num = z_basis(r, p, k)
                    den = list(z_basis(r - 1, p - 1, k))
                    dk1 = c.d_at(k + 1)
                    for x in z_basis(r - 1, p + r - 1, k + 1):
                        den.append(dk1.apply(x))
                    dim = span_dim(num) - span_dim(den)
                if dim:
                    page[(p, k)] = dim
        pages.append(page)
    assert pages[stable_r] == pages[stable_r + 1]
    keep = r_max if r_max is not None else stable_r
    return pages[: keep + 1], pages[stable_r], stable_r


def _assert_pages_match_reference(fc, r_max=None):
    got = filtered_pages(fc, r_max=r_max)
    pages, einf, stable_r = _reference_filtered_pages(fc, r_max=r_max)
    assert list(got.pages) == pages
    assert got.einf == einf
    assert got.stable_r == stable_r


def _shuffled(fc, rng):
    """The same filtered complex with each degree's basis in random order.

    ``random_filtered_complex`` lists every degree's basis by level; the
    shuffle makes the index order disagree with the level order.
    """
    c = fc.complex
    perm = {k: rng.sample(range(n), n) for k, n in c.dims.items()}
    d = {}
    for k, m in c.d.items():
        rows = []
        for i in perm[k - 1]:
            rows.append(sum(1 << u for u, j in enumerate(perm[k]) if (m.bits[i] >> j) & 1))
        d[k] = F2Matrix(m.rows, m.cols, rows)
    levels = {k: tuple(fc.levels[k][i] for i in p) for k, p in perm.items()}
    return FilteredComplex(GradedComplex(c.dims, d), levels)


@given(
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(-2, 2),
    n_degrees=st.integers(1, 5),
    n_levels=st.integers(1, 5),
    max_dots=st.integers(0, 3),
    max_intervals=st.integers(0, 3),
    shuffle=st.booleans(),
    r_choice=st.sampled_from([None, 0, 1, "span+3"]),
)
@settings(max_examples=300, deadline=None)
def test_pages_match_reference(
    seed, first, n_degrees, n_levels, max_dots, max_intervals, shuffle, r_choice
):
    rng = random.Random(seed)
    fc = random_filtered_complex(rng, range(first, first + n_degrees), n_levels, max_dots, max_intervals)
    if shuffle:
        fc = _shuffled(fc, rng)
    lo, hi = fc.level_range()
    _assert_pages_match_reference(fc, hi - lo + 3 if r_choice == "span+3" else r_choice)


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("r_max", [None, 0, 1, 9])
def test_toy_model_pages_match_reference(grouped, r_max):
    _assert_pages_match_reference(mainiso_toy_model(grouped=grouped), r_max)


def test_bench_seed_one_pages_match_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs, _expected, _props = importlib.import_module("gen").make_homalg_inputs(1)
    docs = [item["doc"] for item in inputs if item["kind"] == "ss"]
    assert len(docs) == 50
    for doc in docs:
        _assert_pages_match_reference(filtered_from_json(doc))


@pytest.mark.parametrize("r_max", [-1, -3])
def test_negative_r_max_is_rejected(r_max):
    with pytest.raises(ContractError, match=f"r_max must be >= 0, got {r_max}"):
        filtered_pages(mainiso_toy_model(), r_max=r_max)


def test_einf_is_checked_against_gf2_ranks(monkeypatch):
    # the toy model is acyclic; claiming every differential has rank 0 makes
    # its homology nonzero, so the E^inf check must fire
    monkeypatch.setattr(F2Matrix, "rank", lambda self: 0)
    with pytest.raises(AssertionError, match="E\\^inf in degree 0 has total dimension 0"):
        filtered_pages(mainiso_toy_model())


# -- assembly ---------------------------------------------------------------------


def _zero_assembly_args(o, s, u):
    return dict(
        o_dims=o, s_dims=s, u_dims=u,
        d_oo={}, d_os={}, d_uo={}, d_us={},
        dbar_ss={}, dbar_su={}, dbar_us={}, dbar_uu={},
    )


def test_assembly_totals():
    to, from_, bar = assemble_monopole_complexes(
        **_zero_assembly_args({0: 1, 1: 1}, {0: 1}, {0: 1})
    )
    assert to.total_dim() == 3
    assert from_.total_dim() == 3
    assert bar.total_dim() == 2


def test_assembly_rejects_non_complex():
    args = _zero_assembly_args({0: 1, 1: 1, 2: 1}, {}, {})
    args["d_oo"] = {1: F2Matrix.identity(1), 2: F2Matrix.identity(1)}
    with pytest.raises(AssemblyError):
        assemble_monopole_complexes(**args)


# -- serialization ------------------------------------------------------------------


def test_complex_json_roundtrip():
    rng = random.Random(8)
    c = random_complex(rng, (0, 1, 2))
    assert complex_from_json(complex_to_json(c)) == c


def test_chain_map_json_roundtrip():
    rng = random.Random(21)
    c1 = random_complex(rng, (0, 1, 2))
    c2 = random_complex(rng, (0, 1, 2))
    f = random_chain_map(rng, c1, c2)
    f2 = chain_map_from_json(chain_map_to_json(f), c1, c2)
    assert f2.blocks == f.blocks


def test_triangle_bundle_json_roundtrip():
    rng = random.Random(33)
    f1, f2, h1 = random_admissible_triple(rng, (0, 1, 2))
    g1, g2, k1 = triangle_bundle_from_json(triangle_bundle_to_json(f1, f2, h1))
    assert g1.blocks == f1.blocks
    assert g2.blocks == f2.blocks
    assert k1.blocks == h1.blocks


def test_filtered_json_roundtrip():
    rng = random.Random(44)
    fc = random_filtered_complex(rng, (0, 1, 2))
    back = filtered_from_json(filtered_to_json(fc))
    assert back.complex == fc.complex
    assert back.levels == fc.levels



def test_bundle_reader_names_the_path_of_a_wrong_container():
    doc = triangle_bundle_to_json(*random_admissible_triple(random.Random(4), (0, 1, 2, 3)))
    k = next(iter(doc["f1"]["blocks"]))
    doc["f1"]["blocks"][k] = {"0": [1]}
    with pytest.raises(ValueError, match=rf"^f1\.blocks\.{k} must be a JSON array, got dict$"):
        triangle_bundle_from_json(doc)
    doc = triangle_bundle_to_json(*random_admissible_triple(random.Random(4), (0, 1, 2, 3)))
    doc["h1"]["blocks"] = []
    with pytest.raises(ValueError, match=r"^h1\.blocks must be a JSON object, got list$"):
        triangle_bundle_from_json(doc)


# -- generators ---------------------------------------------------------------------

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "case, seed, method",
    [
        ("acyclic_seed4", 4, "cone"),
        ("acyclic_seed18", 18, "cone"),
        ("cyclic_seed8", 8, "formula"),
        ("cyclic_seed10", 10, "formula"),
    ],
)
def test_random_triple_reproduces_golden_bundle(case, seed, method):
    triple = random_admissible_triple(random.Random(seed), (0, 1, 2, 3), method=method)
    golden = json.loads((DATA / "cli_golden" / "homalg" / f"{case}.bundle.json").read_text())
    assert triangle_bundle_to_json(*triple) == golden


@pytest.mark.parametrize(
    "seed, degrees, num_levels",
    [
        (0, (0, 1, 2), 3),
        (1, (0, 1, 2, 3), 4),
        (2, (-1, 0, 1, 2, 3), 5),
        (3, (0, 1), 2),
        (4, (1, 2, 3, 4), 5),
    ],
)
def test_random_filtered_complex_reproduces_golden_input(seed, degrees, num_levels):
    fc = random_filtered_complex(
        random.Random(seed), degrees, num_levels, max_dots=3, max_intervals=3
    )
    golden = json.loads((DATA / "homalg_ss" / f"random_{seed}.json").read_text())
    assert filtered_to_json(fc) == golden
