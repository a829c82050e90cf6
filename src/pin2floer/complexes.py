"""Finite chain complexes over F2: cones, triangles, filtrations.

Everything is homologically graded with differentials of degree -1 and
integer degrees. The pieces:

* ``GradedComplex`` -- a validated container (dimensions >= 0 and d^2 = 0
  are checked at construction).
* ``GradedMap`` -- the one block store for degree-homogeneous maps: source
  and target dimensions, degree, blocks indexed by source degree, shape
  checks naming the degree, zero-block dropping and ``block_at``.
  ``Homotopy`` adds the source and target complexes; ``ChainMap`` is a
  homotopy whose dF + Fd vanishes, checked at construction.
* ``mapping_cone`` and ``iterated_mapping_cone`` -- the one- and two-step
  cones, built by ``_cone``, whose d^2 check proves the coned map a chain
  map. The latter is the cone of g = (f2, H1): cone(f1) -> C3; f2's own check
  and that of d3 H1 + H1 d1 = f2 f1 prove g a chain map, so the triangle
  path keeps g and the cone projection as unchecked ``Homotopy`` objects.
* ``triangle_detect`` -- decides whether the iterated cone is acyclic from
  g_* alone (the long exact sequence of cone(g) gives its homology) and,
  when it is, emits the induced exact triangle on homology, including the
  degree -1 connecting map obtained by inverting the iso g_*.
* ``check_exact_triangle`` -- rank-level exactness audit of a triangle of
  graded maps, reusable for any graded vector spaces.
* ``assemble_monopole_complexes`` -- builds the three flavors of monopole
  complex from the eight block maps and validates d^2 = 0.
* ``FilteredComplex`` / ``filtered_pages`` -- exact spectral-sequence pages
  of a filtered complex from one persistence reduction per degree, with
  E^inf checked against the homology, plus the six-column toy model whose
  pages collapse at E^4 under invertible diagonal blocks.
* ``random_complex``, ``random_admissible_triple`` and
  ``random_filtered_complex`` -- seeded generators of valid inputs, built
  from dots and two-term intervals in a scrambled basis.
* JSON readers and writers for complexes, chain maps, triangle bundles and
  filtered complexes. The readers check each container's type and each matrix
  row, and name the path (say ``f1.blocks.0``) when one is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .gf2 import ContractError, F2Matrix, _unpack

__all__ = [
    "AssemblyError",
    "ChainMap",
    "ExactnessReport",
    "FilteredComplex",
    "GradedComplex",
    "GradedMap",
    "Homology",
    "Homotopy",
    "NotAcyclic",
    "SpectralPages",
    "Triangle",
    "assemble_monopole_complexes",
    "chain_map_from_json",
    "chain_map_to_json",
    "check_exact_triangle",
    "complex_from_json",
    "complex_to_json",
    "filtered_from_json",
    "filtered_pages",
    "filtered_to_json",
    "homology",
    "induced_map",
    "iterated_mapping_cone",
    "mainiso_toy_model",
    "mapping_cone",
    "random_admissible_triple",
    "random_chain_map",
    "random_complex",
    "random_filtered_complex",
    "triangle_bundle_from_json",
    "triangle_bundle_to_json",
    "triangle_detect",
]


# ---------------------------------------------------------------------------
# Complexes and maps
# ---------------------------------------------------------------------------


class GradedComplex:
    """A finite chain complex of F2 spaces, differential of degree -1."""

    __slots__ = ("dims", "d")

    def __init__(self, dims: Mapping[int, int], d: Mapping[int, F2Matrix]):
        clean_dims = {}
        for k, n in dims.items():
            k, n = int(k), int(n)
            if n < 0:
                raise ContractError(f"dimension at degree {k} is {n}, must be >= 0")
            if n:
                clean_dims[k] = n
        clean_d: dict[int, F2Matrix] = {}
        for k, m in d.items():
            k = int(k)
            want = (clean_dims.get(k - 1, 0), clean_dims.get(k, 0))
            if m.shape != want:
                raise ContractError(
                    f"differential at degree {k} has shape {m.shape}, expected {want}"
                )
            if m.rows and m.cols and not m.is_zero():
                clean_d[k] = m
        object.__setattr__(self, "dims", clean_dims)
        object.__setattr__(self, "d", clean_d)
        for k in sorted(set(clean_d) | {k + 1 for k in clean_d}):
            if not self.d_at(k - 1).mul(self.d_at(k)).is_zero():
                raise ValueError(f"d^2 != 0 at degree {k}")

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("GradedComplex is immutable")

    def dim_at(self, k: int) -> int:
        return self.dims.get(k, 0)

    def d_at(self, k: int) -> F2Matrix:
        m = self.d.get(k)
        if m is None:
            return F2Matrix.zero(self.dim_at(k - 1), self.dim_at(k))
        return m

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def window(self) -> tuple[int, int]:
        if not self.dims:
            return (0, -1)
        return (min(self.dims), max(self.dims))

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedComplex):
            return NotImplemented
        if self.dims != other.dims:
            return False
        keys = set(self.d) | set(other.d)
        return all(self.d_at(k) == other.d_at(k) for k in keys)

    def __hash__(self):  # pragma: no cover
        return hash((tuple(sorted(self.dims.items())),))

    def __repr__(self) -> str:  # pragma: no cover
        return f"GradedComplex(dims={dict(sorted(self.dims.items()))})"


class GradedMap:
    """A degree-homogeneous linear map between graded F2 spaces.

    ``src`` and ``tgt`` are degree -> dimension mappings with int degrees;
    blocks are indexed by source degree and all-zero blocks are dropped.
    """

    __slots__ = ("src", "tgt", "degree", "blocks")
    _noun = "graded-map"

    def __init__(self, src: Mapping, tgt: Mapping, degree, blocks: Mapping):
        src = {k: int(n) for k, n in src.items() if int(n) > 0}
        tgt = {k: int(n) for k, n in tgt.items() if int(n) > 0}
        self._store(src, tgt, degree, blocks.items())

    def _store(self, src: dict, tgt: dict, degree, items: Iterable) -> None:
        clean = {}
        for k, m in items:
            want = (tgt.get(k + degree, 0), src.get(k, 0))
            if m.shape != want:
                raise ContractError(
                    f"{self._noun} block at degree {k} has shape {m.shape}, expected {want}"
                )
            if m.rows and m.cols and not m.is_zero():
                clean[k] = m
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "blocks", clean)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def block_at(self, k) -> F2Matrix:
        m = self.blocks.get(k)
        if m is None:
            return F2Matrix.zero(self.tgt.get(k + self.degree, 0), self.src.get(k, 0))
        return m


class Homotopy(GradedMap):
    """Degree +d block collection between complexes, with no identity of its own."""

    __slots__ = ("source", "target")
    _noun = "homotopy"

    def __init__(
        self,
        source: GradedComplex,
        target: GradedComplex,
        blocks: Mapping[int, F2Matrix],
        degree: int = 1,
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        self._store(
            source.dims, target.dims, int(degree), ((int(k), m) for k, m in blocks.items())
        )


def _dh(h: Homotopy, k: int) -> F2Matrix:
    """The block d_tgt*H_k + H_{k-1}*d_src of dH + Hd at source degree k."""
    return h.target.d_at(k + h.degree).mul(h.block_at(k)) + h.block_at(k - 1).mul(
        h.source.d_at(k)
    )


class ChainMap(Homotopy):
    """A chain map between complexes (dF + Fd = 0); blocks indexed by source degree."""

    __slots__ = ()
    _noun = "map"

    def __init__(
        self,
        source: GradedComplex,
        target: GradedComplex,
        blocks: Mapping[int, F2Matrix],
        degree: int = 0,
    ):
        super().__init__(source, target, blocks, degree)
        ks = set(source.dims) | set(self.blocks)
        for k in sorted(ks | {k + 1 for k in ks}):
            if not _dh(self, k).is_zero():
                raise ValueError(f"chain-map identity fails at degree {k}")


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Homology:
    dims: dict[int, int]
    representatives: dict[int, list[tuple[int, ...]]]


class _Echelon:
    """Row echelon over masks with coefficient tracking for quotient coords."""

    def __init__(self):
        self.rows: list[tuple[int, int, int]] = []  # (pivot, vector, coeffs)

    def reduce(self, v: int) -> tuple[int, int]:
        coeffs = 0
        for p, vec, cf in self.rows:
            if (v >> p) & 1:
                v ^= vec
                coeffs ^= cf
        return v, coeffs

    def insert(self, v: int, coeffs: int = 0) -> bool:
        v, c = self.reduce(v)
        if not v:
            return False
        p = (v & -v).bit_length() - 1
        self.rows.append((p, v, c ^ coeffs))
        return True

    def dim(self) -> int:
        return len(self.rows)


class _DegreeHomology:
    """Cycle/boundary bookkeeping for one degree of one complex."""

    def __init__(self, d_out: F2Matrix, d_in: F2Matrix):
        self.n = d_out.cols
        ech = _Echelon()
        for col in d_in.transpose().bits:  # columns of d_in span the boundaries
            ech.insert(col)
        self.boundary_dim = ech.dim()
        self.reps: list[int] = []
        for v in d_out.kernel_masks():
            if ech.insert(v, coeffs=1 << len(self.reps)):
                self.reps.append(v)
        self.ech = ech

    @property
    def dim(self) -> int:
        return len(self.reps)

    def class_of(self, v: int) -> Optional[int]:
        """Homology coordinates of a cycle v, or None if v is not a cycle here."""
        residue, coeffs = self.ech.reduce(v)
        if residue:
            return None
        return coeffs


class _HomologyIndex:
    def __init__(self, c: GradedComplex):
        self.complex = c
        self.at: dict[int, _DegreeHomology] = {}
        for k in c.degrees():
            self.at[k] = _DegreeHomology(c.d_at(k), c.d_at(k + 1))

    def dim_at(self, k: int) -> int:
        h = self.at.get(k)
        return h.dim if h else 0

    def dims(self) -> dict[int, int]:
        return {k: h.dim for k, h in self.at.items() if h.dim}


def homology(c: GradedComplex) -> Homology:
    """Homology dimensions and representative cycles, degree by degree.

    dim H_k = dim ker d_k - rank d_{k+1}; representatives extend an echelon
    basis of the boundaries and are deterministic.
    """
    idx = _HomologyIndex(c)
    dims = idx.dims()
    reps: dict[int, list[tuple[int, ...]]] = {}
    for k, h in idx.at.items():
        if h.dim:
            reps[k] = [_unpack(v, h.n) for v in h.reps]
    return Homology(dims=dims, representatives=reps)


# ---------------------------------------------------------------------------
# Exactness checking and induced maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactnessReport:
    ok: bool
    failures: tuple[tuple[str, object, str], ...]


def check_exact_triangle(
    u: GradedMap,
    v: GradedMap,
    w: GradedMap,
    degrees: Optional[Iterable] = None,
) -> ExactnessReport:
    """Audit exactness of A --u--> B --v--> C --w--> A at every vertex.

    At each vertex and degree this checks both containment (the incoming
    image lies in the outgoing kernel, i.e. the composite vanishes) and the
    rank identity rank(in) + rank(out) = dim(vertex degree). When
    ``degrees`` is given, only those vertex degrees are audited (data that
    repeats with a period, like two-sided towers, needs one period only).
    """
    failures: list[tuple[str, object, str]] = []
    triples = (("B", u, v), ("C", v, w), ("A", w, u))
    for name, inc, out in triples:
        if degrees is None:
            ks = set(inc.tgt) | {k + inc.degree for k in inc.src} | set(out.src)
        else:
            ks = set(degrees)
        for k in sorted(ks):
            dim_here = inc.tgt.get(k, 0)
            rk_in = inc.block_at(k - inc.degree).rank()
            rk_out = out.block_at(k).rank()
            comp = out.block_at(k).mul(inc.block_at(k - inc.degree))
            if not comp.is_zero():
                failures.append((name, k, "composite of consecutive maps is nonzero"))
            if rk_in + rk_out != dim_here:
                failures.append(
                    (name, k, f"rank(in)={rk_in} + rank(out)={rk_out} != dim={dim_here}")
                )
    return ExactnessReport(ok=not failures, failures=tuple(failures))


def induced_map(
    f: Homotopy,
    source_index: Optional[_HomologyIndex] = None,
    target_index: Optional[_HomologyIndex] = None,
) -> GradedMap:
    """The map induced on homology, as a GradedMap, by a block map between
    complexes that is a chain map; a cycle sent to a non-cycle raises ValueError."""
    hs = source_index or _HomologyIndex(f.source)
    ht = target_index or _HomologyIndex(f.target)
    blocks = {}
    for k, h in hs.at.items():
        tgt_h = ht.at.get(k + f.degree)
        if not h.dim or tgt_h is None:  # a block into a zero space has no rows
            continue
        cols = []
        for rep in h.reps:
            cls = tgt_h.class_of(f.block_at(k).apply(rep))
            if cls is None:
                raise ValueError(f"chain map sent a cycle to a non-cycle at degree {k}")
            cols.append(cls)
        rows = [0] * tgt_h.dim
        for j, cmask in enumerate(cols):
            for i in range(tgt_h.dim):
                if (cmask >> i) & 1:
                    rows[i] |= 1 << j
        blocks[k] = F2Matrix(tgt_h.dim, h.dim, rows)
    return GradedMap(hs.dims(), ht.dims(), f.degree, blocks)


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------


def _cone(f: Homotopy) -> tuple[GradedComplex, Homotopy]:
    """``mapping_cone`` of a degree-0 block map, with its projection unchecked:
    the projection commutes with the differentials by construction."""
    if f.degree != 0:
        raise ContractError(f"mapping_cone needs a degree-0 map, got degree {f.degree}")
    c1, c2 = f.source, f.target
    ks = set(c1.dims) | {k + 1 for k in c1.dims} | set(c2.dims)
    dims = {k: c2.dim_at(k) + c1.dim_at(k - 1) for k in ks}
    d = {}
    for k in ks:
        d[k] = F2Matrix.block(
            [
                [c2.d_at(k), f.block_at(k - 1)],
                [None, c1.d_at(k - 1)],
            ],
            row_dims=[c2.dim_at(k - 1), c1.dim_at(k - 2)],
            col_dims=[c2.dim_at(k), c1.dim_at(k - 1)],
        )
    cone = GradedComplex(dims, d)
    proj = Homotopy(
        cone,
        c1,
        {
            k: F2Matrix.hstack(
                [F2Matrix.zero(c1.dim_at(k - 1), c2.dim_at(k)), F2Matrix.identity(c1.dim_at(k - 1))]
            )
            for k in ks
            if c1.dim_at(k - 1)
        },
        degree=-1,
    )
    return cone, proj


def mapping_cone(f: ChainMap) -> tuple[GradedComplex, ChainMap, ChainMap]:
    """Cone of a degree-0 chain map f: C1 -> C2.

    Returns (cone, inclusion of C2, projection to C1). The C1 summand sits
    with a +1 homological shift: cone_k = C2_k + C1_{k-1}, differential
    [[d2, f], [0, d1]]; the projection has degree -1. The short exact
    sequence 0 -> C2 -> cone -> C1[1] -> 0 holds on the nose.
    """
    cone, proj = _cone(f)
    c1, c2 = f.source, f.target
    incl = ChainMap(
        c2,
        cone,
        {
            k: F2Matrix.vstack(
                [F2Matrix.identity(c2.dim_at(k)), F2Matrix.zero(c1.dim_at(k - 1), c2.dim_at(k))]
            )
            for k in c2.dims
        },
        degree=0,
    )
    return cone, incl, ChainMap(cone, c1, proj.blocks, degree=-1)


def _check_homotopy_identity(f1: ChainMap, f2: ChainMap, h1: Homotopy) -> None:
    if f1.degree or f2.degree or not (isinstance(f1, ChainMap) and isinstance(f2, ChainMap)):
        raise ContractError("iterated cone data needs degree-0 chain maps")
    if h1.degree != 1:
        raise ContractError(f"the connecting homotopy must have degree +1, got {h1.degree}")
    if f1.target is not f2.source and f1.target != f2.source:
        raise ContractError("f2 must start where f1 ends")
    c1, c3 = f1.source, f2.target
    if h1.source != c1 or h1.target != c3:
        raise ContractError("homotopy must run from the first complex to the third")
    for k in sorted(set(c1.dims) | {k + 1 for k in c1.dims}):
        if _dh(h1, k) != f2.block_at(k).mul(f1.block_at(k)):
            raise ValueError(
                f"homotopy identity d3*H1 + H1*d1 = f2*f1 fails at degree {k}"
            )


def _comparison_map(f1: ChainMap, f2: ChainMap, h1: Homotopy) -> tuple[Homotopy, Homotopy]:
    """The projection cone(f1) -> C1 and the comparison map g = (f2, H1): cone(f1) -> C3.

    The projection is a chain map by construction, and g is one exactly when
    d3*H1 + H1*d1 = f2*f1; that identity is checked here, so neither map is.
    """
    _check_homotopy_identity(f1, f2, h1)
    cone1, proj = _cone(f1)
    g_blocks = {k: F2Matrix.hstack([f2.block_at(k), h1.block_at(k - 1)]) for k in cone1.dims}
    return proj, Homotopy(cone1, f2.target, g_blocks, degree=0)


def iterated_mapping_cone(f1: ChainMap, f2: ChainMap, h1: Homotopy) -> GradedComplex:
    """The two-step cone of (f1, f2, H1) with its upper-triangular differential.

    Degree k carries C3_k + C2_{k-1} + C1_{k-2} with differential
    [[d3, f2, H1], [0, d2, f1], [0, 0, d1]]: the cone of the comparison map
    g = (f2, H1): cone(f1) -> C3.
    """
    return _cone(_comparison_map(f1, f2, h1)[1])[0]


@dataclass(frozen=True)
class NotAcyclic:
    """Iterated cone had homology; its nonzero dimensions are reported."""

    homology_dims: dict[int, int]


@dataclass(frozen=True)
class Triangle:
    """The exact triangle on homology emitted by triangle_detect."""

    f1_star: GradedMap
    f2_star: GradedMap
    f3: GradedMap  # degree -1 connecting map
    h_dims: tuple[dict[int, int], dict[int, int], dict[int, int]]


def triangle_detect(f1: ChainMap, f2: ChainMap, h1: Homotopy):
    """Decide acyclicity of the iterated cone and emit the exact triangle.

    The iterated cone is the cone of g = (f2, H1): cone(f1) -> C3, so its
    long exact sequence gives dim H_k = (dim H_k(C3) - rank delta_k) +
    (dim H_{k-1}(cone f1) - rank delta_{k-1}) with delta = g_*. Any nonzero
    dimension comes back as a NotAcyclic report. Otherwise delta is an
    isomorphism, the connecting map is F3 = (projection)_* delta^{-1}, and
    the triangle ((f1)_*, (f2)_*, F3) is exact. The homotopy identity is
    checked before anything else is done.
    """
    proj, g = _comparison_map(f1, f2, h1)
    hcone, hc3 = _HomologyIndex(g.source), _HomologyIndex(g.target)
    delta = induced_map(g, hcone, hc3)
    ranks = {k: m.rank() for k, m in delta.blocks.items()}
    cone_dims = {}
    for k in sorted(set(hc3.dims()) | {k + 1 for k in hcone.dims()}):
        n = hc3.dim_at(k) - ranks.get(k, 0) + hcone.dim_at(k - 1) - ranks.get(k - 1, 0)
        if n:
            cone_dims[k] = n
    if cone_dims:
        return NotAcyclic(homology_dims=cone_dims)

    hc1, hc2 = _HomologyIndex(f1.source), _HomologyIndex(f1.target)
    proj_star = induced_map(proj, hcone, hc1)
    f3_blocks = {k: proj_star.block_at(k).mul(delta.block_at(k).inverse()) for k in hc3.dims()}
    return Triangle(
        f1_star=induced_map(f1, hc1, hc2),
        f2_star=induced_map(f2, hc2, hc3),
        f3=GradedMap(hc3.dims(), hc1.dims(), -1, f3_blocks),
        h_dims=(hc1.dims(), hc2.dims(), hc3.dims()),
    )


# ---------------------------------------------------------------------------
# Monopole-style assembly
# ---------------------------------------------------------------------------


class AssemblyError(ValueError):
    pass


def assemble_monopole_complexes(
    o_dims: Mapping[int, int],
    s_dims: Mapping[int, int],
    u_dims: Mapping[int, int],
    d_oo: Mapping[int, F2Matrix],
    d_os: Mapping[int, F2Matrix],
    d_uo: Mapping[int, F2Matrix],
    d_us: Mapping[int, F2Matrix],
    dbar_ss: Mapping[int, F2Matrix],
    dbar_su: Mapping[int, F2Matrix],
    dbar_us: Mapping[int, F2Matrix],
    dbar_uu: Mapping[int, F2Matrix],
) -> tuple[GradedComplex, GradedComplex, GradedComplex]:
    """Assemble the to/from/bar complexes from the eight block maps.

    Blocks are named source-to-target: d_os maps the o-summand into the
    s-summand, and so on. Degree conventions: the interior blocks and
    dbar_ss, dbar_uu have degree -1, dbar_su has degree 0, dbar_us has
    degree -2; the bar complex shifts its u-summand down by one so that all
    three assembled differentials have degree -1. Each output complex is
    validated (d^2 = 0) and an AssemblyError names the offender otherwise.
    """
    oo = GradedMap(o_dims, o_dims, -1, d_oo)
    os_ = GradedMap(o_dims, s_dims, -1, d_os)
    uo = GradedMap(u_dims, o_dims, -1, d_uo)
    us = GradedMap(u_dims, s_dims, -1, d_us)
    bss = GradedMap(s_dims, s_dims, -1, dbar_ss)
    bsu = GradedMap(s_dims, u_dims, 0, dbar_su)
    bus = GradedMap(u_dims, s_dims, -2, dbar_us)
    buu = GradedMap(u_dims, u_dims, -1, dbar_uu)

    ks = set(o_dims) | set(s_dims) | set(u_dims)
    ks |= {k + 1 for k in ks} | {k - 1 for k in ks}

    def build(name, dims_fn, block_fn) -> GradedComplex:
        dims = {k: dims_fn(k) for k in ks}
        d = {k: block_fn(k) for k in ks}
        try:
            return GradedComplex(dims, d)
        except ValueError as e:
            raise AssemblyError(f"{name} complex is not a complex: {e}") from None

    def check_dims(k):
        return o_dims.get(k, 0) + s_dims.get(k, 0)

    def check_block(k):
        return F2Matrix.block(
            [
                [oo.block_at(k), uo.block_at(k).mul(bsu.block_at(k))],
                [os_.block_at(k), bss.block_at(k) + us.block_at(k).mul(bsu.block_at(k))],
            ],
            row_dims=[o_dims.get(k - 1, 0), s_dims.get(k - 1, 0)],
            col_dims=[o_dims.get(k, 0), s_dims.get(k, 0)],
        )

    def hat_dims(k):
        return o_dims.get(k, 0) + u_dims.get(k, 0)

    def hat_block(k):
        return F2Matrix.block(
            [
                [oo.block_at(k), uo.block_at(k)],
                [bsu.block_at(k - 1).mul(os_.block_at(k)), bsu.block_at(k - 1).mul(us.block_at(k))],
            ],
            row_dims=[o_dims.get(k - 1, 0), u_dims.get(k - 1, 0)],
            col_dims=[o_dims.get(k, 0), u_dims.get(k, 0)],
        )

    def bar_dims(k):
        return s_dims.get(k, 0) + u_dims.get(k + 1, 0)

    def bar_block(k):
        return F2Matrix.block(
            [
                [bss.block_at(k), bus.block_at(k + 1)],
                [bsu.block_at(k), buu.block_at(k + 1)],
            ],
            row_dims=[s_dims.get(k - 1, 0), u_dims.get(k, 0)],
            col_dims=[s_dims.get(k, 0), u_dims.get(k + 1, 0)],
        )

    check = build("to", check_dims, check_block)
    hat = build("from", hat_dims, hat_block)
    bar = build("bar", bar_dims, bar_block)
    return check, hat, bar


# ---------------------------------------------------------------------------
# Filtered complexes and spectral pages
# ---------------------------------------------------------------------------


class FilteredComplex:
    """A complex with an increasing filtration given by a level per basis vector.

    The differential must be filtration-nonincreasing: a nonzero entry from
    basis vector j (degree k) to basis vector i (degree k-1) needs
    level(i) <= level(j).
    """

    __slots__ = ("complex", "levels")

    def __init__(self, complex: GradedComplex, levels: Mapping[int, Sequence[int]]):
        lv: dict[int, tuple[int, ...]] = {}
        for k, n in complex.dims.items():
            seq = levels.get(k)
            if seq is None or len(seq) != n:
                raise ContractError(
                    f"degree {k} has {n} basis vectors but {0 if seq is None else len(seq)} levels"
                )
            lv[k] = tuple([int(x) for x in seq])
        for k, seq in levels.items():
            if complex.dim_at(int(k)) == 0 and len(seq):
                raise ContractError(f"levels given at empty degree {k}")
        for k, m in complex.d.items():
            src_lv = lv[k]
            tgt_lv = lv.get(k - 1, ())
            for i in range(m.rows):
                b = m.bits[i]
                while b:
                    j = (b & -b).bit_length() - 1
                    b &= b - 1
                    if tgt_lv[i] > src_lv[j]:
                        raise ValueError(
                            f"differential raises the filtration at degree {k},"
                            f" entry ({i}, {j})"
                        )
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "levels", lv)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("FilteredComplex is immutable")

    def level_range(self) -> tuple[int, int]:
        vals = [x for seq in self.levels.values() for x in seq]
        if not vals:
            return (0, 0)
        return (min(vals), max(vals))


@dataclass(frozen=True)
class SpectralPages:
    """Pages E^0..E^r of the filtration spectral sequence, plus the limit.

    ``pages[r]`` maps (filtration level p, degree k) to the page dimension;
    zero entries are omitted. ``einf`` is the stable page, reached at
    ``stable_r``; its total in each degree is checked against the homology.
    """

    pages: tuple[dict[tuple[int, int], int], ...]
    einf: dict[tuple[int, int], int]
    stable_r: int


def filtered_pages(fc: FilteredComplex, r_max: Optional[int] = None) -> SpectralPages:
    """Exact spectral-sequence pages of a filtered complex.

    A filtered complex with one level per basis vector is a persistence
    module, so one column reduction per degree yields every page
    (Zomorodian--Carlsson, "Computing persistent homology", DCG 2005;
    Basu--Parida, "Spectral sequences, exact couples and persistent homology
    of filtrations", Expo. Math. 2017). The basis vectors of each degree are
    ordered by (level, index). Each column of d_k, taken in that order, gets
    earlier columns added into it until its pivot -- its highest row in that
    order -- is no earlier column's pivot. These additions never raise a
    level, so they are a filtered change of basis that splits the complex
    into dots (unpaired vectors) and intervals y = dx, which pair the pivot
    row y with its column x. An interval lives on every page E^r with
    r <= gap = level(x) - level(y) and is killed by d^gap, so dim E^r_{p,k}
    counts the degree-k vectors at level p that are unpaired plus the paired
    ones whose gap is >= r.

    Gaps never exceed the filtration span, so the pages are stable from
    ``stable_r = span + 1`` on and E^inf counts the unpaired vectors. As an
    independent check, sum_p E^inf_{p,k} must equal
    dim C_k - rank d_k - rank d_{k+1}, with the ranks from gf2 elimination;
    a mismatch raises ``AssertionError``. ``pages`` holds E^0..E^r_max, or
    E^0..E^stable_r when ``r_max`` is None; a negative ``r_max`` raises
    ``ContractError``.
    """
    if r_max is not None and r_max < 0:
        raise ContractError(f"r_max must be >= 0, got {r_max}")
    c = fc.complex
    lo_p, hi_p = fc.level_range()
    stable_r = hi_p - lo_p + 1
    order = {
        k: sorted(range(len(lvs)), key=lambda i, lvs=lvs: (lvs[i], i))
        for k, lvs in fc.levels.items()
    }
    gaps: dict[int, list[Optional[int]]] = {k: [None] * len(o) for k, o in order.items()}
    for k, d in c.d.items():
        rows = order[k - 1]
        cols = [0] * d.cols  # column j of d_k, bit t set for row rows[t]
        for t, i in enumerate(rows):
            b = d.bits[i]
            while b:
                low = b & -b
                cols[low.bit_length() - 1] |= 1 << t
                b ^= low
        src_lv, tgt_lv = fc.levels[k], fc.levels[k - 1]
        reduced: dict[int, int] = {}
        for j in order[k]:
            v = cols[j]
            while v:
                top = v.bit_length() - 1
                prev = reduced.get(top)
                if prev is None:
                    reduced[top] = v
                    i = rows[top]
                    gaps[k][j] = gaps[k - 1][i] = src_lv[j] - tgt_lv[i]
                    break
                v ^= prev

    keep = r_max if r_max is not None else stable_r
    pages: list[dict[tuple[int, int], int]] = [{} for _ in range(keep + 1)]
    einf: dict[tuple[int, int], int] = {}
    ranks = {k: d.rank() for k, d in c.d.items()}
    for k in c.degrees():
        cells: dict[int, list[Optional[int]]] = {}
        for i in order[k]:
            cells.setdefault(fc.levels[k][i], []).append(gaps[k][i])
        total = 0
        for p, cell in cells.items():
            unpaired = cell.count(None)
            total += unpaired
            if unpaired:
                einf[(p, k)] = unpaired
            for r, page in enumerate(pages):
                dim = unpaired + sum(1 for g in cell if g is not None and g >= r)
                if dim:
                    page[(p, k)] = dim
        expect = c.dim_at(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if total != expect:
            raise AssertionError(
                f"E^inf in degree {k} has total dimension {total}, but the homology has {expect}"
            )
    return SpectralPages(pages=tuple(pages), einf=einf, stable_r=stable_r)


def mainiso_toy_model(grouped: bool = False) -> FilteredComplex:
    """Six-column filtered model of the two-cone comparison complex.

    Three primed and three unprimed columns of F^3 with identity comparison
    maps and inner differentials zero; total homology vanishes, yet the page
    at which the sequence collapses depends on the filtration: per-column
    levels 0..5 (the default) keep nonzero E^2 = E^3 and reach zero exactly
    at E^4, while grouping the columns in pairs (``grouped=True``) already
    collapses at E^1.
    """
    e13 = F2Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    e23 = F2Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    i3 = F2Matrix.identity(3)
    z3 = F2Matrix.zero(3, 3)
    d1 = F2Matrix.block([[e13, i3]], row_dims=[3], col_dims=[3, 3])
    d2 = F2Matrix.block([[e23, i3], [z3, e13]], row_dims=[3, 3], col_dims=[3, 3])
    d3 = F2Matrix.block([[i3], [e23]], row_dims=[3, 3], col_dims=[3])
    cx = GradedComplex({0: 3, 1: 6, 2: 6, 3: 3}, {1: d1, 2: d2, 3: d3})
    if grouped:
        levels = {0: (0,) * 3, 1: (1, 1, 1, 0, 0, 0), 2: (2, 2, 2, 1, 1, 1), 3: (2,) * 3}
    else:
        levels = {0: (0,) * 3, 1: (1, 1, 1, 3, 3, 3), 2: (2, 2, 2, 4, 4, 4), 3: (5,) * 3}
    return FilteredComplex(cx, levels)


# ---------------------------------------------------------------------------
# Random generators (test fuel)
# ---------------------------------------------------------------------------


def _random_invertible(rng: random.Random, n: int) -> tuple[F2Matrix, F2Matrix]:
    if n == 0:
        m = F2Matrix.identity(0)
        return m, m
    while True:
        m = F2Matrix(n, n, [rng.getrandbits(n) for _ in range(n)])
        if m.rank() == n:
            return m, m.inverse()


def _random_pieces(
    rng: random.Random, degrees: Sequence[int], max_dots: int, max_intervals: int
) -> tuple[list[int], dict[int, int], dict[int, int], dict[int, int], dict[int, F2Matrix]]:
    """Draw dots and two-term intervals per degree and lay them out in a standard basis.

    Returns (degrees, dots, ints, dims, d) with the degrees sorted. Degree k
    lists the targets of the ints[k+1] intervals from k+1 first, then its
    dots[k] dots, then the sources of its ints[k] intervals; d[k] sends the
    t-th interval source to the t-th coordinate of degree k-1. Only ``dots``
    and ``ints`` draw from ``rng``, in that order.
    """
    degrees = sorted(set(int(k) for k in degrees))
    dots = {k: rng.randint(0, max_dots) for k in degrees}
    ints = {
        k: (rng.randint(0, max_intervals) if k - 1 in degrees else 0) for k in degrees
    }
    dims = {k: ints.get(k + 1, 0) + dots[k] + ints[k] for k in degrees}
    d: dict[int, F2Matrix] = {}
    for k in degrees:
        n, m = dims.get(k - 1, 0), dims[k]
        rows = [0] * n
        for t in range(ints[k]):
            rows[t] |= 1 << (m - ints[k] + t)
        d[k] = F2Matrix(n, m, rows)
    return degrees, dots, ints, dims, d


def random_complex(
    rng: random.Random,
    degrees: Sequence[int],
    max_dots: int = 2,
    max_intervals: int = 2,
) -> GradedComplex:
    """A random complex: dots plus two-term intervals, in a scrambled basis.

    Built as a direct sum of elementary pieces and conjugated degreewise by
    random invertible matrices, so d^2 = 0 holds by construction while the
    matrices look generic.
    """
    degrees, _dots, _ints, dims, d = _random_pieces(rng, degrees, max_dots, max_intervals)
    p = {k: _random_invertible(rng, dims[k]) for k in degrees}
    d_conj = {}
    for k in degrees:
        if k - 1 in dims:
            d_conj[k] = p[k - 1][0].mul(d[k]).mul(p[k][1])
    return GradedComplex({k: n for k, n in dims.items() if n}, d_conj)


def _random_block(rng: random.Random, rows: int, cols: int, density: float = 0.5) -> F2Matrix:
    bits = []
    for _ in range(rows):
        b = 0
        for j in range(cols):
            if rng.random() < density:
                b |= 1 << j
        bits.append(b)
    return F2Matrix(rows, cols, bits)


def _nullhomotopic_parts(
    rng: random.Random, c: GradedComplex, d_: GradedComplex
) -> tuple[Homotopy, ChainMap]:
    """A random degree +1 homotopy g and the chain map dg + gd it generates."""
    g = Homotopy(
        c,
        d_,
        {
            k: _random_block(rng, d_.dim_at(k + 1), c.dim_at(k))
            for k in c.dims
            if d_.dim_at(k + 1)
        },
    )
    f = ChainMap(c, d_, {k: _dh(g, k) for k in set(c.dims) | {k - 1 for k in c.dims}})
    return g, f


def random_chain_map(rng: random.Random, c: GradedComplex, d_: GradedComplex) -> ChainMap:
    """A random (nullhomotopic) chain map c -> d_, valid by construction."""
    return _nullhomotopic_parts(rng, c, d_)[1]


def random_admissible_triple(
    rng: random.Random,
    degrees: Sequence[int] = (0, 1, 2, 3),
    method: str = "formula",
    max_dots: int = 2,
    max_intervals: int = 2,
) -> tuple[ChainMap, ChainMap, Homotopy]:
    """Random (f1, f2, H1) satisfying d3*H1 + H1*d1 = f2*f1.

    ``method='formula'`` draws nullhomotopic f1 = dg1 + g1d and
    f2 = dg2 + g2d on three random complexes and uses the closed-form
    homotopy H1 = g2*d*g1 + g2*g1*d. ``method='cone'`` takes C3 to be the
    cone of f1, f2 the structural inclusion and H1 = (0, id); the identity
    then holds on the nose and the triple is always acyclic.
    """
    if method == "cone":
        c1 = random_complex(rng, degrees, max_dots, max_intervals)
        c2 = random_complex(rng, degrees, max_dots, max_intervals)
        f1 = random_chain_map(rng, c1, c2)
        c3, f2, _proj = mapping_cone(f1)
        h_blocks = {}
        for k in c1.dims:
            n2 = c2.dim_at(k + 1)
            n1 = c1.dim_at(k)
            h_blocks[k] = F2Matrix.vstack(
                [F2Matrix.zero(n2, n1), F2Matrix.identity(n1)]
            )
        h1 = Homotopy(c1, c3, h_blocks, degree=1)
        _check_homotopy_identity(f1, f2, h1)
        return f1, f2, h1
    if method != "formula":
        raise ContractError(f"unknown method {method!r}")
    c1 = random_complex(rng, degrees, max_dots, max_intervals)
    c2 = random_complex(rng, degrees, max_dots, max_intervals)
    c3 = random_complex(rng, degrees, max_dots, max_intervals)
    g1, f1 = _nullhomotopic_parts(rng, c1, c2)
    g2, f2 = _nullhomotopic_parts(rng, c2, c3)

    h_blocks = {}
    for k in c1.dims:
        a = g2.block_at(k).mul(c2.d_at(k + 1)).mul(g1.block_at(k))
        b = g2.block_at(k).mul(g1.block_at(k - 1)).mul(c1.d_at(k))
        h_blocks[k] = a + b
    h1 = Homotopy(c1, c3, h_blocks, degree=1)
    _check_homotopy_identity(f1, f2, h1)
    return f1, f2, h1


def random_filtered_complex(
    rng: random.Random,
    degrees: Sequence[int],
    num_levels: int = 3,
    max_dots: int = 2,
    max_intervals: int = 2,
) -> FilteredComplex:
    """A random filtered complex whose filtration is respected by design.

    Levels are assigned per elementary piece before conjugation; the
    conjugating matrices are block upper-triangular with respect to the
    level order so the filtration survives the change of basis.
    """
    degrees, dots, ints, dims, d = _random_pieces(rng, degrees, max_dots, max_intervals)
    # assign a level to each interval (shared by its two ends), then to each dot
    int_levels = {k: [rng.randrange(num_levels) for _ in range(ints[k])] for k in degrees}
    piece_levels = {
        k: int_levels.get(k + 1, []) + [rng.randrange(num_levels) for _ in range(dots[k])]
        + int_levels[k]
        for k in degrees
    }
    # level-sorted basis & triangular conjugation: sort coordinates by level,
    # then conjugate with matrices that never move mass to a higher level.
    perm: dict[int, list[int]] = {}
    for k in degrees:
        perm[k] = sorted(range(dims[k]), key=lambda i: (piece_levels[k][i], i))
    levels = {k: tuple(piece_levels[k][i] for i in perm[k]) for k in degrees}

    def perm_matrix(k: int) -> F2Matrix:
        n = dims[k]
        rows = [0] * n
        for new_i, old_i in enumerate(perm[k]):
            rows[new_i] |= 1 << old_i
        return F2Matrix(n, n, rows)

    def random_triangular(k: int) -> tuple[F2Matrix, F2Matrix]:
        n = dims[k]
        lv = levels[k]
        while True:
            bits = []
            for i in range(n):
                b = 1 << i
                for j in range(n):
                    if j != i and lv[i] <= lv[j] and rng.random() < 0.4:
                        b |= 1 << j
                bits.append(b)
            m = F2Matrix(n, n, bits)
            if m.rank() == n:
                return m, m.inverse()

    tri = {k: random_triangular(k) for k in degrees}
    d_final = {}
    for k in degrees:
        if k - 1 in dims:
            base = perm_matrix(k - 1).mul(d[k]).mul(perm_matrix(k).transpose())
            d_final[k] = tri[k - 1][0].mul(base).mul(tri[k][1])
    cx = GradedComplex({k: n for k, n in dims.items() if n}, d_final)
    return FilteredComplex(cx, {k: levels[k] for k in cx.dims})


# ---------------------------------------------------------------------------
# JSON round-tripping
# ---------------------------------------------------------------------------


def complex_to_json(c: GradedComplex) -> dict:
    lo, hi = c.window()
    return {
        "window": [lo, hi],
        "dims": {str(k): n for k, n in sorted(c.dims.items())},
        "d": {str(k): c.d[k].to_lists() for k in sorted(c.d)},
    }


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require(data, path: str, kind: type = Mapping):
    """``data``, or a ValueError naming ``path`` unless it is a JSON object (or ``kind``)."""
    if not isinstance(data, kind):
        noun = "object" if kind is Mapping else "array"
        raise ValueError(f"{path} must be a JSON {noun}, got {type(data).__name__}")
    return data


def _json_int(x, path: str) -> int:
    """``x``, or a ValueError naming ``path`` unless it is a JSON integer (a bool is not)."""
    if type(x) is not int:
        raise ValueError(f"{path} must be a JSON integer, got {type(x).__name__}")
    return x


def _by_degree(data, path: str):
    """(degree, value, path of the value) for each entry of the object at ``path``."""
    for key, value in _require(data, path).items():
        try:
            k = int(key)
        except ValueError:
            raise ValueError(f"{path}: key {key!r} is not an integer degree") from None
        yield k, value, f"{path}.{key}"


def _matrices_from_json(data, path: str, width: Callable[[int], int]) -> dict[int, F2Matrix]:
    """The object of matrices at ``path``, keyed by degree. Each is an array of
    ``width(degree)``-wide arrays of 0/1 entries; errors name its path."""
    out = {}
    for k, rows, at in _by_degree(data, path):
        for i, row in enumerate(_require(rows, at, list)):
            if not isinstance(row, list):
                _require(row, f"{at}: row {i}", list)
        try:
            out[k] = F2Matrix.from_rows(rows, cols=width(k))
        except ContractError as e:
            raise ContractError(f"{at}: {e}") from None
    return out


def complex_from_json(data: Mapping, path: str = "") -> GradedComplex:
    """Read a complex; ``path`` locates ``data`` in its document for error messages."""
    _require(data, path or "complex")
    entries = _by_degree(data.get("dims", {}), _at(path, "dims"))
    dims = {k: _json_int(n, at) for k, n, at in entries}
    d = _matrices_from_json(data.get("d", {}), _at(path, "d"), lambda k: dims.get(k, 0))
    return GradedComplex(dims, d)


def _blocks_from_json(data: Mapping, path: str, source: GradedComplex) -> dict[int, F2Matrix]:
    """The ``blocks`` of the map document at ``path``, each as wide as its source degree."""
    _require(data, path)
    return _matrices_from_json(data.get("blocks", {}), f"{path}.blocks", source.dim_at)


def chain_map_from_json(
    data: Mapping, source: GradedComplex, target: GradedComplex, path: str = "map"
) -> ChainMap:
    blocks = _blocks_from_json(data, path, source)
    degree = _json_int(data.get("degree", 0), f"{path}.degree")
    return ChainMap(source, target, blocks, degree=degree)


def chain_map_to_json(f: ChainMap) -> dict:
    return {
        "degree": f.degree,
        "blocks": {str(k): f.blocks[k].to_lists() for k in sorted(f.blocks)},
    }


def filtered_to_json(fc: FilteredComplex) -> dict:
    out = complex_to_json(fc.complex)
    out["levels"] = {str(k): list(v) for k, v in sorted(fc.levels.items())}
    return out


def filtered_from_json(data: Mapping) -> FilteredComplex:
    cx = complex_from_json(_require(data, "filtered complex"))
    levels = {
        k: tuple(_json_int(x, f"{at}: level {i}") for i, x in enumerate(_require(v, at, list)))
        for k, v, at in _by_degree(data.get("levels", {}), "levels")
    }
    return FilteredComplex(cx, levels)


def triangle_bundle_from_json(data: Mapping) -> tuple[ChainMap, ChainMap, Homotopy]:
    _require(data, "triangle bundle")
    c1 = complex_from_json(data["c1"], "c1")
    c2 = complex_from_json(data["c2"], "c2")
    c3 = complex_from_json(data["c3"], "c3")
    f1 = chain_map_from_json(data["f1"], c1, c2, "f1")
    f2 = chain_map_from_json(data["f2"], c2, c3, "f2")
    h1 = Homotopy(c1, c3, _blocks_from_json(data.get("h1", {}), "h1", c1), degree=1)
    return f1, f2, h1


def triangle_bundle_to_json(f1: ChainMap, f2: ChainMap, h1: Homotopy) -> dict:
    return {
        "c1": complex_to_json(f1.source),
        "c2": complex_to_json(f1.target),
        "c3": complex_to_json(f2.target),
        "f1": chain_map_to_json(f1),
        "f2": chain_map_to_json(f2),
        "h1": {
            "degree": h1.degree,
            "blocks": {str(k): h1.blocks[k].to_lists() for k in sorted(h1.blocks)},
        },
    }
