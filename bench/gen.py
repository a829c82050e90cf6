"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and uses its own
``random.Random`` stream, so the same seed gives the same inputs on every
machine. None of them calls the package: complexes are built here in a
normal form (dots plus two-term intervals) and scrambled by elementary
basis changes, knots come from closed formulas for torus knots, twist knots
and their connected sums, and Gysin inputs are tower-plus-box specs. A
change to the package's own ``random_*`` helpers therefore cannot change
what is measured; a change here is a new workload and moves the digest.

Each ``make_*`` function returns ``(inputs, expected, props)``: the inputs
the program receives, the facts known by construction that the checks
compare against, and the input properties printed with every run.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics

# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def digest(obj) -> str:
    """Short SHA-256 of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digest_any(obj) -> str:
    """Short SHA-256 of raw bytes, or of the canonical JSON form of anything else."""
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).hexdigest()[:16]
    return digest(obj)


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash deterministically (SHA-512), unlike tuple seeds
    return random.Random(f"{workload}/{seed}")


def _spread(values) -> dict:
    values = sorted(values)
    if not values:
        return {"min": None, "median": None, "max": None}
    return {"min": values[0], "median": statistics.median(values), "max": values[-1]}


# ---------------------------------------------------------------------------
# knot-batch: alternating-knot CSV rows
# ---------------------------------------------------------------------------


def _laurent(sym: list[int]) -> list[int]:
    """Symmetric coefficients (a0, a1, ..., ag) to the full list a_-g .. a_g."""
    return sym[:0:-1] + sym


def _symmetric(full: list[int]) -> list[int]:
    g = len(full) // 2
    return full[g:]


def _alexander_product(a: list[int], b: list[int]) -> list[int]:
    fa, fb = _laurent(a), _laurent(b)
    out = [0] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            out[i + j] += x * y
    return _symmetric(out)


def knot_arf(alexander: list[int]) -> int:
    """Arf invariant from the determinant |Delta(-1)| (Levine/Murasugi)."""
    det = abs(alexander[0] + 2 * sum((-1) ** j * a for j, a in enumerate(alexander) if j))
    return 0 if det % 8 in (1, 7) else 1


def _torus(n: int) -> tuple[str, int, list[int]]:
    """T(2, 2n+1): signature -2n, Delta = sum (-1)^(n+j) (t^j + t^-j)."""
    return f"T(2;{2 * n + 1})", -2 * n, [(-1) ** (n + j) for j in range(n + 1)]


def _twist(m: int, positive: bool) -> tuple[str, int, list[int]]:
    """Twist knots: Delta = m t + (1-2m) + m/t (signature -2) or its sign flip
    -m t + (2m+1) - m/t (signature 0)."""
    if positive:
        return f"Tw+{m}", -2, [1 - 2 * m, m]
    return f"Tw-{m}", 0, [2 * m + 1, -m]


class _Deck:
    """Draws from shuffled copies of a fixed list, so every seed gets nearly
    the same mix of values, in a different order and pairing."""

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.cards = rng, list(values), []

    def draw(self):
        if not self.cards:
            self.cards = self.values[:]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def make_knot_rows(seed: int, n_rows: int = 1000):
    """``n_rows`` knots: torus, twist, mirrors and connected sums.

    Half the rows are prime, a third are sums of two and the rest sums of
    three. Primes are 60% torus knots T(2, 2n+1) with n up to 30 and 40%
    twist knots with up to 40 twists. Summands of a sum share the sign of
    their signature, so every row satisfies the alternating positivity the
    surgery formulas need. A 30% share of rows with nonzero signature is
    mirrored, half the rows state their Arf invariant, and the two slopes
    are equally common.
    """
    rng = _rng("knot-batch", seed)
    summands = _Deck(rng, [1] * 3 + [2] * 2 + [3])
    is_torus = _Deck(rng, [True] * 3 + [False] * 2)
    torus_n = _Deck(rng, range(1, 31))
    twist_m = _Deck(rng, range(1, 41))
    twist_sign = _Deck(rng, (True, False))
    mirror = _Deck(rng, [True] * 3 + [False] * 7)
    slopes = _Deck(rng, (1, -1))
    state_arf = _Deck(rng, (True, False))
    rows, expected = [], []
    for i in range(n_rows):
        parts = [
            _torus(torus_n.draw()) if is_torus.draw() else _twist(twist_m.draw(), twist_sign.draw())
            for _ in range(summands.draw())
        ]
        name = "#".join(p[0] for p in parts)
        sigma = sum(p[1] for p in parts)
        alex = parts[0][2]
        for p in parts[1:]:
            alex = _alexander_product(alex, p[2])
        mirrored = sigma != 0 and mirror.draw()
        if mirrored:
            sigma, name = -sigma, "m" + name
        arf = knot_arf(alex)
        slope = slopes.draw()
        rows.append(
            {
                "name": f"k{i}-{name}",
                "signature": sigma,
                "alexander": ";".join(str(a) for a in alex),
                "arf": str(arf) if state_arf.draw() else "",
                "surgery": f"{slope:+d}",
            }
        )
        expected.append(
            {"sigma": -abs(sigma), "arf": arf, "mirrored": mirrored, "slope": slope,
             "genus": len(alex) - 1}
        )
    keys = [memo_key(e) for e in expected]
    props = {
        "rows": n_rows,
        "genus": _spread(e["genus"] for e in expected),
        "sigma": _spread(int(r["signature"]) for r in rows),
        "mirrored_share": sum(e["mirrored"] for e in expected) / n_rows,
        "distinct_keys": len(set(keys)),
        "surgery.repeat_key_ratio": repeat_ratio(keys),
    }
    return rows, expected, props


def memo_key(e: dict) -> tuple[int, int, int]:
    """(sigma, Arf, slope) of the unmirrored computation a row reduces to."""
    return (e["sigma"], e["arf"], -e["slope"] if e["mirrored"] else e["slope"])


def repeat_ratio(keys) -> float:
    """Share of keys that repeat an earlier one."""
    keys = list(keys)
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


# ---------------------------------------------------------------------------
# gysin-search: T^+_{2K} plus boxes
# ---------------------------------------------------------------------------

PAD = 12  # the package's default window pad, used only to report widths


def window_width(k: int, boxes) -> int:
    """Width of the search window the default pad gives for this input."""
    degs = [2 * k] + [d for d, _n in boxes]
    return (max(degs) + PAD) - (min(degs) - 4) + 1


def _stratified_order(rng: random.Random, strata: list) -> list[int]:
    """An order in which every prefix holds each stratum in proportion to
    its size, so a run that stops early still sees the whole mix."""
    members: dict = {}
    for i, key in enumerate(strata):
        members.setdefault(key, []).append(i)
    keyed = []
    for idx in members.values():
        rng.shuffle(idx)
        keyed += [((j + rng.random()) / len(idx), i) for j, i in enumerate(idx)]
    return [i for _k, i in sorted(keyed)]


def make_gysin_inputs(seed: int):
    """1008 distinct Gysin inputs with window widths from 17 to 41.

    Kinds: ``family`` puts n boxes in one degree on a family class (the
    tower base, or one below it, mod 4), where the closed form applies;
    ``offclass`` puts them in one degree off those classes; ``multi`` puts
    boxes in two degrees, one at the base class. Every seed gets the same
    shapes (offsets and box counts relative to the tower) in the same order,
    each on a tower base 2K drawn from the seed, so a run that stops early
    sees the same mix whatever the seed; the order puts the same mix of
    kinds and widths in every prefix. Family inputs with odd n away from the
    base classes have no partner, and odd n on the base itself has two.
    """
    rng = _rng("gysin-search", seed)
    fixed = _rng("gysin-search", "shapes")  # the same shapes and order for every seed
    offsets = range(-24, 9)
    bases = range(-8, 8)
    shapes = []
    for o in offsets:
        for n in range(1, 5):
            if o % 4 in (0, 3):
                # the two-candidate shapes (odd n on the base) get twice the copies
                shapes += [("family", ((o, n),))] * (16 if o == 0 and n % 2 else 8)
            else:
                shapes += [("offclass", ((o, n),))] * 3
    pairs = _Deck(fixed, [(a, b) for a in range(1, 4) for b in range(1, 4)])
    for first in (0, -1):
        for o in offsets:
            if o == first:
                continue
            for _ in range(4):
                a, b = pairs.draw()
                shapes.append(("multi", tuple(sorted(((first, a), (o, b))))))
    seen = set()
    inputs, expected = [], []
    for kind, shape in shapes:
        while True:
            k = rng.choice(bases)
            boxes = tuple((2 * k + o, n) for o, n in shape)
            if (k, boxes) not in seen:
                break
        seen.add((k, boxes))
        offset, n = shape[0]
        family = kind == "family"
        inputs.append({"k": k, "boxes": [list(b) for b in boxes]})
        expected.append(
            {
                "kind": kind,
                "family": (2 * k - 1 if offset % 4 == 3 else 2 * k) if family else None,
                "width": window_width(k, boxes),
                "infeasible": family and n % 2 == 1 and offset not in (0, -1),
                "two_candidates": family and n % 2 == 1 and offset == 0,
            }
        )
    n_inputs = len(inputs)
    order = _stratified_order(fixed, [(e["kind"], e["width"] // 4) for e in expected])
    inputs = [inputs[i] for i in order]
    expected = [expected[i] for i in order]
    props = {
        "inputs": n_inputs,
        "window_width": _spread(e["width"] for e in expected),
        "family_share": sum(e["kind"] == "family" for e in expected) / n_inputs,
        "multi_degree_share": sum(e["kind"] == "multi" for e in expected) / n_inputs,
        "infeasible_share": sum(e["infeasible"] for e in expected) / n_inputs,
        "two_candidate_share": sum(e["two_candidates"] for e in expected) / n_inputs,
    }
    return inputs, expected, props


# ---------------------------------------------------------------------------
# homalg: admissible triples and filtered complexes over GF(2)
# ---------------------------------------------------------------------------
# A matrix is (rows, cols, words): word i holds row i, bit j is entry (i, j).


def _mul(a, b):
    (n, m, wa), (m2, p, wb) = a, b
    assert m == m2, (a[:2], b[:2])
    out = []
    for w in wa:
        acc = 0
        j = 0
        while w:
            if w & 1:
                acc ^= wb[j]
            w >>= 1
            j += 1
        out.append(acc)
    return (n, p, out)


def _add(a, b):
    assert a[:2] == b[:2]
    return (a[0], a[1], [x ^ y for x, y in zip(a[2], b[2])])


def _zero(n, m):
    return (n, m, [0] * n)


def _eye(n):
    return (n, n, [1 << i for i in range(n)])


def _random(rng, n, m):
    return (n, m, [rng.getrandbits(m) if m else 0 for _ in range(n)])


def _rank(words: list[int]) -> int:
    """Rank over GF(2) of the rows given as bit words."""
    basis: dict[int, int] = {}
    for w in words:
        while w:
            top = w.bit_length() - 1
            if top not in basis:
                basis[top] = w
                break
            w ^= basis[top]
    return len(basis)


def _scramble(rng, levels):
    """A random basis change P (and its inverse) of size len(levels).

    Built from transvections row_i += row_j with level(i) <= level(j), so
    both P and its inverse keep the filtration; with equal levels it is a
    generic invertible matrix.
    """
    n = len(levels)
    ops = []
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and levels[i] <= levels[j]:
            ops.append((i, j))

    def apply(seq):
        w = [1 << i for i in range(n)]
        for i, j in seq:
            w[i] ^= w[j]
        return (n, n, w)

    return apply(ops), apply(reversed(ops))


class _Complex:
    """Normal-form complex scrambled degreewise: d'_k = P_{k-1} d_k P_k^-1."""

    def __init__(self, rng, degrees, max_dots, max_ints, num_levels=1, force_dot=False):
        self.degrees = list(degrees)
        lo = self.degrees[0]
        self.dots = {k: rng.randint(0, max_dots) for k in self.degrees}
        if force_dot and not any(self.dots.values()):
            self.dots[rng.choice(self.degrees)] = 1
        self.ints = {k: (rng.randint(0, max_ints) if k > lo else 0) for k in self.degrees}
        self.dims, self.levels, d = {}, {}, {}
        int_lv = {
            k: [sorted((rng.randrange(num_levels), rng.randrange(num_levels)))
                for _ in range(self.ints[k])]
            for k in self.degrees
        }
        for k in self.degrees:
            above = self.ints.get(k + 1, 0)
            self.dims[k] = above + self.dots[k] + self.ints[k]
            # interval targets from k+1, dots, interval sources at k; a
            # target never sits above its source, so d keeps the filtration
            self.levels[k] = (
                [int_lv[k + 1][t][0] for t in range(above)]
                + [rng.randrange(num_levels) for _ in range(self.dots[k])]
                + [int_lv[k][t][1] for t in range(self.ints[k])]
            )
        for k in self.degrees:
            n, m = self.dims.get(k - 1, 0), self.dims[k]
            w = [0] * n
            for t in range(self.ints[k]):
                w[t] |= 1 << (m - self.ints[k] + t)
            d[k] = (n, m, w)
        self.p = {k: _scramble(rng, self.levels[k]) for k in self.degrees}
        self.d = {}
        for k in self.degrees:
            if k - 1 in self.dims:
                self.d[k] = _mul(_mul(self.P(k - 1), d[k]), self.Pinv(k))

    def dim(self, k):
        return self.dims.get(k, 0)

    def P(self, k):
        return self.p[k][0] if k in self.p else _eye(0)

    def Pinv(self, k):
        return self.p[k][1] if k in self.p else _eye(0)

    def d_at(self, k):
        return self.d.get(k) or _zero(self.dim(k - 1), self.dim(k))

    def dot_slice(self, k):
        """Coordinates of the dots at degree k in the normal-form basis."""
        above = self.ints.get(k + 1, 0)
        return above, above + self.dots[k]


def _to_lists(mat):
    n, m, words = mat
    return [[(w >> j) & 1 for j in range(m)] for w in words]


def _complex_json(c) -> dict:
    ks = sorted(k for k in c.dims if c.dim(k))
    return {
        "window": [ks[0], ks[-1]] if ks else [0, -1],
        "dims": {str(k): c.dim(k) for k in ks},
        "d": {str(k): _to_lists(c.d[k]) for k in ks if k in c.d and c.dim(k - 1)},
    }


def _map_json(blocks: dict, degree: int) -> dict:
    return {
        "degree": degree,
        "blocks": {str(k): _to_lists(m) for k, m in sorted(blocks.items()) if m[0] and m[1]},
    }


class _Cone:
    """Cone of f: C1 -> C2 with degree k = C2_k + C1_{k-1}, d = [[d2, f], [0, d1]]."""

    def __init__(self, c1, c2, f):
        ks = sorted(set(c2.dims) | {k + 1 for k in c1.dims})
        self.dims = {k: c2.dim(k) + c1.dim(k - 1) for k in ks}
        self.d = {}
        for k in ks:
            n2, n1 = c2.dim(k - 1), c1.dim(k - 2)
            m2, m1 = c2.dim(k), c1.dim(k - 1)
            top = _hcat(c2.d_at(k), f.get(k - 1) or _zero(n2, m1), m2)
            bot = [w << m2 for w in c1.d_at(k - 1)[2]]
            self.d[k] = (n2 + n1, m2 + m1, top + bot)

    def dim(self, k):
        return self.dims.get(k, 0)


def _hcat(left, right, shift):
    """Rows of [left | right], where left has ``shift`` columns."""
    return [a | (b << shift) for a, b in zip(left[2], right[2])]


def _chain_map(rng, c1, c2, rank_out: dict):
    """A chain map C1 -> C2 with a random dot-to-dot part plus d g + g d.

    ``rank_out`` receives, per degree, the rank of the induced map on
    homology (the rank of the dot-to-dot block).
    """
    f = {}
    for k in c1.degrees:
        n, m = c2.dim(k), c1.dim(k)
        base = [0] * n
        lo2, hi2 = c2.dot_slice(k) if k in c2.dims else (0, 0)
        lo1, hi1 = c1.dot_slice(k)
        block = [rng.getrandbits(hi1 - lo1) if hi1 > lo1 else 0 for _ in range(hi2 - lo2)]
        rank_out[k] = _rank(block)
        for r, w in enumerate(block):
            base[lo2 + r] = w << lo1
        # conjugate into the scrambled bases: f' = Q f P^-1
        f[k] = _mul(_mul(c2.P(k), (n, m, base)), c1.Pinv(k))
    return _add_nullhomotopic(rng, c1, c2, f)


def _add_nullhomotopic(rng, c1, c2, f, g=None):
    g = g if g is not None else {k: _random(rng, c2.dim(k + 1), c1.dim(k)) for k in c1.degrees}
    out = {}
    for k in c1.degrees:
        n, m = c2.dim(k), c1.dim(k)
        acc = f.get(k) or _zero(n, m)
        acc = _add(acc, _mul(c2.d_at(k + 1), g[k]))
        if k - 1 in g:
            acc = _add(acc, _mul(g[k - 1], c1.d_at(k)))
        out[k] = acc
    return out


def _nonzero(dims: dict) -> dict:
    return {k: n for k, n in dims.items() if n}


def _triangle_cone(rng, degrees, size):
    """(f1, f2, H1) with C3 the cone of f1: acyclic by construction."""
    c1 = _Complex(rng, degrees, size, size)
    c2 = _Complex(rng, degrees, size, size)
    ranks: dict[int, int] = {}
    f1 = _chain_map(rng, c1, c2, ranks)
    c3 = _Cone(c1, c2, f1)
    f2, h1 = {}, {}
    for k in c2.degrees:
        f2[k] = (c3.dim(k), c2.dim(k), [1 << i for i in range(c2.dim(k))] + [0] * c1.dim(k - 1))
    for k in c1.degrees:
        n2 = c2.dim(k + 1)
        h1[k] = (c3.dim(k + 1), c1.dim(k), [0] * n2 + [1 << i for i in range(c1.dim(k))])
    h3 = {}
    for k in sorted(c3.dims):
        coker = c2.dots.get(k, 0) - ranks.get(k, 0)
        ker = c1.dots.get(k - 1, 0) - ranks.get(k - 1, 0)
        if coker + ker:
            h3[k] = coker + ker
    doc = {
        "c1": _complex_json(c1),
        "c2": _complex_json(c2),
        "c3": _complex_json(c3),
        "f1": _map_json(f1, 0),
        "f2": _map_json(f2, 0),
        "h1": _map_json(h1, 1),
    }
    return doc, {"acyclic": True, "h_dims": [_nonzero(c1.dots), _nonzero(c2.dots), h3]}


def _triangle_formula(rng, degrees, size):
    """Nullhomotopic f1, f2 with H1 = g2 d g1 + g2 g1 d; C2 has homology,
    so the iterated cone is never acyclic."""
    c1 = _Complex(rng, degrees, size, size)
    c2 = _Complex(rng, degrees, size, size, force_dot=True)
    c3 = _Complex(rng, degrees, size, size)
    g1 = {k: _random(rng, c2.dim(k + 1), c1.dim(k)) for k in c1.degrees}
    g2 = {k: _random(rng, c3.dim(k + 1), c2.dim(k)) for k in c2.degrees}
    f1 = _add_nullhomotopic(rng, c1, c2, {}, g1)
    f2 = _add_nullhomotopic(rng, c2, c3, {}, g2)
    h1 = {}
    for k in c1.degrees:
        g2k = g2.get(k) or _zero(c3.dim(k + 1), c2.dim(k))
        a = _mul(_mul(g2k, c2.d_at(k + 1)), g1[k])
        g1m = g1.get(k - 1) or _zero(c2.dim(k), c1.dim(k - 1))
        b = _mul(_mul(g2k, g1m), c1.d_at(k))
        h1[k] = _add(a, b)
    doc = {
        "c1": _complex_json(c1),
        "c2": _complex_json(c2),
        "c3": _complex_json(c3),
        "f1": _map_json(f1, 0),
        "f2": _map_json(f2, 0),
        "h1": _map_json(h1, 1),
    }
    return doc, {"acyclic": False}


def _filtered(rng, degrees, size, num_levels):
    c = _Complex(rng, degrees, size, size, num_levels=num_levels)
    doc = _complex_json(c)
    # the scrambling keeps each basis vector's level: P only adds vectors
    # of higher-or-equal level into lower-or-equal ones
    doc["levels"] = {str(k): c.levels[k] for k in sorted(c.dims) if c.dim(k)}
    return doc, {"homology": _nonzero(c.dots)}


HOMALG_DEGREES = range(0, 8)
HOMALG_SIZE = 8


def make_homalg_item(seed: int, i: int):
    """Item i of the homalg stream: a triangle bundle or a filtered complex.

    Items alternate between filtered complexes (four levels) and triangle
    bundles, and the bundles alternate between the cone construction
    (acyclic) and the nullhomotopic formula (not acyclic). Each degree gets
    up to HOMALG_SIZE dots and as many intervals. Every item has its own
    random stream, so the stream does not depend on how many are used.
    """
    rng = _rng(f"homalg/{i}", seed)
    degrees = list(HOMALG_DEGREES)
    if i % 2:
        doc, exp = _filtered(rng, degrees, HOMALG_SIZE, num_levels=4)
        return {"kind": "ss", "doc": doc}, exp
    build = _triangle_cone if i % 4 == 0 else _triangle_formula
    doc, exp = build(rng, degrees, HOMALG_SIZE)
    return {"kind": "triangle", "doc": doc}, exp


def make_homalg_inputs(seed: int, n_inputs: int = 100):
    """The first ``n_inputs`` items of the stream, with their properties."""
    pairs = [make_homalg_item(seed, i) for i in range(n_inputs)]
    inputs = [p[0] for p in pairs]
    expected = [p[1] for p in pairs]
    dims, shapes = [], []
    for item in inputs:
        docs = ([item["doc"][c] for c in ("c1", "c2", "c3")]
                if item["kind"] == "triangle" else [item["doc"]])
        for d in docs:
            dims.extend(d["dims"].values())
            shapes.extend(len(rows) * len(rows[0]) for rows in d["d"].values() if rows)
    triangles = sum(i["kind"] == "triangle" for i in inputs)
    props = {
        "sampled_items": n_inputs,
        "triangle_share": triangles / n_inputs,
        "acyclic_share_of_triangles": sum(bool(e.get("acyclic")) for e in expected) / max(1, triangles),
        "degrees": [HOMALG_DEGREES[0], HOMALG_DEGREES[-1]],
        "dim_per_degree": _spread(dims),
        "differential_entries": _spread(shapes),
    }
    return inputs, expected, props
