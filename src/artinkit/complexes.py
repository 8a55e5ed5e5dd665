"""Finite balls of coset complexes over spherical diagrams.

Vertices of type s are left cosets g·A_{X(s)} where X(s) is the type's
parabolic generator set (the complement of {s} for plain complexes, the
complement of a folding fiber for folded ones). Chambers are group elements
enumerated in deterministic layers by canonical size: within a layer, by
Δ-exponent d and then by factor sequence, lexicographic by index. The
parent of (d, f1⋯fk) is (d, f1⋯fk−1), one layer earlier, and its children,
a sibling group, are the fk that may follow fk−1 (any proper simple when
k = 1), in index order. Two chambers land on the same vertex exactly when
their cosets agree, decided by an exact canonical key. Only some chambers
pay for a key: those with no factors, and, per type, those whose last
factor w has no right descent in X(s). Any other chamber reads its vertex
off the chamber with w replaced by the minimal representative of w·W_X:
its parent or an earlier sibling. By the same argument with
Y = X_i ∩ X_j, only a chamber whose w is minimal in w·W_Y can be the first
on an {i, j} edge, so only those look it up. Which children key, copy or
look up depends only on the list of children, so a plan is made once per
list; a ball is built in one pass, a sibling group at a time, keeping the
vertex rows of the previous layer only. The keyed children of one parent
share one `GarsideTable.coset_keys` call per type. Storage is flat: edges
are one sorted array of i << 32 | j (i < j), neighbours one array with
offsets (CSR), and the ordinal of each edge's first chamber, and each
chamber's parent ordinal and last factor, which rebuild edge witnesses, are
32-bit arrays; coset keys are the bytes `coset_keys` and `coset_key` return,
and `locate` keys a chamber with the latter. No finite ball is
complete, so every downstream verdict about a ball is one-sided:
inner-marked vertices are the ones whose local structure the enumeration
is known to cover.
"""

from __future__ import annotations

import json
import operator
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, islice, repeat
from operator import and_, rshift

from . import dynkin
from . import garside as ga
from .errors import (
    BoundTooLarge,
    CapExceeded,
    GroupMismatch,
    InvalidFolding,
    InvariantViolated,
    NotSpherical,
    PreconditionFailed,
    SubgraphNotInDiagram,
    VertexNotInner,
)

DEFAULT_MAX_CHAMBERS = 30_000
# a vertex is inner when its witness size is at most eff - MARGIN; the margin
# is twice the canonical size of the full twist
MARGIN = 2

DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
)


@dataclass(frozen=True, slots=True)
class BallVertex:
    id: int
    type: str
    witness: ga.GarsideElement


class EdgeList:
    """The sorted edges (i, j), i < j, of a ball, read off its packed array of
    i << 32 | j: a sequence of pairs, equal to the tuple of them."""

    __slots__ = ("packed",)

    def __init__(self, packed):
        self.packed = packed

    def __len__(self):
        return len(self.packed)

    def __iter__(self):
        return map(divmod, self.packed, repeat(1 << 32))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(divmod, self.packed[k], repeat(1 << 32)))
        return divmod(self.packed[k], 1 << 32)

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, EdgeList) else other)


class ComplexBall:
    """Immutable enumerated ball of a coset complex."""

    def __init__(self, ambient, types, type_parabolic, bound, effective_bound,
                 margin, chamber_count, vertices, edges, inner, edge_witness,
                 keys, shift, type_diagram=None):
        self.ambient = ambient
        self.type_diagram = type_diagram if type_diagram is not None else ambient
        self.types = tuple(types)
        self.type_parabolic = type_parabolic
        self.bound = bound
        self.effective_bound = effective_bound
        self.margin = margin
        self.chamber_count = chamber_count
        self.vertices = tuple(vertices)
        self.edges = EdgeList(edges)  # sorted i << 32 | j, i < j, as `_assemble` makes
        self.inner = frozenset(inner)
        self._edge_witness = edge_witness  # see `_assemble`
        self._keys = keys  # type -> {packed coset key: vertex id}
        self._shift = shift
        # CSR: v's neighbours are _nbrs[_offsets[v]:_offsets[v + 1]], in order,
        # as an edge (i, j) comes after each (h, j), h < i, and before each (j, k)
        nv, low = len(self.vertices), (1 << 32) - 1
        count = Counter(chain(map(rshift, edges, repeat(32)), map(and_, edges, repeat(low))))
        self._offsets = array("i", accumulate(map(count.__getitem__, range(nv)), initial=0))
        self._nbrs = nbrs = array("i", bytes(8 * len(edges)))
        fill, self._nbr_tuples = list(self._offsets), [None] * nv  # tuples made when asked
        for e in edges:
            i, j = e >> 32, e & low
            nbrs[fill[i]], nbrs[fill[j]] = j, i
            fill[i] += 1
            fill[j] += 1

    def vertex(self, vid):
        return self.vertices[vid]

    def neighbors(self, vid):
        nbrs = self._nbr_tuples[vid]
        if nbrs is None:
            v, offsets = vid % len(self._nbr_tuples), self._offsets  # as a list
            nbrs = self._nbr_tuples[vid] = tuple(self._nbrs[offsets[v]:offsets[v + 1]])
        return nbrs

    def has_edge(self, i, j):
        return j in self.neighbors(i)  # a scan of i's neighbours: no edge set

    def edge_witness(self, i, j):
        """The first enumerated chamber on both vertices of the edge."""
        e = (min(i, j), max(i, j))
        # follow the parent links up from the edge's chamber
        ordinals, parent, last = self._edge_witness
        packed, edges = e[0] << 32 | e[1], self.edges.packed
        k = bisect_left(edges, packed)
        if k == len(edges) or edges[k] != packed:
            raise PreconditionFailed(f"{e} is not an edge of the ball")
        c, fs = ordinals[k], []
        while parent[c] >= 0:
            fs.append(last[c])
            c = parent[c]
        raw = (last[c], tuple(reversed(fs)))
        return ga.GarsideElement(self.ambient, raw)

    def locate(self, g, type_name):
        """Vertex id of the coset g·A_{X(type)}, or None if not in the ball."""
        if type_name not in self.type_parabolic:
            raise PreconditionFailed(f"unknown vertex type {type_name!r}")
        if g.group is not self.ambient and g.group != self.ambient:
            raise GroupMismatch("element and ball of different groups")
        if g.raw[0] + 2 * self._shift < 0:
            return None
        key = ga.table(self.ambient).coset_key(g.raw, self.type_parabolic[type_name], self._shift)
        return self._keys[type_name].get(key)

    # -- exports ----------------------------------------------------------

    def to_json(self):
        return {
            "vertices": [
                {"id": v.id, "type": v.type, "witness": ga.serialize(v.witness)}
                for v in self.vertices
            ],
            "edges": [[i, j] for (i, j) in self.edges],
            "inner": sorted(self.inner),
            "bound": self.bound,
        }

    def to_json_str(self):
        """`to_json` with sorted keys and a 2-space indent, written directly:
        given an indent, `json.dumps` runs its pure-Python encoder. Lines are
        joined a few thousand at a time, and the chunks once at the end."""
        out = [f'{{\n  "bound": {self.bound},\n  "edges": ']

        def block(lines, after):
            sep = "[\n"
            for chunk in iter(lambda: ",\n".join(islice(lines, 4096)), ""):
                out.extend((sep, chunk))
                sep = ",\n"
            out.extend(("[]" if sep == "[\n" else "\n  ]", after))

        # one encoder for every string: json.dumps would build one per call
        enc = json.JSONEncoder(ensure_ascii=False).encode
        low = (1 << 32) - 1
        block((f"    [\n      {e >> 32},\n      {e & low}\n    ]"
               for e in self.edges.packed), ',\n  "inner": ')
        block((f"    {i}" for i in sorted(self.inner)), ',\n  "vertices": ')
        block((f'    {{\n      "id": {v.id},\n      "type": {enc(v.type)},\n'
               f'      "witness": {enc(ga.serialize(v.witness))}\n    }}'
               for v in self.vertices), "\n}")
        return "".join(out)

    def to_dot(self):
        color = {
            s: DOT_PALETTE[i % len(DOT_PALETTE)]
            for i, s in enumerate(self.types)
        }
        lines = ["graph ball {", "  node [style=filled];"]
        for v in self.vertices:
            shape = "circle" if v.id in self.inner else "ellipse"
            lines.append(
                f'  v{v.id} [label="{v.type}^ {ga.serialize(v.witness)}" '
                f'fillcolor="{color[v.type]}" shape={shape}];'
            )
        for i, j in self.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def ball_from_json(d, blob):
    """The ball of d that a `to_json` export (or its text) names, built again
    and returned if its export equals the blob, else PreconditionFailed.

    A "+"-joined type is a fiber of `dynkin.quotient_folding`, as vertex
    names hold no "+"; the build refuses any other type. Ids run by (type, witness size, text), so the last
    row of each type holds its largest witness; the largest of those is
    the effective bound, and its chamber count caps the build.
    """
    try:
        data = json.loads(blob) if isinstance(blob, str) else blob
        rows = data["vertices"]
        if [row["id"] for row in rows] != list(range(len(rows))):
            raise PreconditionFailed("vertex rows must hold ids 0, 1, 2, ... in order")
        last = {row["type"]: row["witness"] for row in rows}  # types in order
        folding = dynkin.quotient_folding(d, [tuple(s.split("+")) for s in last if "+" in s])
        eff = max(ga.parse_element(d, w).size for w in last.values())
        ball = build_folded_ball(folding, last, data["bound"], max_chambers=_chamber_count(
            _sequence_counts(ga.table(d), eff), eff))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise PreconditionFailed(f"not a ball export: {e!r}") from e
    want = ball.to_json()
    for key in ("vertices", "edges", "inner", "bound", *data):  # the first difference
        a, b = data.get(key), want.get(key)
        if a != b and isinstance(a, list) and isinstance(b, list):
            k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            key, a, b = f"{key}[{k}]", *(xs[k] if k < len(xs) else None for xs in (a, b))
        if a != b:
            raise PreconditionFailed(f"not the export of its ball: {key} is {a!r} "
                                     f"where the rebuilt ball has {b!r}")
    return ball


# -- chamber enumeration ------------------------------------------------------


def _sequence_counts(t, upto):
    """counts[k] = number of normal factor sequences of length k.

    t may follow s iff L(t) ⊆ R(s), so the count runs over the right-descent
    mask of the last factor, weighted by the simples of each mask pair.
    """
    pairs = Counter((t.ldesc[x], t.rdesc[x]) for x in t.proper)
    vec = Counter(t.rdesc[x] for x in t.proper)
    counts = [1]
    for _ in range(upto):
        counts.append(sum(vec.values()))
        nxt = Counter()
        for m, c in vec.items():
            for (left, right), k in pairs.items():
                if not left & ~m:
                    nxt[right] += c * k
        vec = nxt
    return counts


def _chamber_count(counts, radius):
    """Chambers of canonical size at most radius, from `_sequence_counts`: a
    sequence of length k stands behind Δ^j for each |j| <= radius - k."""
    return sum(c * (2 * (radius - k) + 1) for k, c in enumerate(counts[:radius + 1]))


def effective_bound(t, bound, max_chambers):
    counts = _sequence_counts(t, bound)
    cum = [_chamber_count(counts, r) for r in range(len(counts))]
    eff = sum(1 for c in cum if c <= max_chambers) - 1
    least = min(bound, 2)
    if eff < least:
        raise BoundTooLarge(
            max_chambers,
            f"cannot enumerate even radius {least} within {max_chambers} "
            f"chambers; radius {least} needs max_chambers={cum[least]}",
        )
    return eff


# -- ball construction --------------------------------------------------------


def build_ball(d, types, bound, *, max_chambers=DEFAULT_MAX_CHAMBERS):
    """Enumerated ball of the coset complex with vertex types `types`.

    Vertices of type s are cosets g·A_{S∖{s}}. The enumeration covers all
    chambers of canonical size ≤ effective_bound, where effective_bound is
    the largest radius ≤ bound whose full layers fit in max_chambers. It is
    the folded ball of the identity folding.
    """
    return build_folded_ball(dynkin.identity_folding(d), types, bound,
                             max_chambers=max_chambers)


def build_folded_ball(folding, types, bound, *, max_chambers=DEFAULT_MAX_CHAMBERS):
    """Ball of the folded complex: type s' covers cosets of A_{S∖fiber(s')}.
    Each type must be a vertex of the target, and the bound at least 1."""
    if bound < 1:
        raise PreconditionFailed(f"bound {bound} is below 1")
    report = dynkin.validate_folding(folding)
    if not report:
        raise InvalidFolding("; ".join(report.problems))
    src = folding.source
    if not dynkin.is_spherical(src):
        raise NotSpherical("a ball needs a spherical diagram")
    for s in types:
        if not folding.target.has_vertex(s):
            raise SubgraphNotInDiagram(f"type {s!r} is not a vertex of the diagram")
    types = [s for s in folding.target.vertices if s in set(types)]
    if not types:
        raise ValueError("need at least one vertex type")
    allv = set(src.vertices)
    type_parabolic = {s: frozenset(allv - set(folding.fiber(s))) for s in types}
    return _assemble(src, types, type_parabolic, bound, max_chambers, folding.target)


# chamber ordinals and vertex ids are kept in 32-bit signed arrays
ID_LIMIT = 2 ** 31


def _assemble(d, types, type_parabolic, bound, max_chambers, type_diagram):
    """Build the ball in one pass over the chamber stream, a sibling group at
    a time (see the module docstring): each group claims the edges between
    its chambers' vertices that no earlier chamber has, as first-met vertex
    ids a << 32 | b in type order; the ids are then sorted into their
    deterministic order and the edges renumbered and sorted once. edge_witness
    is (first chamber ordinal per sorted edge, parent ordinal and last factor
    per chamber, the Δ power for a chamber with no factors)."""
    t = ga.table(d)
    eff = effective_bound(t, bound, max_chambers)
    # a chamber meets at most one new vertex per type
    chambers = _chamber_count(_sequence_counts(t, eff), eff)
    for count in (chambers, chambers * len(types)):
        if count > ID_LIMIT:
            raise CapExceeded(ID_LIMIT, count)
    shift = (eff + 1) // 2
    parabolics = [type_parabolic[s] for s in types]
    minima = [t.coset_minima(X) for X in parabolics]
    pairs = list(combinations(range(len(types)), 2))
    pair_minima = [t.coset_minima(parabolics[i] & parabolics[j])
                   for i, j in pairs]
    key, keys, follows, rdesc = t.coset_key, t.coset_keys, t.follows, t.rdesc
    by_key = [{} for _ in parabolics]
    witness_of = []  # first-met id -> (type position, first chamber on it)
    parents, last = array("i"), array("i")
    claimed = set()  # first-met ids a << 32 | b of the edges met so far
    claims, ordinals = array("q"), array("i")  # those, and first chambers

    def claim(a, b, keyed, first):
        """Claim each new edge (a[k], b[k]), k in keyed, for chamber first + k."""
        for k in keyed:
            e = a[k] << 32 | b[k]
            if e not in claimed:
                claimed.add(e)
                claims.append(e)
                ordinals.append(first + k)

    def vertex_ids(i, packed, chamber):
        """Type-i ids of chambers by their packed keys, numbered as first met;
        chamber(k) makes the k-th chamber, for a new vertex only."""
        keyed, out = by_key[i], []
        for k, p in enumerate(packed):
            vid = keyed.get(p)
            if vid is None:
                vid = keyed[p] = len(witness_of)
                witness_of.append((i, chamber(k)))
            out.append(vid)
        return out

    plans = {}  # R(parent's last factor) -> plan: follows[s] depends on R(s)

    def plan(kids):
        """Per type, the X-minimal children and a gather of every child's
        vertex from [the parent's, the X-minimal children's] (w^X is the
        parent or a child, as L(w^X) ⊆ L(w)); per type pair, the positions in
        kids of the Y-minimal children. None when there are none: rank 1 has
        no proper simples."""
        if not kids:
            return None
        per_type = []
        for rep in minima:
            keyed = [w for w in kids if rep[w] == w]
            slot = {0: 0, **{w: pos for pos, w in enumerate(keyed, 1)}}
            idx = [slot[rep[w]] for w in kids]  # itemgetter(k) is no sequence
            per_type.append((keyed, operator.itemgetter(*idx) if len(idx) > 1
                             else operator.itemgetter(slice(idx[0], idx[0] + 1))))
        return kids, per_type, [[k for k, w in enumerate(kids) if rep[w] == w]
                                for rep in pair_minima]

    n = 0  # chambers so far
    prev = {}  # Δ power -> (first ordinal, factors, vertex rows) of a layer
    for r in range(eff + 1):
        layer = {}
        for delta in range(-r, r + 1):
            if r == abs(delta):  # no factors: every vertex and edge keyed
                raw = (delta, ())
                row = [vertex_ids(i, [key(raw, X, shift)], lambda k: raw)[0]
                       for i, X in enumerate(parabolics)]
                for i, j in pairs:
                    claim([row[i]], [row[j]], (0,), n)
                parents.append(-1)
                last.append(delta)
                layer[delta] = (n, [()], [[v] for v in row])
                n += 1
                continue
            first, seqs, rows = prev[delta]
            here, here_rows = [], [[] for _ in types]
            layer[delta] = (n, here, here_rows)
            for q, seq in enumerate(seqs):
                mask = rdesc[seq[-1]] if seq else -1
                if mask not in plans:
                    plans[mask] = plan(follows[seq[-1]] if seq else t.proper)
                if plans[mask] is None:
                    continue
                kids, per_type, pair_keyed = plans[mask]
                group = []
                for i, (ws, gather) in enumerate(per_type):
                    src = [rows[i][q]]
                    src += vertex_ids(i, keys(delta, seq, ws, parabolics[i], shift),
                                      lambda k: (delta, seq + (ws[k],)))
                    group.append(gather(src))
                for (i, j), keyed in zip(pairs, pair_keyed):
                    claim(group[i], group[j], keyed, n)
                parents.extend(repeat(first + q, len(kids)))
                last.extend(kids)
                n += len(kids)
                if r < eff:  # nothing reads the last layer's chambers
                    here += [seq + (w,) for w in kids]
                    for keep, row in zip(here_rows, group):
                        keep += row
        prev = layer
    del claimed, prev, layer

    # deterministic ids: sort by (type position, witness size, witness text)
    def sort_key(v):
        i, raw = witness_of[v]
        return (i, abs(raw[0]) + len(raw[1]), ga.serialize_raw(t, raw))

    order = sorted(range(len(witness_of)), key=sort_key)
    newid = [0] * len(order)
    vertices = []
    for new, old in enumerate(order):
        newid[old] = new
        i, raw = witness_of[old]
        vertices.append(BallVertex(
            id=new, type=types[i], witness=ga.GarsideElement(t.d, raw)))
    del order, witness_of

    # new ids grow with the type position, so each edge stays increasing;
    # below the renumbered edge, its ordinal: one sort orders both
    low, bits = (1 << 32) - 1, max(n, 2).bit_length()
    firsts = [(newid[e >> 32] << 32 | newid[e & low]) << bits | c
              for e, c in zip(claims, ordinals)]
    del claims
    firsts.sort()
    ordinals = array("i", [e & (1 << bits) - 1 for e in firsts])
    edges = array("q", [e >> bits for e in firsts])
    del firsts  # freed before the neighbour arrays are built: a lower peak

    inner = frozenset(v.id for v in vertices if v.witness.size <= eff - MARGIN)
    for keyed in by_key:
        for packed, vid in keyed.items():
            keyed[packed] = newid[vid]
    return ComplexBall(
        ambient=d, types=types, type_parabolic=type_parabolic, bound=bound,
        effective_bound=eff, margin=MARGIN, chamber_count=len(last),
        vertices=vertices, edges=edges, inner=inner,
        edge_witness=(ordinals, parents, last), keys=dict(zip(types, by_key)),
        shift=shift, type_diagram=type_diagram,
    )


# -- exact Coxeter complexes ----------------------------------------------------


@dataclass(frozen=True)
class CoxeterComplex:
    group: dynkin.DynkinDiagram
    vertices: tuple  # of (id, type, minimal coset representative word)
    edges: tuple
    chamber_count: int
    euler_characteristic: int


def build_coxeter_complex(d):
    """The exact full coset complex of the finite Coxeter group of d."""
    if not dynkin.is_spherical(d):
        raise NotSpherical("Coxeter complex requires a spherical diagram")
    t = ga.table(d)
    gens, n = d.vertices, t.n
    # a coset first appears at its minimal element, so ids follow ShortLex
    reps = {s: t.coset_minima(set(gens) - {s}) for s in gens}
    vertices = []
    vid_of = {}
    for s in gens:
        for x in range(n):
            if reps[s][x] == x:
                vid_of[(s, x)] = len(vertices)
                vertices.append((len(vertices), s, t.words[x]))
    edges = {(min(a, b), max(a, b)) for x in range(n) for a, b in
             combinations([vid_of[(s, reps[s][x])] for s in gens], 2)}

    # Euler characteristic over all simplex dimensions: a k-simplex is a
    # coset of W_{S∖K} with |K| = k+1
    chi = 0
    for size in range(1, len(gens) + 1):
        for K in combinations(gens, size):
            rep = t.coset_minima(set(gens) - set(K))
            cosets = sum(1 for x in range(n) if rep[x] == x)
            chi += (-1) ** (size - 1) * cosets
    want = 2 if (len(gens) - 1) % 2 == 0 else 0  # a sphere of dimension |S| - 1
    if chi != want:
        raise InvariantViolated(f"Euler characteristic {chi} != {want}")
    return CoxeterComplex(
        group=d, vertices=tuple(vertices), edges=tuple(sorted(edges)),
        chamber_count=n, euler_characteristic=chi,
    )


# -- apartments -----------------------------------------------------------------


@dataclass(frozen=True)
class Apartment:
    group: dynkin.DynkinDiagram
    types: tuple
    base: ga.GarsideElement
    vertices: tuple  # of (type, witness GarsideElement)
    edges: tuple  # index pairs into vertices


def apartment_cycle(d, types=None, base=None):
    """Image of the Coxeter complex under the canonical section, translated.

    Each coset w·W_{S∖{s}} lifts to (base·lift(w*))·A_{S∖{s}} where w* is the
    minimal coset representative and lift(w*) is its positive lift, a single
    simple factor (Δ when w* = w0). The embedding is checked to be injective.
    """
    if not dynkin.is_spherical(d):
        raise NotSpherical("apartments require a spherical diagram")
    if types is None:
        types = d.vertices
    types = [s for s in d.vertices if s in set(types)]
    if base is None:
        base = ga.identity(d)
    t = ga.table(d)
    reps = {s: t.coset_minima(set(d.vertices) - {s}) for s in types}
    verts = []
    vid_of = {}
    rows = []
    for x in range(t.n):
        row = []
        for s in types:
            key = (s, reps[s][x])
            vid = vid_of.get(key)
            if vid is None:
                vid = vid_of[key] = len(verts)
                lift = ga.GarsideElement(t.d, t.normalize(0, (reps[s][x],)))
                verts.append((s, ga.multiply(base, lift)))
            row.append(vid)
        rows.append(row)
    edges = {(min(a, b), max(a, b)) for row in rows
             for a, b in combinations(row, 2) if a != b}
    if not _distinct_cosets(d, verts):
        raise InvariantViolated("apartment section must be injective")
    return Apartment(
        group=d, types=tuple(types), base=base,
        vertices=tuple(verts), edges=tuple(sorted(edges)),
    )


def _distinct_cosets(d, verts):
    """True iff no two (type s, witness w) pairs name the same coset w·A_{S∖{s}}.

    Coset keys are equal exactly when the cosets are, so one key per vertex
    decides it, under a shift that makes every witness positive.
    """
    t = ga.table(d)
    raws = [(s, w.raw) for s, w in verts]
    shift = max(0, (1 - min((raw[0] for _, raw in raws), default=0)) // 2)
    allv = frozenset(d.vertices)
    parabolic = {s: allv - {s} for s, _ in raws}
    keys = {(s, t.coset_key(raw, parabolic[s], shift)) for s, raw in raws}
    return len(keys) == len(raws)


def locate_apartment(apartment, ball):
    """Ball vertex ids of the apartment vertices (None where outside)."""
    return tuple(
        ball.locate(w, s) for (s, w) in apartment.vertices
    )


# -- links ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinkGraph:
    center: int
    vertices: tuple  # BallVertex refs from the ambient ball
    edges: tuple  # pairs of ball vertex ids


def vertex_link(ball, vid):
    """Induced subgraph on the neighbors of an inner vertex."""
    if vid not in ball.inner:
        raise VertexNotInner(
            f"vertex {vid} is not inner-marked; its link is truncated"
        )
    nbrs = ball.neighbors(vid)
    nset = set(nbrs)
    edges = tuple((i, j) for i in nbrs for j in ball.neighbors(i)
                  if i < j and j in nset)
    return LinkGraph(
        center=vid,
        vertices=tuple(ball.vertex(v) for v in nbrs),
        edges=edges,
    )


def folded_comparison(folded_ball, folding, plain_ball):
    """Map each folded vertex to the simplex of plain vertices over its fiber.

    The folded vertex (g, s') covers the cosets g·A_{S∖{s}} for s in the
    fiber of s'; those plain vertices pairwise share the chamber g, so the
    image is a simplex. Returns {folded vid: tuple of plain vids}.
    """
    out = {}
    for v in folded_ball.vertices:
        fiber = folding.fiber(v.type)
        image = []
        for s in fiber:
            pv = plain_ball.locate(v.witness, s)
            if pv is None:
                raise InvariantViolated(
                    "comparison image must lie in the plain ball at equal bound")
            image.append(pv)
        if not all(plain_ball.has_edge(a, b) for a, b in combinations(image, 2)):
            raise InvariantViolated("comparison image must be a simplex")
        out[v.id] = tuple(image)
    return out
