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
vertex rows of the previous layer only. A ball keeps the ordinal of each
edge's first chamber, and each chamber's parent ordinal and last factor, to
rebuild edge witnesses; coset keys are packed into bytes. No finite ball is
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
from itertools import accumulate, combinations, islice, repeat

from . import dynkin
from . import garside as ga
from .errors import (
    BoundTooLarge,
    InvalidFolding,
    InvariantViolated,
    NotSpherical,
    PreconditionFailed,
    VertexNotInner,
)

DEFAULT_MAX_CHAMBERS = 30_000

DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
)


@dataclass(frozen=True)
class BallVertex:
    id: int
    type: str
    witness: ga.GarsideElement


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
        self.edges = edges = tuple(edges)
        self.inner = frozenset(inner)
        self._edge_witness = edge_witness  # see `_assemble`; None if loaded
        self._keys = keys  # type -> {packed coset key: vertex id}
        self._shift = shift
        adj = [[] for _ in self.vertices]  # lists: far smaller than sets
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        # sorted unique edges (i < j) list every neighbourhood in order
        ordered = all(map(operator.lt, edges, edges[1:])) and all(i < j for i, j in edges)
        self._adj = [tuple(a) if ordered else tuple(sorted(set(a))) for a in adj]

    def vertex(self, vid):
        return self.vertices[vid]

    def neighbors(self, vid):
        return self._adj[vid]

    def has_edge(self, i, j):
        return j in self._adj[i]  # a scan of i's neighbours: no edge set

    def edge_witness(self, i, j):
        """The first enumerated chamber on both vertices of the edge."""
        e = (min(i, j), max(i, j))
        if not self._edge_witness:
            raise PreconditionFailed(
                f"edge {e}: a ball loaded from JSON carries no edge witnesses")
        # follow the parent links up from the edge's chamber
        ordinals, parent, last = self._edge_witness
        k = bisect_left(self.edges, e)
        if self.edges[k:k + 1] != (e,):
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
        t = ga.table(self.ambient)
        if not self._keys:
            # balls rebuilt from JSON carry no keys: derive them once
            self._keys = {s: {} for s in self.type_parabolic}
            for v in self.vertices:
                key = t.coset_key(v.witness.raw,
                                  self.type_parabolic[v.type], self._shift)
                self._keys[v.type][_packed(key)] = v.id
        raw = g.raw
        if raw[0] + 2 * self._shift < 0:
            return None
        key = t.coset_key(raw, self.type_parabolic[type_name], self._shift)
        return self._keys[type_name].get(_packed(key))

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
        block((f"    [\n      {i},\n      {j}\n    ]" for (i, j) in self.edges),
              ',\n  "inner": ')
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


def ball_from_json(d, blob, type_parabolic=None):
    """Rebuild a ball exported by to_json (plain balls: type s ~ S minus s)."""
    data = json.loads(blob) if isinstance(blob, str) else blob
    types = []
    vertices = []
    for item in data["vertices"]:
        if item["type"] not in types:
            types.append(item["type"])
        vertices.append(BallVertex(
            id=item["id"], type=item["type"],
            witness=ga.parse_element(d, item["witness"]),
        ))
    if type_parabolic is None:
        allv = set(d.vertices)
        type_parabolic = {s: frozenset(allv - {s}) for s in types}
    edges = tuple((min(i, j), max(i, j)) for i, j in data["edges"])
    bound = data["bound"]
    sizes = [v.witness.size for v in vertices]
    eff = max(sizes) if sizes else 0
    return ComplexBall(
        ambient=d, types=types, type_parabolic=type_parabolic, bound=bound,
        effective_bound=eff, margin=None, chamber_count=None,
        vertices=vertices, edges=edges, inner=frozenset(data["inner"]),
        edge_witness=None, keys={}, shift=(eff + 1) // 2,
    )


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


def effective_bound(t, bound, max_chambers):
    counts = _sequence_counts(t, bound)
    # layer r: the sequences of length r, and those of length r - j behind
    # Δ^j and Δ^-j for each 1 <= j <= r
    cum = list(accumulate(
        c + 2 * below for c, below in zip(counts, accumulate([0] + counts))))
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


def build_ball(d, types, bound, *, margin=None, max_chambers=DEFAULT_MAX_CHAMBERS):
    """Enumerated ball of the coset complex with vertex types `types`.

    Vertices of type s are cosets g·A_{S∖{s}}. The enumeration covers all
    chambers of canonical size ≤ effective_bound, where effective_bound is
    the largest radius ≤ bound whose full layers fit in max_chambers.
    """
    if not dynkin.is_spherical(d):
        raise NotSpherical("ball ambient diagram must be spherical")
    types = [s for s in d.vertices if s in set(types)]
    if not types:
        raise ValueError("need at least one vertex type")
    allv = set(d.vertices)
    type_parabolic = {s: frozenset(allv - {s}) for s in types}
    return _assemble(d, types, type_parabolic, bound, margin, max_chambers, d)


def build_folded_ball(folding, types, bound, *, margin=None,
                      max_chambers=DEFAULT_MAX_CHAMBERS):
    """Ball of the folded complex: type s' covers cosets of A_{S∖fiber(s')}."""
    report = dynkin.validate_folding(folding)
    if not report:
        raise InvalidFolding("; ".join(report.problems))
    src = folding.source
    if not dynkin.is_spherical(src):
        raise NotSpherical("folded ball needs a spherical source diagram")
    types = [s for s in folding.target.vertices if s in set(types)]
    if not types:
        raise ValueError("need at least one vertex type")
    allv = set(src.vertices)
    type_parabolic = {
        s: frozenset(allv - set(folding.fiber(s))) for s in types
    }
    return _assemble(src, types, type_parabolic, bound, margin, max_chambers,
                     folding.target)


def _packed(key):
    """A coset key (d ≥ 0, factors) as bytes, injective: indices are < 2^16."""
    return array("H", (key[0], *key[1])).tobytes()


def _assemble(d, types, type_parabolic, bound, margin, max_chambers,
              type_diagram):
    """Build the ball in one pass over the chamber stream, a sibling group at
    a time (see the module docstring): each group claims the edges between
    its chambers' vertices that no earlier chamber has, keyed by first-met
    vertex ids a << 32 | b in type order; the ids are then sorted into their
    deterministic order and the edges remapped once. edge_witness is (first
    chamber ordinal per sorted edge, parent ordinal and last factor per
    chamber, the Δ power for a chamber with no factors)."""
    t = ga.table(d)
    eff = effective_bound(t, bound, max_chambers)
    if margin is None:
        margin = 2  # twice the canonical size of the full twist
    shift = (eff + 1) // 2
    parabolics = [type_parabolic[s] for s in types]
    minima = [t.enumeration.coset_minima(X) for X in parabolics]
    pairs = list(combinations(range(len(types)), 2))
    pair_minima = [t.enumeration.coset_minima(parabolics[i] & parabolics[j])
                   for i, j in pairs]
    key, follows, rdesc = t.coset_key, t.follows, t.rdesc
    by_key = [{} for _ in parabolics]
    witness_of = []  # first-met id -> (type position, first chamber on it)
    parents, last = array("q"), array("q")
    claimed = {}  # first-met ids a << 32 | b -> ordinal of the edge's first chamber

    def vertex_ids(i, raws):
        """Type-i vertex ids of chambers that key it, numbered as first met."""
        X, keyed, out = parabolics[i], by_key[i], []
        for raw in raws:
            k = _packed(key(raw, X, shift))
            vid = keyed.get(k)
            if vid is None:
                vid = keyed[k] = len(witness_of)
                witness_of.append((i, raw))
            out.append(vid)
        return out

    plans = {}  # R(parent's last factor) -> plan: follows[s] depends on R(s)

    def plan(kids):
        """Per type, the X-minimal children and a gather of every child's
        vertex from [the parent's, the X-minimal children's] (w^X is the
        parent or a child, as L(w^X) ⊆ L(w)); per type pair, the Y-minimal
        children. Children are positions in kids. None when there are none:
        rank 1 has no proper simples."""
        if not kids:
            return None
        per_type = []
        for rep in minima:
            keyed = [k for k, w in enumerate(kids) if rep[w] == w]
            slot = {0: 0, **{kids[k]: pos for pos, k in enumerate(keyed, 1)}}
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
                row = [vertex_ids(i, [raw])[0] for i in range(len(types))]
                for i, j in pairs:
                    claimed.setdefault(row[i] << 32 | row[j], n)
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
                raws = [(delta, seq + (w,)) for w in kids]
                group = []
                for i, (keyed, gather) in enumerate(per_type):
                    src = [rows[i][q]]
                    src += vertex_ids(i, [raws[k] for k in keyed])
                    group.append(gather(src))
                for (i, j), keyed in zip(pairs, pair_keyed):
                    a, b = group[i], group[j]
                    for k in keyed:
                        claimed.setdefault(a[k] << 32 | b[k], n + k)
                parents.extend(repeat(first + q, len(kids)))
                last.extend(kids)
                n += len(kids)
                if r < eff:  # nothing reads the last layer's chambers
                    here += [fs for _, fs in raws]
                    for keep, row in zip(here_rows, group):
                        keep += row
        prev = layer

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

    # new ids grow with the type position, so each edge stays increasing
    low = (1 << 32) - 1
    firsts = sorted(claimed, key=lambda e: newid[e >> 32] << 32 | newid[e & low])
    ordinals = array("q", list(map(claimed.get, firsts)))  # a list: read at C speed
    del claimed
    edges = tuple((newid[e >> 32], newid[e & low]) for e in firsts)
    del firsts  # freed before the neighbour lists are built: a lower peak

    inner = frozenset(
        v.id for v in vertices if v.witness.size <= eff - margin
    )
    for keyed in by_key:
        for packed, vid in keyed.items():
            keyed[packed] = newid[vid]
    return ComplexBall(
        ambient=d, types=types, type_parabolic=type_parabolic, bound=bound,
        effective_bound=eff, margin=margin, chamber_count=len(last),
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
    en = ga.table(d).enumeration
    gens = d.vertices
    n = len(en.words)
    # a coset first appears at its minimal element, so ids follow ShortLex
    reps = {s: en.coset_minima(set(gens) - {s}) for s in gens}
    vertices = []
    vid_of = {}
    for s in gens:
        for x in range(n):
            if reps[s][x] == x:
                vid_of[(s, x)] = len(vertices)
                vertices.append((len(vertices), s, en.words[x]))
    edges = set()
    for x in range(n):
        row = [vid_of[(s, reps[s][x])] for s in gens]
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                a, b = row[i], row[j]
                edges.add((min(a, b), max(a, b)))

    # Euler characteristic over all simplex dimensions: a k-simplex is a
    # coset of W_{S∖K} with |K| = k+1
    chi = 0
    for size in range(1, len(gens) + 1):
        for K in combinations(gens, size):
            rep = en.coset_minima(set(gens) - set(K))
            cosets = sum(1 for x in range(n) if rep[x] == x)
            chi += (-1) ** (size - 1) * cosets
    if len(gens) <= 4 and len(gens) >= 1:
        want = 2 if (len(gens) - 1) % 2 == 0 else 0
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
    en = t.enumeration
    gens = d.vertices
    reps = {s: en.coset_minima(set(gens) - {s}) for s in types}
    verts = []
    vid_of = {}
    rows = []
    for x in range(len(en.words)):
        row = []
        for s in types:
            key = (s, reps[s][x])
            vid = vid_of.get(key)
            if vid is None:
                vid = len(verts)
                vid_of[key] = vid
                lift = ga.GarsideElement(t.d, t.normalize(0, (reps[s][x],)))
                witness = ga.multiply(base, lift)
                verts.append((s, witness))
            row.append(vid)
        rows.append(row)
    edges = set()
    for row in rows:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                a, b = row[i], row[j]
                if a != b:
                    edges.add((min(a, b), max(a, b)))
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
        for i in range(len(image)):
            for j in range(i + 1, len(image)):
                a, b = image[i], image[j]
                if not plain_ball.has_edge(a, b):
                    raise InvariantViolated("comparison image must be a simplex")
        out[v.id] = tuple(image)
    return out
