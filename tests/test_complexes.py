import json
import random
from array import array
from collections import Counter
from itertools import combinations

import pytest

import oracles
from artinkit import complexes as cpx
from artinkit import coxeter as cx
from artinkit import dynkin
from artinkit import garside as ga
from artinkit.errors import (
    ArtinKitError,
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


def path(names, labels):
    edges = tuple(
        (names[i], names[i + 1], labels[i]) for i in range(len(labels))
    )
    return dynkin.DynkinDiagram(tuple(names), edges)


A2 = path("ab", [3])
A3 = path("abc", [3, 3])
B3 = path("abc", [4, 3])
H3 = path("abc", [5, 3])
I24 = path("ab", [4])
I25 = path("ab", [5])
D4 = dynkin.DynkinDiagram(
    ("a", "b", "c", "d"), (("a", "c", 3), ("b", "c", 3), ("c", "d", 3)))


def _sequences(t, k):
    """All normal factor sequences of length k, lexicographic by index."""
    if k == 0:
        yield ()
        return

    def extend(seq, depth):
        if depth == k:
            yield seq
            return
        for w in t.follows[seq[-1]]:
            yield from extend(seq + (w,), depth + 1)

    for v in t.proper:
        yield from extend((v,), 1)


def _chambers(t, eff):
    """Reference chamber stream: raw normal forms in size layers, by depth
    first search over the factor sequences of each Δ-exponent."""
    for r in range(eff + 1):
        for d in range(-r, r + 1):
            for seq in _sequences(t, r - abs(d)):
                yield (d, seq)


# -- the per-chamber pass: the referee of the grouped one in `cpx._assemble` --


def _walk(t, eff):
    """Deterministic chamber stream, grouped by parent: (raw, ordinal of its
    parent).

    Raw normal forms come in size layers; within a layer, by Δ-exponent d
    and then by factor sequence, lexicographic by index. The parent of
    (d, f1⋯fk) is (d, f1⋯fk−1), one layer earlier; a chamber with no
    factors has parent −1. Children of each parent come in index order, so
    walking the previous layer in order keeps the sequences lexicographic.
    """
    follows, proper = t.follows, t.proper
    # d -> (ordinal of the first, factors of each) over the previous layer's
    # chambers, which the stream numbers consecutively
    prev = {}
    n = 0
    for r in range(eff + 1):
        layer = {}
        for d in range(-r, r + 1):
            here = []
            layer[d] = (n, here)
            if r == abs(d):
                here.append(())
                yield (d, ()), -1
                n += 1
                continue
            first, seqs = prev[d]
            for p, seq in enumerate(seqs, first):
                for w in follows[seq[-1]] if seq else proper:
                    fs = seq + (w,)
                    if r < eff:  # nothing reads the last layer's list
                        here.append(fs)
                    yield (d, fs), p
                    n += 1
        prev = layer


def _vertex_rows(t, eff, parabolics, shift, by_key, witness_of, parents):
    """Yield (raw, row) for each chamber of the stream, where row[i] is the
    chamber's vertex for parabolics[i]. Vertices are numbered as first met:
    by_key[i] maps packed coset keys to vertices and witness_of[v] = (i,
    first chamber on v). parents gets each chamber's parent ordinal.

    The X-vertex of (d, f1⋯fk) is that of (d, f1⋯fk−1·w^X) for w = fk, since
    w = w^X·w_X with w_X in A_X⁺: the parent when w^X = 1, otherwise an
    earlier sibling, normal as L(w^X) ⊆ L(w). So every vertex is first met
    at a chamber that computes its key.
    """
    minima = [t.coset_minima(X) for X in parabolics]
    key = t.coset_key
    n = len(parabolics)
    rows = []  # flat: chamber c's vertex for parabolics[i] at c·n + i
    kids = {}  # last factor -> ordinal among the current parent's children
    for c, (raw, parent) in enumerate(_walk(t, eff)):
        parents.append(parent)
        w = 0  # the identity: its own minimal representative
        if parent >= 0:
            if kids.get(0) != parent:
                kids = {0: parent}
            w = raw[1][-1]
            kids[w] = c
        row = []
        for i, rep in enumerate(minima):
            m = rep[w]
            if m != w:
                row.append(rows[kids[m] * n + i])
                continue
            k = key(raw, parabolics[i], shift)
            vid = by_key[i].get(k)
            if vid is None:
                vid = by_key[i][k] = len(witness_of)
                witness_of.append((i, raw))
            row.append(vid)
        rows += row
        yield raw, row


def adjacency(ball):
    return {v.id: set(ball.neighbors(v.id)) for v in ball.vertices}


# frozen shapes of small balls: (diagram, types, bound) ->
#   (effective_bound, vertices, edges, inner, chambers)
BALL_SHAPES = [
    (A2, ["a", "b"], 4, (4, 92, 157, 20, 157)),
    (A3, ["a", "b", "c"], 4, (4, 1907, 9771, 77, 9457)),
    (A2, ["a"], 2, (2, 10, 0, 1, 25)),
]


def test_ball_shapes_frozen():
    for d, types, L, want in BALL_SHAPES:
        b = cpx.build_ball(d, types, L)
        got = (b.effective_bound, len(b.vertices), len(b.edges),
               len(b.inner), b.chamber_count)
        assert got == want, (d.vertices, types, L, got)


def test_rank_one_ball_is_discrete():
    d1 = dynkin.DynkinDiagram(("a",), ())
    b = cpx.build_ball(d1, ["a"], 4)
    # the only proper parabolic is empty, so vertices are group elements
    assert len(b.vertices) == 9
    assert b.edges == ()
    witnesses = {ga.serialize(v.witness) for v in b.vertices}
    assert len(witnesses) == 9


def test_single_type_ball_edgeless():
    b = cpx.build_ball(A2, ["a"], 2)
    assert b.edges == ()
    assert all(v.type == "a" for v in b.vertices)


def test_ball_rejects_bad_inputs():
    aff = dynkin.DynkinDiagram(
        ("a", "b", "c"), (("a", "b", 3), ("b", "c", 3), ("a", "c", 3)))
    with pytest.raises(NotSpherical):
        cpx.build_ball(aff, ["a"], 3)
    with pytest.raises(BoundTooLarge):
        cpx.build_ball(A3, ["a", "b", "c"], 4, max_chambers=10)
    with pytest.raises(ValueError):
        cpx.build_ball(A2, [], 3)


def test_ball_refuses_unknown_types_and_bounds_below_1():
    # each type is a vertex of the target diagram: once a and c are folded,
    # "a" no longer is one
    for d, types, bad in ((A3, ["a", "zz"], "zz"), (A3, ["zz"], "zz")):
        with pytest.raises(SubgraphNotInDiagram, match=f"type '{bad}'"):
            cpx.build_ball(d, types, 2)
    q = dynkin.quotient_folding(A3, [("a", "c")])
    with pytest.raises(SubgraphNotInDiagram, match="type 'a'"):
        cpx.build_folded_ball(q, ["a", "b"], 2)
    for bound in (0, -1):
        with pytest.raises(PreconditionFailed, match=f"bound {bound} is below 1"):
            cpx.build_ball(A3, "abc", bound)
    assert cpx.build_ball(A3, "abc", 1).effective_bound == 1


def test_merge_iff_coset_equality_exhaustive():
    # every chamber pair, every type: same vertex <=> h^-1 g in A_{S-{s}}
    b = cpx.build_ball(A2, ["a", "b"], 3)
    t = ga.table(A2)
    chambers = [ga.GarsideElement(t.d, raw) for raw in _chambers(t, b.effective_bound)]
    assert len(chambers) == 67
    located = [
        {s: b.locate(g, s) for s in b.types} for g in chambers
    ]
    for i in range(len(chambers)):
        for j in range(i + 1, len(chambers)):
            diff = ga.multiply(ga.inverse(chambers[i]), chambers[j])
            for s in b.types:
                same = located[i][s] == located[j][s]
                assert same == ga.in_parabolic(diff, b.type_parabolic[s])

    # seeded chamber pairs on rank-3 balls, half of them on a common vertex
    rng = random.Random(3)
    for d in (B3, H3):
        b = cpx.build_ball(d, ["a", "b", "c"], 3)
        t = ga.table(d)
        chambers = [ga.GarsideElement(t.d, raw)
                    for raw in _chambers(t, b.effective_bound)]
        assert len(chambers) == b.chamber_count
        for s in b.types:
            on = {}
            for g in chambers:
                on.setdefault(b.locate(g, s), []).append(g)
            assert None not in on
            for k in range(60):
                g = rng.choice(chambers)
                h = rng.choice(on[b.locate(g, s)] if k % 2 else chambers)
                diff = ga.multiply(ga.inverse(g), h)
                same = b.locate(g, s) == b.locate(h, s)
                assert same == ga.in_parabolic(diff, b.type_parabolic[s])


def test_every_edge_witness_realizes_both_endpoints():
    b = cpx.build_ball(A3, ["a", "b", "c"], 3)
    for (i, j) in b.edges:
        g = b.edge_witness(i, j)
        assert {b.locate(g, b.vertex(i).type), b.locate(g, b.vertex(j).type)} \
            == {i, j}


def test_edge_witness_is_the_chamber_that_created_the_edge():
    b = cpx.build_ball(B3, ["a", "b", "c"], 3)
    t = ga.table(B3)
    first = {}
    for raw in _chambers(t, b.effective_bound):
        g = ga.GarsideElement(t.d, raw)
        row = [b.locate(g, s) for s in b.types]
        for i, j in combinations(sorted(row), 2):
            first.setdefault((i, j), g)
    assert sorted(first) == list(b.edges)
    for (i, j), g in first.items():
        w = b.edge_witness(j, i)
        assert isinstance(w, ga.GarsideElement)
        assert w == g


def test_adjacent_vertices_have_distinct_types():
    for d, types, L, _ in BALL_SHAPES:
        b = cpx.build_ball(d, types, L)
        for i, j in b.edges:
            assert b.vertex(i).type != b.vertex(j).type


def test_witness_is_size_minimal_in_coset():
    b = cpx.build_ball(A2, ["a", "b"], 4)
    t = ga.table(A2)
    for raw in _chambers(t, b.effective_bound):
        g = ga.GarsideElement(t.d, raw)
        for s in b.types:
            v = b.locate(g, s)
            assert b.vertex(v).witness.size <= g.size


def test_flagness_on_inner_triangles():
    b = cpx.build_ball(A3, ["a", "b", "c"], 4)
    t = ga.table(A3)
    covered = set()
    for raw in _chambers(t, b.effective_bound):
        g = ga.GarsideElement(t.d, raw)
        row = sorted(b.locate(g, s) for s in b.types)
        covered.add(tuple(row))
    tris = []
    for v in sorted(b.inner):
        nb = [u for u in b.neighbors(v) if u > v and u in b.inner]
        for x, y in combinations(nb, 2):
            if b.has_edge(x, y):
                tris.append((v, x, y))
    assert len(tris) == 239
    for tri in tris:
        assert tuple(sorted(tri)) in covered


def test_rebuild_is_byte_identical():
    one = cpx.build_ball(A2, ["a", "b"], 4).to_json_str()
    again = cpx.build_ball(A2, ["a", "b"], 4).to_json_str()
    assert one == again


# -- chambers that read their vertices off the parent or a sibling ------------


def test_walk_is_the_chamber_stream_grouped_by_parent():
    b3_reversed = path("cba", [3, 4])
    for d, eff in ((A3, 4), (B3, 4), (b3_reversed, 4), (D4, 2), (I25, 5)):
        t = ga.table(d)
        walk = list(_walk(t, eff))
        assert [raw for raw, _ in walk] == list(_chambers(t, eff))
        for (delta, fs), parent in walk:
            if fs:
                assert walk[parent][0] == (delta, fs[:-1])
            else:
                assert parent == -1


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "A3 folded"])
def test_every_chamber_gets_the_vertex_of_its_key(name):
    ball = {
        "A3": lambda: cpx.build_ball(A3, ["a", "b", "c"], 3),
        "B3": lambda: cpx.build_ball(B3, ["a", "b", "c"], 3),
        "H3": lambda: cpx.build_ball(H3, ["a", "b", "c"], 3),
        "D4": lambda: cpx.build_ball(D4, ["a", "b", "c", "d"], 2),
        "A3 folded": lambda: cpx.build_folded_ball(
            dynkin.quotient_folding(A3, [("a", "c")]), ["a+c", "b"], 3),
    }[name]()
    t = ga.table(ball.ambient)
    eff = ball.effective_bound
    parabolics = [ball.type_parabolic[s] for s in ball.types]
    witness_of = []
    parents = []
    stream = list(_vertex_rows(t, eff, parabolics, (eff + 1) // 2,
                               [{} for _ in parabolics], witness_of,
                               parents))
    chambers = [raw for raw, _ in stream]
    assert chambers == list(_chambers(t, eff))
    assert len(chambers) == ball.chamber_count
    for raw, row in stream:
        g = ga.GarsideElement(t.d, raw)
        for s, v in zip(ball.types, row):
            located = ball.vertex(ball.locate(g, s))
            assert located.witness == ga.GarsideElement(t.d, witness_of[v][1])


def test_coset_key_runs_once_per_reduced_last_factor(monkeypatch):
    # the build keys a sibling group through coset_keys, which takes the
    # children of one chamber; a chamber with no factors calls coset_key,
    # whose key is its plan's and calls nothing else
    calls, plain = [], []
    keyed, batched = ga.GarsideTable.coset_key, ga.GarsideTable.coset_keys

    def counted(self, a, X, shift):
        calls.append((a, X))
        plain.append(a)
        return keyed(self, a, X, shift)

    def counted_batch(self, delta, prefix, kids, X, shift):
        calls.extend(((delta, prefix + (w,)), X) for w in kids)
        return batched(self, delta, prefix, kids, X, shift)

    monkeypatch.setattr(ga.GarsideTable, "coset_key", counted)
    monkeypatch.setattr(ga.GarsideTable, "coset_keys", counted_batch)
    for d, types, bound in ((B3, ["a", "b", "c"], 3), (D4, ["a", "d"], 2)):
        calls.clear()
        plain.clear()
        ball = cpx.build_ball(d, types, bound)
        t = ga.table(d)
        eng = cx.engine(d)
        want = []
        for raw in _chambers(t, ball.effective_bound):
            last = t.words[raw[1][-1]] if raw[1] else ()
            for s in ball.types:
                X = ball.type_parabolic[s]
                if not any(len(eng.canonical(last + (x,))) < len(last) for x in X):
                    want.append((raw, X))
        # a sibling group keys its chambers type by type
        assert Counter(calls) == Counter(want)
        assert len(plain) == len(types) * (2 * ball.effective_bound + 1)
        assert all(not fs for _, fs in plain)
        assert len(want) < len(types) * ball.chamber_count


# -- batched coset keys: one call per sibling group and type -------------------


F4 = path("abcd", [3, 4, 3])
A3_FOLDED = dynkin.quotient_folding(A3, [("a", "c")])

# name -> (diagram, parabolic of each vertex type, effective bound of the ball)
KEYER_CASES = {
    "A1": (path("a", []), [frozenset()], 4),
    "A3": (A3, [frozenset("abc") - {s} for s in "abc"], 4),
    "B3": (B3, [frozenset("abc") - {s} for s in "abc"], 4),
    "B3 reversed": (path("cba", [3, 4]), [frozenset("abc") - {s} for s in "abc"], 4),
    "H3": (H3, [frozenset("abc") - {s} for s in "abc"], 3),
    "D4": (D4, [frozenset("abcd") - {s} for s in "abcd"], 2),
    "I2(5)": (I25, [frozenset("ab") - {s} for s in "ab"], 5),
    "F4 b,d": (F4, [frozenset("abcd") - {s} for s in "bd"], 2),
    "A3 a+c": (A3, [frozenset("abc") - set(A3_FOLDED.fiber(s)) for s in ("a+c", "b")], 4),
}


def _sibling_groups(t, eff, X):
    """(Δ power, factors, X-minimal children) of every chamber of a ball of
    radius eff that has children: those of canonical size below eff."""
    rep = t.coset_minima(X)
    for delta, seq in _chambers(t, eff - 1):
        kids = [w for w in (t.follows[seq[-1]] if seq else t.proper) if rep[w] == w]
        if kids:
            yield delta, seq, kids


@pytest.mark.parametrize("name", list(KEYER_CASES))
def test_coset_keys_agree_with_coset_key_on_every_keyed_child(name):
    # and each key, read back and left-normalized, with the minimal
    # representative that the referee finds by division
    d, parabolics, eff = KEYER_CASES[name]
    t = ga.table(d)
    ref = oracles.FixpointGarside(t)
    shift = (eff + 1) // 2
    children, powers = 0, set()
    for X in parabolics:
        for delta, seq, kids in _sibling_groups(t, eff, X):
            want = [t.coset_key((delta, seq + (w,)), X, shift) for w in kids]
            assert t.coset_keys(delta, seq, kids, X, shift) == want, (delta, seq, X)
            for w, key in zip(kids, want):
                raw = (delta, seq + (w,))
                assert ref.normalize(*oracles.unpack_key(t, key)) == ref.coset_key(
                    raw, X, shift), (raw, X)
            children += len(kids)
            powers.add(delta % 2)
    assert (children == 0) == (name == "A1")  # rank 1 has no proper simples
    # τ is not the identity on A3 and I2(5) (on D4 and H3, w0 is central)
    if name in ("A3", "I2(5)", "A3 a+c"):
        assert t.tau != list(range(t.n)) and powers == {0, 1}


def test_coset_keys_concatenate_where_the_pushed_child_stands_against_m(monkeypatch):
    # Δ^d·A_X = Δ^e·m·A_X with m X-reduced: a child whose pushed form ends
    # right-weighted against m1 is keyed by concatenation, any other has m
    # pushed and is stripped once
    diagram, parabolics, eff = KEYER_CASES["A3"]
    t = ga.GarsideTable(diagram)
    shift = (eff + 1) // 2
    strip, stripped = ga.GarsideTable._strip, []

    def counted(self, hs, rep):
        stripped.append(hs)
        return strip(self, hs, rep)

    monkeypatch.setattr(ga.GarsideTable, "_strip", counted)
    joined = 0
    for X in parabolics:
        for delta, seq, kids in _sibling_groups(t, eff, X):
            d = delta + 2 * shift
            e, m, _, _ = t._coset_plan(X, d)
            twist = t.tau if (d + e) % 2 else range(t.n)
            stripped.clear()
            got = t.coset_keys(delta, seq, kids, X, shift)
            concatenated = 0
            for w, key in zip(kids, got):
                hs = []
                for f in seq + (w,):
                    t._push(hs, twist[f])
                if m and not t.rdesc[hs[-1]] & ~t.ldesc[m[0]]:
                    assert oracles.unpack_key(t, key) == (e, tuple(hs) + m)
                    concatenated += 1
            assert len(stripped) == len(kids) - concatenated, (delta, seq, X)
            joined += concatenated
    assert 0 < joined < 7100  # the A3 case keys 7,100 children


def _claim_every_pair(ball):
    """Reference assembly, one chamber at a time: every chamber looks up every
    pair of its vertices, an edge keeps the first chamber on it, and first-met
    ids go to their deterministic order (type position, witness size, witness
    text). Returns the vertices, {edge: raw first chamber} and the arrays of
    `edge_witness` (first chamber ordinal per sorted edge, parent ordinal and
    last factor per chamber)."""
    t = ga.table(ball.ambient)
    eff = ball.effective_bound
    parabolics = [ball.type_parabolic[s] for s in ball.types]
    witness_of, chambers = [], []
    parents, last = array("q"), array("q")
    claimed = {}
    for c, (raw, row) in enumerate(_vertex_rows(
            t, eff, parabolics, (eff + 1) // 2, [{} for _ in parabolics],
            witness_of, parents)):
        chambers.append(raw)
        last.append(raw[1][-1] if raw[1] else raw[0])
        for e in combinations(row, 2):
            claimed.setdefault(e, c)
    order = sorted(range(len(witness_of)), key=lambda v: (
        witness_of[v][0], abs(witness_of[v][1][0]) + len(witness_of[v][1][1]),
        ga.serialize_raw(t, witness_of[v][1])))
    newid = {old: new for new, old in enumerate(order)}
    vertices = [(ball.types[witness_of[v][0]], witness_of[v][1]) for v in order]
    edges = sorted(((newid[a], newid[b]), c) for (a, b), c in claimed.items())
    ordinals = array("q", (c for _, c in edges))
    return (vertices, {e: chambers[c] for e, c in edges},
            (ordinals, parents, last))


# name -> (builder, bound); every ball reaches its bound
EDGE_CASES = {
    "A1": (cpx.build_ball, path("a", []), "a", 4),  # no proper simples
    "A3": (cpx.build_ball, A3, "abc", 5),
    "B3": (cpx.build_ball, B3, "abc", 4),
    "B3 reversed": (cpx.build_ball, path("cba", [3, 4]), "abc", 4),
    "H3": (cpx.build_ball, H3, "abc", 3),
    "D4": (cpx.build_ball, D4, "abcd", 2),
    "D4 a,d": (cpx.build_ball, D4, "ad", 2),
    "I2(5)": (cpx.build_ball, I25, "ab", 5),
    "A3 a+c": (cpx.build_folded_ball, dynkin.quotient_folding(A3, [("a", "c")]),
               ("a+c", "b"), 5),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edges_and_witnesses_match_claiming_every_pair(name):
    build, d, types, bound = EDGE_CASES[name]
    ball = build(d, types, bound, max_chambers=10 ** 6)
    assert ball.effective_bound == bound
    vertices, edges, witness_arrays = _claim_every_pair(ball)
    assert [(v.type, v.witness.raw) for v in ball.vertices] == vertices
    assert ball.edges == tuple(sorted(edges))
    assert ball._edge_witness == witness_arrays
    for (i, j), raw in edges.items():
        assert ball.edge_witness(j, i).raw == raw
    for v in ball.vertices:
        assert ball.locate(v.witness, v.type) == v.id


# -- compact storage against tuple adjacency ------------------------------------


def _assert_storage_matches(ball, pairs, seed):
    """Edges, neighbours and has_edge of the ball against a tuple-adjacency
    reference built from the edge pairs it was given."""
    edges = tuple(sorted({(min(i, j), max(i, j)) for i, j in pairs}))
    adj = {v.id: [] for v in ball.vertices}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    assert len(ball.edges) == len(edges)
    assert ball.edges == edges and tuple(ball.edges) == edges
    assert list(iter(ball.edges)) == list(edges)
    rng = random.Random(seed)
    for k in rng.sample(range(len(edges)), min(len(edges), 200)) + [-1] * bool(edges):
        assert ball.edges[k] == edges[k]
    for cut in (slice(3, 40), slice(None, None, 7), slice(-5, None), slice(9, 2)):
        assert ball.edges[cut] == edges[cut]
    if edges:
        assert ball.edges != edges[1:] and ball.edges != edges[:-1] + ((0, 0),)
    for v in ball.vertices:
        assert ball.neighbors(v.id) == tuple(sorted(adj[v.id]))
        assert ball.neighbors(v.id) is ball.neighbors(v.id)  # kept once made
    for i, j in edges:
        assert ball.has_edge(i, j) and ball.has_edge(j, i)
    present = set(edges)
    for _ in range(2000):
        i, j = rng.randrange(len(ball.vertices)), rng.randrange(len(ball.vertices))
        assert ball.has_edge(i, j) == ((min(i, j), max(i, j)) in present)


STORAGE_CASES = {
    "A1": lambda: cpx.build_ball(path("a", []), "a", 4),
    "A3": lambda: cpx.build_ball(A3, "abc", 4),
    "B3": lambda: cpx.build_ball(B3, "abc", 4),
    "D4 a,d": lambda: cpx.build_ball(D4, "ad", 2),
    "A3 a+c": lambda: cpx.build_folded_ball(A3_FOLDED, ("a+c", "b"), 4),
}


@pytest.mark.parametrize("name", list(STORAGE_CASES))
def test_compact_storage_matches_tuple_adjacency(name):
    ball = STORAGE_CASES[name]()
    _assert_storage_matches(ball, list(ball.edges), 20)
    # a ball made by hand, with more edges
    pairs = [*ball.edges, (0, len(ball.vertices) - 1), (1, len(ball.vertices) - 2), (0, 1)]
    made = cpx.ComplexBall(
        ambient=ball.ambient, types=ball.types,
        type_parabolic=ball.type_parabolic, bound=ball.bound,
        effective_bound=ball.effective_bound, margin=ball.margin,
        chamber_count=ball.chamber_count, vertices=ball.vertices,
        edges=array("q", sorted({i << 32 | j for i, j in pairs})), inner=ball.inner,
        edge_witness={}, keys={}, shift=None)
    _assert_storage_matches(made, pairs, 23)


def test_edge_witness_refuses_pairs_outside_the_edge_array():
    b = cpx.build_ball(B3, ["a", "b", "c"], 2)
    last = len(b.vertices) - 1
    first, final = b.edges[0], b.edges[-1]
    for i, j in ((0, 0), (last, last - 1), (first[0], first[1] - 1),
                 (final[0], final[1] + 1)):
        if not b.has_edge(i, j):
            with pytest.raises(PreconditionFailed, match="is not an edge of the ball"):
                b.edge_witness(i, j)
    assert b.edge_witness(*final) == b.edge_witness(final[1], final[0])
    with pytest.raises(PreconditionFailed, match="unknown vertex type"):
        b.locate(ga.identity(B3), "a+c")


def test_locate_refuses_an_element_of_another_group():
    # B3's "abcb" is index 18, which an A3 ball would read as its own element
    b = cpx.build_ball(A3, "abc", 3)
    with pytest.raises(GroupMismatch, match="different groups"):
        b.locate(ga.from_letters(B3, "abcb"), "a")
    # an equal diagram built again is the same group
    assert b.locate(ga.from_letters(path("abc", [3, 3]), "abcb"), "a") is not None


def test_ids_that_do_not_fit_32_bits_are_refused_before_enumeration(monkeypatch):
    # chamber ordinals and vertex ids live in 32-bit arrays; a type may meet
    # a new vertex at every chamber, so three types need 3·9,457 ids
    chambers = cpx.build_ball(A3, "abc", 4).chamber_count
    assert chambers == 9457

    def enumerated(*args):
        raise AssertionError("a chamber was keyed")

    with monkeypatch.context() as m:
        m.setattr(ga.GarsideTable, "coset_key", enumerated)
        for limit, needed in ((chambers - 1, chambers),
                              (3 * chambers - 1, 3 * chambers)):
            m.setattr(cpx, "ID_LIMIT", limit)
            with pytest.raises(CapExceeded, match=f"needs {needed:,} > {limit:,}"):
                cpx.build_ball(A3, "abc", 4)
    monkeypatch.setattr(cpx, "ID_LIMIT", 3 * chambers)
    assert cpx.build_ball(A3, "abc", 4).chamber_count == chambers


def test_json_export_matches_json_dumps():
    d1 = dynkin.DynkinDiagram(("a",), ())
    # loaded, with no edge and no inner vertex: one type at bound 1
    blank = cpx.ball_from_json(A2, cpx.build_ball(A2, ["a"], 1).to_json())
    balls = [cpx.build_ball(d, ["a", "b", "c"], 4) for d in (A3, B3, H3)]
    balls += [cpx.build_ball(d1, ["a"], 3), blank]
    for ball in balls:
        want = json.dumps(ball.to_json(), ensure_ascii=False, sort_keys=True,
                          indent=2)
        assert ball.to_json_str() == want
    assert balls[-1].edges == () and balls[-1].inner == frozenset()


def test_bound_monotonicity():
    # vertices keep their witnesses, edges never disappear, and the
    # smaller ball is induced on its inner part (boundary edges may
    # arrive late: the A3 pair below has 14 of those, all non-inner)
    cases = [(A2, ["a", "b"], 3, 0), (A3, ["a", "b", "c"], 3, 14)]
    for d, types, L, late in cases:
        small = cpx.build_ball(d, types, L, max_chambers=10 ** 6)
        big = cpx.build_ball(d, types, L + 1, max_chambers=10 ** 6)

        def key(ball, vid):
            v = ball.vertex(vid)
            return (v.type, ga.serialize(v.witness))

        sk = {key(small, v.id): v.id for v in small.vertices}
        bk = {key(big, v.id): v.id for v in big.vertices}
        assert set(sk) <= set(bk)
        for i, j in small.edges:
            e = tuple(sorted((bk[key(small, i)], bk[key(small, j)])))
            assert big.has_edge(*e)
        missing = []
        rb = {v: k for k, v in bk.items()}
        for i, j in big.edges:
            if rb[i] in sk and rb[j] in sk:
                si, sj = sk[rb[i]], sk[rb[j]]
                if not small.has_edge(si, sj):
                    missing.append((si, sj))
                    assert not (si in small.inner and sj in small.inner)
        assert len(missing) == late


def test_coxeter_complex_frozen_shapes():
    cc2 = cpx.build_coxeter_complex(A2)
    assert (len(cc2.vertices), len(cc2.edges)) == (6, 6)
    deg = {}
    for i, j in cc2.edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert set(deg.values()) == {2}  # hexagon
    assert cc2.euler_characteristic == 0

    cc3 = cpx.build_coxeter_complex(A3)
    assert (len(cc3.vertices), len(cc3.edges)) == (14, 36)
    assert cc3.euler_characteristic == 2
    # vertex count per type matches |W| / |W_parabolic|
    by_type = {}
    for _, s, _ in cc3.vertices:
        by_type[s] = by_type.get(s, 0) + 1
    assert by_type == {"a": 4, "b": 6, "c": 4}

    ccb = cpx.build_coxeter_complex(B3)
    assert (len(ccb.vertices), len(ccb.edges)) == (26, 72)
    assert ccb.euler_characteristic == 2

    d1 = dynkin.DynkinDiagram(("a",), ())
    cc1 = cpx.build_coxeter_complex(d1)
    assert (len(cc1.vertices), len(cc1.edges)) == (2, 0)
    assert cc1.euler_characteristic == 2


def test_coxeter_complex_euler_characteristic_at_every_rank(monkeypatch):
    # the complex is a sphere of dimension |S| - 1 at every rank, rank 0 too
    A5 = path("abcde", [3, 3, 3, 3])
    empty = dynkin.DynkinDiagram((), ())
    assert cpx.build_coxeter_complex(A5).euler_characteristic == 2
    assert cpx.build_coxeter_complex(empty).euler_characteristic == 0
    minima = ga.GarsideTable.coset_minima

    def one_chamber_short(t, X):
        rep = list(minima(t, X))
        if not X:  # the chambers, the cosets of W_∅: count one fewer
            rep[-1] = 0
        return rep

    monkeypatch.setattr(ga.GarsideTable, "coset_minima", one_chamber_short)
    with pytest.raises(InvariantViolated, match="Euler characteristic 1 != 2"):
        cpx.build_coxeter_complex(A5)


def test_coxeter_complex_dihedral_cycle():
    for m in (3, 4, 5, 6):
        d = path("ab", [m])
        cc = cpx.build_coxeter_complex(d)
        assert len(cc.vertices) == 2 * m
        assert len(cc.edges) == 2 * m
        deg = {}
        for i, j in cc.edges:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        assert set(deg.values()) == {2}


def test_coxeter_complex_rejects_affine():
    aff = dynkin.DynkinDiagram(
        ("a", "b", "c"), (("a", "b", 3), ("b", "c", 3), ("a", "c", 3)))
    with pytest.raises(NotSpherical):
        cpx.build_coxeter_complex(aff)


def test_apartment_hexagon_through_identity():
    ap = cpx.apartment_cycle(A2)
    assert (len(ap.vertices), len(ap.edges)) == (6, 6)
    assert sum(1 for _, w in ap.vertices if w.is_identity()) == 2
    deg = {}
    for i, j in ap.edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert set(deg.values()) == {2}


def test_apartment_dihedral_embeds_in_ball():
    d = I24
    ap = cpx.apartment_cycle(d)
    assert (len(ap.vertices), len(ap.edges)) == (8, 8)
    b = cpx.build_ball(d, ["a", "b"], 3)
    loc = cpx.locate_apartment(ap, b)
    assert all(v is not None for v in loc)
    assert len(set(loc)) == len(loc)
    for i, j in ap.edges:
        e = (min(loc[i], loc[j]), max(loc[i], loc[j]))
        assert b.has_edge(*e)


def test_apartment_translated_by_base():
    base = ga.from_letters(I24, "ab")
    ap = cpx.apartment_cycle(I24, base=base)
    assert len(ap.vertices) == 8
    b = cpx.build_ball(I24, ["a", "b"], 4)
    loc = cpx.locate_apartment(ap, b)
    assert all(v is not None for v in loc)
    assert len(set(loc)) == 8


def _pairwise_distinct_cosets(verts):
    # oracle: no same-type pair differs by an element of A_{S-{s}}
    for i, (s, w) in enumerate(verts):
        for s2, w2 in verts[i + 1:]:
            if s == s2 and ga.in_parabolic(
                    ga.multiply(ga.inverse(w), w2),
                    set(w.group.vertices) - {s}):
                return False
    return True


def test_apartment_injectivity_check_agrees_with_pairwise_oracle():
    D4 = dynkin.DynkinDiagram(
        ("c", "a", "b", "d"), (("c", "a", 3), ("c", "b", 3), ("c", "d", 3)))
    for d in (A3, B3, H3, D4):
        bases = [None, ga.from_letters(d, [(d.vertices[0], -1),
                                           (d.vertices[1], 1),
                                           (d.vertices[1], 1)])]
        for base in bases:
            verts = list(cpx.apartment_cycle(d, base=base).vertices)
            assert cpx._distinct_cosets(d, verts)
            assert _pairwise_distinct_cosets(verts)
            # move one witness inside its coset onto another vertex's coset
            s = verts[-1][0]
            k = next(i for i, (s2, _) in enumerate(verts) if s2 == s)
            other = next(x for x in d.vertices if x != s)
            moved = ga.multiply(verts[k][1], ga.from_letters(d, [(other, -1)]))
            clash = verts[:-1] + [(s, moved)]
            assert not cpx._distinct_cosets(d, clash)
            assert not _pairwise_distinct_cosets(clash)


def test_apartment_multi_letter_generators():
    d = dynkin.path_diagram(["s1", "s2", "s3"], [4, 3])
    ap = cpx.apartment_cycle(d)
    cc = cpx.build_coxeter_complex(d)
    assert (len(ap.vertices), len(ap.edges)) == (26, 72)
    assert sorted(s for _, s, _ in cc.vertices) == sorted(
        s for s, _ in ap.vertices)
    assert len(cc.edges) == 72


def test_apartment_a3_ac_has_alternating_4cycles():
    ap = cpx.apartment_cycle(A3, ["a", "c"])
    assert (len(ap.vertices), len(ap.edges)) == (8, 12)
    adj = {i: set() for i in range(len(ap.vertices))}
    for i, j in ap.edges:
        adj[i].add(j)
        adj[j].add(i)
    cycles = []
    for quad in combinations(range(len(ap.vertices)), 4):
        for (p, q, r, s) in [(quad[0], quad[1], quad[2], quad[3]),
                             (quad[0], quad[1], quad[3], quad[2]),
                             (quad[0], quad[2], quad[1], quad[3])]:
            if (q in adj[p] and r in adj[q] and s in adj[r] and p in adj[s]
                    and r not in adj[p] and s not in adj[q]):
                cycles.append((p, q, r, s))
    assert len(cycles) == 6
    for c in cycles:
        t = [ap.vertices[v][0] for v in c]
        assert t[0] == t[2] and t[1] == t[3] and t[0] != t[1]


def test_link_requires_inner_vertex():
    b = cpx.build_ball(A2, ["a", "b"], 3)
    boundary = max(
        (v for v in b.vertices if v.id not in b.inner),
        key=lambda v: v.witness.size,
    )
    with pytest.raises(VertexNotInner):
        cpx.vertex_link(b, boundary.id)


def test_link_in_dihedral_ball_is_discrete():
    b = cpx.build_ball(A2, ["a", "b"], 3)
    v0 = b.locate(ga.identity(A2), "a")
    lk = cpx.vertex_link(b, v0)
    assert lk.vertices
    assert all(v.type == "b" for v in lk.vertices)
    assert lk.edges == ()


def test_link_a3_bhat_is_join_of_two_discrete_sets():
    b = cpx.build_ball(A3, ["a", "b", "c"], 5)
    v0 = b.locate(ga.identity(A3), "b")
    assert v0 in b.inner
    lk = cpx.vertex_link(b, v0)
    a_nb = [v for v in lk.vertices if v.type == "a"]
    c_nb = [v for v in lk.vertices if v.type == "c"]
    assert (len(a_nb), len(c_nb), len(lk.edges)) == (7, 7, 37)
    es = set(lk.edges)
    for i, j in lk.edges:
        assert b.vertex(i).type != b.vertex(j).type
    # complete bipartite on the inner part of the link
    a_in = [v for v in a_nb if v.id in b.inner]
    c_in = [v for v in c_nb if v.id in b.inner]
    assert len(a_in) == 4 and len(c_in) == 4
    for u in a_in:
        for w in c_in:
            assert (min(u.id, w.id), max(u.id, w.id)) in es


def test_link_a3_ahat_matches_a2_subball():
    # neighbors of the identity a-hat vertex, compared against the coset
    # graph that the same chambers generate inside the {b,c} subgroup
    b = cpx.build_ball(A3, ["a", "b", "c"], 5)
    va = b.locate(ga.identity(A3), "a")
    lk = cpx.vertex_link(b, va)
    t = ga.table(A3)
    d2 = path("bc", [3])
    t2 = ga.table(d2)
    pair_of = {}
    sub_v = {}
    sub_edges = set()
    link_pairs = set()
    for raw in _chambers(t, b.effective_bound):
        g = ga.GarsideElement(t.d, raw)
        if b.locate(g, "a") != va:
            continue
        link_pair = (b.locate(g, "b"), b.locate(g, "c"))
        link_pairs.add(link_pair)
        h = ga.restrict(g, {"b", "c"})
        raw2 = h.raw
        row = []
        for s in ("b", "c"):
            X = frozenset({"b", "c"}) - {s}
            key = t2.coset_key(raw2, X, b.effective_bound + 2)
            vid = sub_v.setdefault((s, key), len(sub_v))
            row.append(vid)
        sub_edges.add(tuple(row))
        prev = pair_of.get(link_pair)
        assert prev is None or prev == tuple(row)
        pair_of[link_pair] = tuple(row)
    link_vs = {v.id for v in lk.vertices}
    assert len(sub_v) == len(link_vs) == 86
    assert len(sub_edges) == len(lk.edges) == 151
    # chamber-wise correspondence is a bijection on vertices
    fwd = {}
    for (lb, lc), (sb, sc) in pair_of.items():
        for lv, sv in ((lb, sb), (lc, sc)):
            assert fwd.setdefault(lv, sv) == sv
    assert len(fwd) == 86 and len(set(fwd.values())) == 86
    # and sends link edges onto sub-ball edges exactly
    mapped = {tuple(sorted((fwd[i], fwd[j]))) for i, j in lk.edges}
    assert mapped == {tuple(sorted(e)) for e in sub_edges}


def test_folded_identity_matches_plain_ball():
    ident = dynkin.identity_folding(A3)
    plain = cpx.build_ball(A3, ["a", "b", "c"], 3)
    folded = cpx.build_folded_ball(ident, ["a", "b", "c"], 3)
    assert plain.to_json_str() == folded.to_json_str()


def test_folded_outer_merge_ball():
    q = dynkin.quotient_folding(A3, [("a", "c")])
    assert dynkin.validate_folding(q)
    fb = cpx.build_folded_ball(q, list(q.target.vertices), 3)
    assert (len(fb.vertices), len(fb.edges)) == (788, 1591)
    assert fb.type_parabolic["a+c"] == frozenset({"b"})
    assert fb.type_parabolic["b"] == frozenset({"a", "c"})
    plain = cpx.build_ball(A3, ["a", "b", "c"], 3)
    comp = cpx.folded_comparison(fb, q, plain)
    assert len(comp) == len(fb.vertices)
    for v in fb.vertices:
        want = 2 if v.type == "a+c" else 1
        assert len(comp[v.id]) == want
    # folded edges land on joined simplices in the plain ball
    rng = random.Random(20240819)
    sample = rng.sample(list(fb.edges), 200)
    for i, j in sample:
        g = fb.edge_witness(i, j)
        cells = []
        for v in (i, j):
            fiber = q.fiber(fb.vertex(v).type)
            cells.append([plain.locate(g, s) for s in fiber])
        flat = [x for cell in cells for x in cell]
        assert all(x is not None for x in flat)
        for x, y in combinations(flat, 2):
            if x != y:
                assert plain.has_edge(x, y)


def test_folded_ball_rejects_invalid_folding():
    bad = dynkin.SpecialFolding(
        source=A3,
        target=dynkin.DynkinDiagram(("x", "c"), (("x", "c", 3),)),
        vertex_map=(("a", "x"), ("b", "x"), ("c", "c")),
    )
    with pytest.raises(InvalidFolding):
        cpx.build_folded_ball(bad, ["x", "c"], 3)


def test_json_export_shape_and_roundtrip():
    # multi-letter names are written with spaces between the letters of a factor
    named = dynkin.parse_diagram("vertices s1 s2 t\nedge s1 s2 4; edge s2 t 3")
    for d in (A2, named):
        b = cpx.build_ball(d, d.vertices, 3)
        blob = b.to_json()
        assert set(blob) == {"vertices", "edges", "inner", "bound"}
        assert blob["bound"] == 3
        assert all(set(v) == {"id", "type", "witness"} for v in blob["vertices"])
        back = cpx.ball_from_json(d, json.dumps(blob))
        assert [(v.id, v.type, ga.serialize(v.witness)) for v in back.vertices] \
            == [(v.id, v.type, ga.serialize(v.witness)) for v in b.vertices]
        assert back.edges == b.edges
        assert back.inner == b.inner


def test_locate_after_json_roundtrip():
    b = cpx.build_ball(A2, ["a", "b"], 3)
    back = cpx.ball_from_json(A2, b.to_json_str())
    v = b.vertices[3]
    assert back.locate(v.witness, v.type) == 3
    for v in b.vertices:
        assert back.locate(v.witness, v.type) == v.id


def _keyer_ball(name, bound=None):
    """The ball of a KEYER_CASES entry at its radius (or a smaller bound):
    one type per parabolic S minus a fiber, folded where a fiber has two
    vertices."""
    d, parabolics, eff = KEYER_CASES[name]
    fibers = [tuple(s for s in d.vertices if s not in X) for X in parabolics]
    folding = dynkin.quotient_folding(d, [f for f in fibers if len(f) > 1])
    chambers = cpx._chamber_count(cpx._sequence_counts(ga.table(d), eff), eff)
    return cpx.build_folded_ball(folding, ["+".join(f) for f in fibers],
                                 eff if bound is None else bound,
                                 max_chambers=chambers)


LOADED_CASES = {**{name: (name, None) for name in KEYER_CASES},
                "A3 a+c at bound 3": ("A3 a+c", 3)}


@pytest.mark.parametrize("name,bound", LOADED_CASES.values(), ids=LOADED_CASES)
def test_a_loaded_ball_is_the_built_ball(name, bound):
    b = _keyer_ball(name, bound)
    assert b.effective_bound == (KEYER_CASES[name][2] if bound is None else bound)
    back = cpx.ball_from_json(b.ambient, b.to_json_str())
    assert back.to_json_str() == b.to_json_str()
    assert (back.effective_bound, back.chamber_count) == (b.effective_bound, b.chamber_count)
    for v in b.vertices:
        assert back.locate(v.witness, v.type) == v.id
    for i, j in b.edges:
        assert back.edge_witness(j, i) == b.edge_witness(i, j)


# ways to spoil the export of the A3 ball at bound 3, and what the refusal says
NOT_EXPORTS = {
    "edge to an unknown id": (lambda b: b["edges"].append([0, len(b["vertices"])]),
                              r"edges\[\d+\] is \[0, \d+\] where the rebuilt ball has None"),
    "reversed vertex list": (lambda b: b["vertices"].reverse(),
                             "vertex rows must hold ids 0, 1, 2"),
    "self-loop": (lambda b: b["edges"].insert(0, [0, 0]), r"edges\[0\] is \[0, 0\]"),
    "shuffled edges": (lambda b: random.Random(27).shuffle(b["edges"]), r"edges\[\d+\] is"),
    "unknown type": (lambda b: b["vertices"][-1].update(type="z"),
                     "type 'z' is not a vertex of the diagram"),
    "vertex inside a fiber": (lambda b: b["vertices"][0].update(type="a+c"),
                              "type 'a' is not a vertex of the diagram"),
    "overlapping fibers": (lambda b: [v.update(type=("a+b", "b+c")[v["id"] % 2])
                                      for v in b["vertices"]],
                           "vertex 'b' in two groups"),
    "bad witness": (lambda b: b["vertices"][-1].update(witness="Δ^0 · x"),
                    "unknown generator 'x'"),
    "inner vertex dropped": (lambda b: b["inner"].pop(),
                             r"inner\[\d+\] is None where the rebuilt ball has \d+"),
    "extra key": (lambda b: b.update(chambers=1),
                  "chambers is 1 where the rebuilt ball has None"),
    "no vertices": (lambda b: b.update(vertices=[]), "not a ball export"),
}


@pytest.mark.parametrize("name", list(NOT_EXPORTS))
def test_ball_from_json_refuses_what_is_not_an_export(name):
    spoil, message = NOT_EXPORTS[name]
    blob = cpx.build_ball(A3, ["a", "b", "c"], 3).to_json()
    spoil(blob)
    for form in (blob, json.dumps(blob)):
        with pytest.raises(ArtinKitError, match=message):
            cpx.ball_from_json(A3, form)


def test_edge_witness_names_a_pair_that_is_no_edge():
    b = cpx.build_ball(B3, ["a", "b", "c"], 2)
    with pytest.raises(PreconditionFailed, match=r"\(0, 0\) is not an edge of the ball"):
        b.edge_witness(0, 0)


def test_locate_names_an_unknown_type():
    b = cpx.build_ball(B3, ["a", "b", "c"], 2)
    with pytest.raises(PreconditionFailed, match="unknown vertex type 'z'"):
        b.locate(ga.identity(B3), "z")


def test_dot_export_mentions_every_vertex_and_edge():
    b = cpx.build_ball(A2, ["a", "b"], 2)
    dot = b.to_dot()
    assert dot.startswith("graph ball {")
    for v in b.vertices:
        assert f"v{v.id} [label=" in dot
    assert dot.count(" -- ") == len(b.edges)
