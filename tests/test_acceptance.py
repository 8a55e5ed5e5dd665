"""Release acceptance suite: one test per shipping criterion.

Expected values come from the reference models in oracles.py (explicit
permutation / signed-permutation / dihedral / reflection-matrix groups,
brute-force divisor posets, defining-relation rewriting) or from golden
files under tests/golden, never from the code paths under test. Stated
runtime ceilings are asserted where a criterion carries one.
"""

import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import artinkit.coxeter as cx
from artinkit import checks, complexes, dynkin, garside
from oracles import (
    GarsideOracle,
    diagram_mgraph,
    model_A,
    model_B,
    model_H3,
    model_I2,
    model_product,
    monoid_equal,
    typed_isomorphism,
)

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"

A2_TEXT = "vertices a b\nedge a b 3\n"
I24_TEXT = "vertices a b\nedge a b 4\n"
A3_TEXT = "vertices a b c\nedge a b 3\nedge b c 3\n"
B3_TEXT = "vertices a b c\nedge a b 4\nedge b c 3\n"
H3_TEXT = "vertices a b c\nedge a b 5\nedge b c 3\n"
D4_TEXT = "vertices a b c d\nedge a b 3\nedge b c 3\nedge b d 3\n"

CORPUS_FILES = [
    "a1.dyn", "a3.dyn", "affa2.dyn", "affa3.dyn", "affa4.dyn", "afff4.dyn",
    "b3.dyn", "cyc_33334.dyn", "cyc_3433.dyn", "cyc_3434.dyn",
    "cyc_3435.dyn", "cyc_3533.dyn", "cyc_3535.dyn", "d4.dyn", "e6.dyn",
    "f4.dyn", "fig_tree.dyn", "h3.dyn", "k4.dyn",
]

OVERALL_EXIT = {"applicable": 0, "conditional": 1, "none": 6}


def diagram(text):
    return dynkin.parse_diagram(text)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "artinkit", *argv], capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def ball_a3():
    d = diagram(A3_TEXT)
    return d, complexes.build_ball(d, ["a", "b", "c"], 5)


def test_criterion_01_dihedral_girth():
    for m in (3, 4, 5, 6):
        d = diagram(f"vertices a b\nedge a b {m}\n")
        t0 = time.monotonic()
        ball = complexes.build_ball(d, ["a", "b"], 2 * m)
        inner, upper = checks.girth_report(ball, ["a", "b"])
        elapsed = time.monotonic() - t0
        assert inner == 2 * m
        assert upper == 2 * m
        assert elapsed < 10.0


def test_criterion_02_bowtie_free_on_rank3_balls(ball_a3):
    deadline = time.monotonic() + 300.0
    d3, ball3 = ball_a3
    v3 = checks.check_bowtie_free(ball3, d3.path_order())
    assert v3.status == checks.VERIFIED
    assert v3.parameter("nontrivial") >= 50
    db = diagram(B3_TEXT)
    ballb = complexes.build_ball(db, ["a", "b", "c"], 5, max_chambers=160_000)
    vb = checks.check_bowtie_free(ballb, db.path_order())
    assert vb.status == checks.VERIFIED
    assert vb.parameter("nontrivial") >= 50
    assert time.monotonic() < deadline


def test_criterion_03_labeled_4wheel(ball_a3):
    deadline = time.monotonic() + 300.0
    _, ball = ball_a3
    verdict = checks.check_labeled_4wheel(ball)
    assert verdict.status == checks.VERIFIED
    assert verdict.parameter("cycles") >= 20
    assert verdict.parameter("unfilled") == 0
    assert time.monotonic() < deadline


def _divisor_poset(model):
    """Brute poset of the positive elements of canonical length <= 2.

    Elements are oracle normal forms; divisibility comes from BFS generator
    multiplication inside the set (positive prefixes never leave it because
    canonical length is monotone along left-divisibility).
    """
    go = GarsideOracle(model)
    forms = set()
    for u in model.elements:
        for v in model.elements:
            forms.add(go.normalize(0, (u, v)))
    S = sorted(forms, key=repr)
    idx = {nf: i for i, nf in enumerate(S)}
    gen_pieces = [go.normalize(0, (model.gens[s],)) for s in model.order]
    multiples = []
    for nf in S:
        reach = {idx[nf]}
        frontier = [nf]
        while frontier:
            nxt = []
            for x in frontier:
                for piece in gen_pieces:
                    y = go.multiply(x, piece)
                    j = idx.get(y)
                    if j is not None and j not in reach:
                        reach.add(j)
                        nxt.append(y)
            frontier = nxt
        multiples.append(frozenset(reach))
    divisors = [set() for _ in S]
    for i, ups in enumerate(multiples):
        for j in ups:
            divisors[j].add(i)
    return go, S, [frozenset(x) for x in divisors], multiples


def test_criterion_04_gcd_lcm_against_divisor_poset():
    cases = (
        (A3_TEXT, lambda: model_A(3, "abc")),
        (B3_TEXT, lambda: model_B(3, "abc")),
    )
    for text, make in cases:
        d = diagram(text)
        model = make()
        go, S, divisors, multiples = _divisor_poset(model)
        w0_word = model.word[model.w0]
        elements = []
        for (k, factors) in S:
            letters = list(w0_word) * k
            for f in factors:
                letters.extend(model.word[f])
            elements.append(garside.from_letters(d, [(s, 1) for s in letters]))
        dsize = [len(x) for x in divisors]
        msize = [len(x) for x in multiples]
        n = len(S)
        for i in range(n):
            for j in range(n):
                common = divisors[i] & divisors[j]
                g = max(common, key=lambda k: (dsize[k], k))
                assert divisors[g] == common, "poset meet must exist"
                ups = multiples[i] & multiples[j]
                l = max(ups, key=lambda k: (msize[k], k))
                assert multiples[l] == ups, "poset join must exist"
                assert garside.left_gcd(elements[i], elements[j]) == elements[g]
                assert garside.left_lcm(elements[i], elements[j]) == elements[l]


WORD_SEEDS = {"A2": 11, "I24": 12, "A3": 13}


def _equal_variant(rng, word, gens, mgraph, signed):
    """Rewrite `word` into a provably equal word: free pairs, commuting
    swaps, alternating-window flips. Never exceeds length 10."""
    out = list(word)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 and signed and len(out) <= 8:
            s = rng.choice(gens)
            i = rng.randint(0, len(out))
            pair = [(s, 1), (s, -1)] if rng.random() < 0.5 else [(s, -1), (s, 1)]
            out[i:i] = pair
        elif op == 1 and len(out) >= 2:
            i = rng.randrange(len(out) - 1)
            (s1, e1), (s2, e2) = out[i], out[i + 1]
            if s1 != s2 and mgraph[frozenset((s1, s2))] == 2:
                out[i], out[i + 1] = out[i + 1], out[i]
        elif op == 2:
            starts = list(range(len(out)))
            rng.shuffle(starts)
            done = False
            for i in starts:
                if done:
                    break
                for pair, m in mgraph.items():
                    if m < 3 or i + m > len(out):
                        continue
                    window = out[i:i + m]
                    signs = {e for (_, e) in window}
                    if len(signs) != 1:
                        continue
                    sign = signs.pop()
                    seq = [s for (s, _) in window]
                    s, t = sorted(pair)
                    pat_s = [s if k % 2 == 0 else t for k in range(m)]
                    pat_t = [t if k % 2 == 0 else s for k in range(m)]
                    if seq == pat_s:
                        out[i:i + m] = [(x, sign) for x in pat_t]
                        done = True
                        break
                    if seq == pat_t:
                        out[i:i + m] = [(x, sign) for x in pat_s]
                        done = True
                        break
    return out


def test_criterion_05_word_problem_oracle():
    deadline = time.monotonic() + 300.0
    groups = (
        ("A2", A2_TEXT, lambda: model_A(2, "ab")),
        ("I24", I24_TEXT, lambda: model_I2(4, "ab")),
        ("A3", A3_TEXT, lambda: model_A(3, "abc")),
    )
    for name, text, make in groups:
        d = diagram(text)
        gens = list(d.vertices)
        model = make()
        go = GarsideOracle(model)
        mgraph = diagram_mgraph(gens, list(d.edges))
        rng = random.Random(WORD_SEEDS[name])
        rewrite_checked = 0
        for i in range(1000):
            positive = i % 5 == 4
            if positive:
                w1 = [(rng.choice(gens), 1) for _ in range(rng.randint(0, 10))]
            else:
                w1 = [(rng.choice(gens), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 10))]
            if rng.random() < 0.4:
                w2 = _equal_variant(rng, w1, gens, mgraph, signed=not positive)
            elif positive:
                w2 = [(rng.choice(gens), 1) for _ in range(rng.randint(0, 10))]
            else:
                w2 = [(rng.choice(gens), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 10))]
            g1 = garside.from_letters(d, w1)
            g2 = garside.from_letters(d, w2)
            engine_eq = garside.serialize(g1) == garside.serialize(g2)
            oracle_eq = go.from_signed(w1) == go.from_signed(w2)
            assert engine_eq == oracle_eq, (name, w1, w2)
            if positive:
                # second, weaker oracle: defining-relation rewriting only
                rewrite_eq = monoid_equal(
                    [s for (s, _) in w1], [s for (s, _) in w2], mgraph
                )
                assert engine_eq == rewrite_eq, (name, w1, w2)
                rewrite_checked += 1
        assert rewrite_checked == 200
    assert time.monotonic() < deadline


def test_criterion_06_coset_gates_exhaustive():
    cases = (
        (A3_TEXT, lambda: model_A(3, "abc")),
        (B3_TEXT, lambda: model_B(3, "abc")),
    )
    for text, make in cases:
        d = diagram(text)
        model = make()
        gens = list(d.vertices)
        W = cx.enumerate_group(d, 100)
        subsets = [
            frozenset(c)
            for r in range(len(gens) + 1)
            for c in combinations(gens, r)
        ]
        for x in W:
            mx = model.prod(x.word)
            for T in subsets:
                res = cx.gate_projection(x, T, side="right")
                brute, _ = model.coset_min(mx, T)
                assert model.prod(res.gate.word) == brute
                assert set(res.tail.word) <= set(T)
                assert res.gate.length + res.tail.length == x.length
                assert model.mul(
                    model.prod(res.gate.word), model.prod(res.tail.word)
                ) == mx
                resl = cx.gate_projection(x, T, side="left")
                brutel = model.inv(model.coset_min(model.inv(mx), T)[0])
                assert model.prod(resl.gate.word) == brutel
                assert model.mul(
                    model.prod(resl.tail.word), model.prod(resl.gate.word)
                ) == mx

        # nearest-point bijection between every pair of standard cosets
        cosets = []
        for T in subsets:
            by_coset = {}
            for u in model.elements:
                mn, members = model.coset_min(u, T)
                by_coset[members] = mn
            for members, mn in sorted(
                by_coset.items(), key=lambda kv: model.word[kv[1]]
            ):
                cosets.append((T, cx.normal_form(d, model.word[mn]), members))
        for (T1, x1, c1) in cosets:
            for (T2, x2, c2) in cosets:
                X, Y, pairs = cx.pair_gate(d, T1, x1, T2, x2)
                dist = {
                    (u, v): model.length[model.mul(model.inv(u), v)]
                    for u in c1
                    for v in c2
                }
                best = min(dist.values())
                bx = {u for u in c1 if min(dist[(u, v)] for v in c2) == best}
                by = {v for v in c2 if min(dist[(u, v)] for u in c1) == best}
                assert {model.prod(x.word) for x in X} == bx
                assert {model.prod(y.word) for y in Y} == by
                assert len(pairs) == len(bx) == len(by)
                for (px, py) in pairs:
                    mpx, mpy = model.prod(px.word), model.prod(py.word)
                    assert dist[(mpx, mpy)] == best
                    assert all(
                        dist[(mpx, v)] > best for v in c2 if v != mpy
                    )
                    assert all(
                        dist[(u, mpy)] > best for u in c1 if u != mpx
                    )


def test_criterion_07_vertex_link_matches_rank2_subball(ball_a3):
    d3, ball = ball_a3
    eff = ball.effective_bound
    center = next(
        v for v in ball.vertices if v.type == "a" and v.witness.is_identity()
    )
    assert center.id in ball.inner
    lk = complexes.vertex_link(ball, center.id)

    # rank-2 chambers re-enumerated under the ambient size bound
    d2 = diagram("vertices b c\nedge b c 3\n")
    W2 = cx.enumerate_group(d2, 10)
    simples = [
        garside.from_letters(d2, [(s, 1) for s in w.word])
        for w in W2
        if w.length
    ]
    elements = {}
    for k in range(-eff, eff + 1):
        frontier = [garside.power(garside.delta(d2), k)]
        elements.setdefault(garside.serialize(frontier[0]), frontier[0])
        for _ in range(eff - abs(k)):
            frontier = [
                garside.multiply(g, s) for g in frontier for s in simples
            ]
            for g in frontier:
                elements.setdefault(garside.serialize(g), g)
    chambers = [
        g
        for g in elements.values()
        if g.size <= eff and garside.embed(g, d3).size <= eff
    ]

    reps, labels = [], []
    edges = set()

    def vertex(h, t):
        other = tuple(s for s in ("b", "c") if s != t)
        for i, (rt, rh) in enumerate(reps):
            if rt == t and garside.in_parabolic(
                garside.multiply(garside.inverse(rh), h), other
            ):
                return i
        reps.append((t, h))
        labels.append(t)
        return len(reps) - 1

    for h in chambers:
        edges.add(tuple(sorted((vertex(h, "b"), vertex(h, "c")))))

    v1 = [v.id for v in lk.vertices]
    c1 = {v.id: v.type for v in lk.vertices}
    v2 = list(range(len(reps)))
    c2 = dict(enumerate(labels))
    assert len(v1) == len(v2) == 86
    assert len(lk.edges) == len(edges) == 151
    mapping = typed_isomorphism(
        v1, list(lk.edges), c1, v2, sorted(edges), c2
    )
    assert mapping is not None
    assert all(c1[u] == c2[w] for u, w in mapping.items())


def _parabolic_ball_link(d, s, eff):
    """The coset complex of A_{S∖s} over its maximal parabolics, as (vertex
    types, edges): a vertex of type t is a coset h·A_{S∖{s,t}}, and the
    chambers h, the elements of A_{S∖s} of size at most eff both in A_{S∖s}
    and in A_S, join their vertices pairwise. Enumerated inside the
    parabolic alone, from its own Δ powers and simples."""
    sub = d.induced([v for v in d.vertices if v != s])
    simples = [garside.from_letters(sub, [(u, 1) for u in w.word])
               for w in cx.enumerate_group(sub, 10_000) if w.length]
    elements = {}
    for k in range(-eff, eff + 1):
        frontier = [garside.delta(sub, k)]
        elements.setdefault(garside.serialize(frontier[0]), frontier[0])
        for _ in range(eff - abs(k)):
            frontier = [garside.multiply(g, x) for g in frontier for x in simples]
            for g in frontier:
                elements.setdefault(garside.serialize(g), g)
    reps, types, edges = [], [], set()

    def vertex(h, t):
        rest = [u for u in sub.vertices if u != t]
        for i, (rt, rh) in enumerate(reps):
            if rt == t and garside.in_parabolic(
                    garside.multiply(garside.inverse(rh), h), rest):
                return i
        reps.append((t, h))
        types.append(t)
        return len(reps) - 1

    for h in elements.values():
        if h.size <= eff and garside.embed(h, d).size <= eff:
            row = [vertex(h, t) for t in sub.vertices]
            edges.update(combinations(sorted(row), 2))
    return types, sorted(edges)


# the base vertex of every type, at the default max_chambers; B3's type b
# has the reducible link A1×A1, and D4's type b the link A1×A1×A1
LINK_DIAGRAMS = {"A3": (A3_TEXT, 5), "B3": (B3_TEXT, 4), "H3": (H3_TEXT, 4),
                 "D4": (D4_TEXT, 3)}
LINK_CASES = {f"{name}-{s}": (text, bound, s)
              for name, (text, bound) in LINK_DIAGRAMS.items()
              for s in diagram(text).vertices}


@pytest.mark.parametrize("text,bound,s", LINK_CASES.values(), ids=LINK_CASES)
def test_vertex_link_is_the_parabolic_ball_at_every_vertex_type(text, bound, s):
    d = diagram(text)
    ball = complexes.build_ball(d, list(d.vertices), bound)
    base = next(v for v in ball.vertices if v.type == s and v.witness.is_identity())
    lk = complexes.vertex_link(ball, base.id)
    types, edges = _parabolic_ball_link(d, s, ball.effective_bound)
    v1 = [v.id for v in lk.vertices]
    c1 = {v.id: v.type for v in lk.vertices}
    assert len(v1) == len(types) and len(lk.edges) == len(edges)
    mapping = typed_isomorphism(v1, list(lk.edges), c1,
                                list(range(len(types))), edges, dict(enumerate(types)))
    assert mapping is not None


CONJUGATOR_CATALOG = [
    ("A1", "vertices a\n", lambda: model_A(1, "a")),
    ("A2", A2_TEXT, lambda: model_A(2, "ab")),
    ("A3", A3_TEXT, lambda: model_A(3, "abc")),
    ("B2", I24_TEXT, lambda: model_I2(4, "ab")),
    ("B3", B3_TEXT, lambda: model_B(3, "abc")),
    ("I25", "vertices a b\nedge a b 5\n", lambda: model_I2(5, "ab")),
    ("I26", "vertices a b\nedge a b 6\n", lambda: model_I2(6, "ab")),
    ("H3", H3_TEXT, lambda: model_H3("abc")),
    ("A1xA1", "vertices a b\n",
     lambda: model_product(model_A(1, "a"), model_A(1, "b"))),
    ("A1xA2", "vertices a b c\nedge b c 3\n",
     lambda: model_product(model_A(1, "a"), model_A(2, "bc"))),
]


def test_criterion_08_elementary_conjugators():
    for name, text, make in CONJUGATOR_CATALOG:
        d = diagram(text)
        model = make()
        go = GarsideOracle(model)
        gens = list(d.vertices)
        ogen = {s: go.normalize(0, (model.gens[s],)) for s in gens}
        for size in range(len(gens)):
            for X in combinations(gens, size):
                for t in gens:
                    if t in X:
                        continue
                    r, X2 = garside.elementary_conjugator(d, frozenset(X), t)
                    R = go.from_signed(garside.letters_of(r))
                    Ri = go.inverse(R)
                    image = set()
                    for s in X:
                        conj = go.multiply(go.multiply(R, ogen[s]), Ri)
                        hits = [u for u in gens if go.equal(conj, ogen[u])]
                        assert len(hits) == 1, (name, X, t, s)
                        image.add(hits[0])
                    assert image == set(X2), (name, X, t)
                    for s2 in X2:
                        back = go.multiply(go.multiply(Ri, ogen[s2]), R)
                        assert any(
                            go.equal(back, ogen[u]) for u in X
                        ), (name, X, t, s2)


def test_criterion_09_gate_regression_corpus():
    files = sorted(CORPUS.glob("*.dyn"))
    assert [p.name for p in files] == CORPUS_FILES
    for p in files:
        golden = (GOLDEN / f"{p.stem}.txt").read_text()
        r = run_cli("gate", str(p))
        assert r.stdout == golden, p.name
        overall = golden.rstrip("\n").rsplit("overall: ", 1)[1]
        assert r.returncode == OVERALL_EXIT[overall], p.name
    table = run_cli("gate", str(CORPUS))
    assert table.stdout == (GOLDEN / "gate_table.txt").read_text()
    assert table.returncode == 6  # worst verdict in the corpus


def test_criterion_10_byte_identity():
    a3 = str(CORPUS / "a3.dyn")
    b3 = str(CORPUS / "b3.dyn")
    balls = [
        ["ball", a3, "--bound", "3", "--format", "json"],
        ["ball", b3, "--bound", "3", "--format", "dot"],
        ["check", "order", a3, "--bound", "3"],
        ["check", "bowtie", a3, "--bound", "3", "--format", "json"],
        ["check", "4wheel", a3, "--bound", "3"],
        ["check", "girth", a3, "--bound", "3", "--types", "a,c"],
    ]
    for base in balls:
        r1 = run_cli(*base)
        r2 = run_cli(*base)
        assert (r1.returncode, r1.stdout, r1.stderr) == (
            r2.returncode, r2.stdout, r2.stderr), base
    others = [
        ["classify", *(str(p) for p in sorted(CORPUS.glob("*.dyn")))],
        ["gate", str(CORPUS)],
        ["word", a3, "a", "b", "a", "c", "b^-1"],
        ["fuzz", a3, "--seed", "3", "--count", "25"],
    ]
    for base in others:
        r1 = run_cli(*base)
        r2 = run_cli(*base)
        assert (r1.returncode, r1.stdout) == (r2.returncode, r2.stdout), base
