import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from artinkit import coxeter as cx
from artinkit import dynkin as dy
from artinkit.errors import CapExceeded, NotSpherical, UnknownGenerator

A2 = dy.diagram("ab", [("a", "b", 3)])
A3 = dy.path_diagram("abc", [3, 3])
B3 = dy.path_diagram("abc", [4, 3])
I24 = dy.diagram("ab", [("a", "b", 4)])
I26 = dy.diagram("ab", [("a", "b", 6)])
D4 = dy.diagram("abcd", [("a", "c", 3), ("b", "c", 3), ("c", "d", 3)])
AFF_TRIANGLE = dy.cycle_diagram("abc", [3, 3, 3])


def nf(d, word):
    return cx.normal_form(d, word)


def w(x):
    return "".join(x.word)


def test_normal_form_frozen():
    assert w(nf(A2, "aba")) == "aba"
    assert w(nf(A2, "bab")) == "aba"
    assert w(nf(A2, "aa")) == ""
    assert w(nf(A3, "acac")) == ""
    assert w(nf(A3, "ca")) == "ac"
    assert w(nf(B3, "abab")) == "abab"
    assert w(nf(B3, "ababa")) == "bab"
    with pytest.raises(UnknownGenerator):
        nf(A2, "az")


def test_normal_form_idempotent_and_oracle_consistent():
    rng = random.Random(20240817)
    model = oracles.model_A(3, "abc")
    for _ in range(250):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        x = nf(A3, word)
        assert nf(A3, w(x)).word == x.word
        # canonical word spells the same group element, and is ShortLex least
        assert model.prod(x.word) == model.prod(tuple(word))
        assert x.word == model.word[model.prod(tuple(word))]


def test_length_parity_and_subadditivity():
    rng = random.Random(7)
    for _ in range(150):
        u = nf(B3, "".join(rng.choice("abc") for _ in range(rng.randint(0, 9))))
        v = nf(B3, "".join(rng.choice("abc") for _ in range(rng.randint(0, 9))))
        uv = cx.multiply(u, v)
        assert len(uv.word) <= len(u.word) + len(v.word)
        assert (len(uv.word) - len(u.word) - len(v.word)) % 2 == 0


def test_deletion_condition():
    # a non-reduced word admits deletion of two letters preserving the element
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(2, 10)))
        x = nf(A3, word)
        if len(x.word) == len(word):
            continue
        found = False
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                shorter = word[:i] + word[i + 1:j] + word[j + 1:]
                if nf(A3, shorter) == x:
                    found = True
                    break
            if found:
                break
        assert found, word
        checked += 1
    assert checked > 30


ENUM_SIZES = [
    (A2, 6),
    (A3, 24),
    (B3, 48),
    (I24, 8),
    (I26, 12),
    (D4, 192),
]


def test_enumerate_group_sizes():
    for d, size in ENUM_SIZES:
        elems = cx.enumerate_group(d, 500)
        assert len(elems) == size
        assert len({x.word for x in elems}) == size
        # ShortLex order: sorted by (length, generator ranks)
        rank = {s: i for i, s in enumerate(d.vertices)}
        keys = [(len(x.word), tuple(rank[s] for s in x.word)) for x in elems]
        assert keys == sorted(keys)


def test_enumerate_caps_out_on_affine():
    with pytest.raises(CapExceeded):
        cx.enumerate_group(AFF_TRIANGLE, 1000)
    with pytest.raises(CapExceeded):
        cx.enumerate_group(A3, 5)


LONGEST = [
    (A2, "aba"),
    (A3, "abacba"),
    (B3, "ababcbabc"),
    (I24, "abab"),
    (I26, "ababab"),
    (D4, "abcabcdcabcd"),
]


def test_longest_element_frozen():
    for d, word in LONGEST:
        assert w(cx.longest_element(d)) == word


def test_longest_element_rejects_affine():
    with pytest.raises(NotSpherical):
        cx.longest_element(AFF_TRIANGLE)


def test_length_profiles():
    # number of elements per length (rank-generating function of weak order)
    profiles = {
        "A3": [1, 3, 5, 6, 5, 3, 1],
        "B3": [1, 3, 5, 7, 8, 8, 7, 5, 3, 1],
        "I26": [1, 2, 2, 2, 2, 2, 1],
        "D4": [1, 4, 9, 16, 23, 28, 30, 28, 23, 16, 9, 4, 1],
    }
    for d, tag in [(A3, "A3"), (B3, "B3"), (I26, "I26"), (D4, "D4")]:
        hist = Counter(len(x.word) for x in cx.enumerate_group(d, 500))
        assert [hist[i] for i in range(max(hist) + 1)] == profiles[tag]


def test_descent_distribution_a3():
    # Eulerian numbers for S4
    elems = cx.enumerate_group(A3, 100)
    eng = cx.engine(A3)
    hist = Counter(sum(len(eng.canonical(x.word + (s,))) < x.length for s in A3.vertices)
                   for x in elems)
    assert [hist[i] for i in range(4)] == [1, 11, 11, 1]


def test_support():
    assert cx.support(nf(A2, "")) == frozenset()
    assert cx.support(nf(A2, "aba")) == frozenset("ab")
    assert cx.support(nf(I24, "abab")) == frozenset("ab")
    assert cx.support(nf(A3, "aca")) == frozenset("c")  # aca = aac = c
    assert cx.support(nf(A3, "ca")) == frozenset("ac")


def test_gate_projection_frozen():
    r = cx.gate_projection(nf(A2, ""), {"a"}, "right")
    assert w(r.gate) == "" and w(r.tail) == ""
    r = cx.gate_projection(nf(A2, "ab"), {"a"}, "right")
    assert w(r.gate) == "ab" and w(r.tail) == ""
    r = cx.gate_projection(cx.longest_element(A3), {"a", "b"}, "right")
    assert len(r.gate.word) == 3 and len(r.tail.word) == 3
    # left side mirrors
    r = cx.gate_projection(nf(A2, "ba"), {"a"}, "left")
    assert w(cx.multiply(r.tail, r.gate)) == "ba"
    assert len(r.tail.word) + len(r.gate.word) == 2


def test_any_word_names_its_element():
    # aa is the identity; ca and bab are reduced words of ac and aba, not
    # their ShortLex ones
    cases = [(("a", "a"), ""), (("c", "a"), "ac"), (("b", "a", "b"), "aba")]
    for word, shortlex in cases:
        x, canon = cx.CoxeterElement(A3, word), nf(A3, shortlex)
        assert cx.support(x) == cx.support(canon)
        assert cx.multiply(x, x) == cx.multiply(canon, canon)
        assert cx.inverse(x) == cx.inverse(canon)
        for T in ({"a"}, {"b"}, {"a", "c"}):
            for side in ("left", "right"):
                assert cx.gate_projection(x, T, side) == cx.gate_projection(canon, T, side)
                assert cx.coset_elements(x, T, side) == cx.coset_elements(canon, T, side)
            assert cx.pair_gate(A3, T, x, {"b"}, x) == cx.pair_gate(A3, T, canon, {"b"}, canon)


def test_gate_projection_exhaustive_vs_oracle():
    cases = [
        (A3, oracles.model_A(3, "abc"), "abc"),
        (I26, oracles.model_I2(6, "ab"), "ab"),
    ]
    for d, model, gens in cases:
        for x in cx.enumerate_group(d, 500):
            for T in [{gens[0]}, {gens[-1]}, set(gens[:2]), set(gens)]:
                r = cx.gate_projection(x, T, "right")
                mn, coset = model.coset_min(model.prod(x.word), sorted(T))
                assert model.word[mn] == r.gate.word
                assert w(cx.multiply(r.gate, r.tail)) == w(x)
                assert len(x.word) == len(r.gate.word) + len(r.tail.word)


def _strip_gate(x, T, side):
    """Gate and tail by stripping descents on `side` one generator at a time."""
    eng = cx.engine(x.group)
    w, stripped = x.word, []
    while True:
        for s in sorted(T, key=eng.rank.get):
            shorter = eng.canonical(w + (s,) if side == "right" else (s,) + w)
            if len(shorter) < len(w):
                w = shorter
                stripped.append(s)
                break
        else:
            break
    tail = reversed(stripped) if side == "right" else stripped
    return w, eng.canonical(tuple(tail))


CORPUS = Path(__file__).parent / "corpus"

# finite groups, the infinite Ã2, and a cycle on the Z[c] engine (label 5)
GATE_DIAGRAMS = {
    "A3": A3, "B3": B3, "H3": dy.path_diagram("abc", [5, 3]), "D4": D4,
    "AFF_A2": AFF_TRIANGLE,
    "cyc_3435": dy.parse_diagram((CORPUS / "cyc_3435.dyn").read_text()),
}


@pytest.mark.parametrize("name", GATE_DIAGRAMS)
def test_gate_projection_both_sides_match_the_strip_loop(name):
    d = GATE_DIAGRAMS[name]
    gens = d.vertices
    subsets = [set(c) for r in range(len(gens) + 1)
               for c in combinations(gens, r)]
    rng = random.Random(17)
    for _ in range(40):
        x = nf(d, "".join(rng.choice(gens) for _ in range(rng.randint(0, 16))))
        for T in subsets:
            for side in ("right", "left"):
                r = cx.gate_projection(x, T, side)
                assert (r.gate.word, r.tail.word) == _strip_gate(x, T, side)
                assert r.distance == r.tail.length


@pytest.mark.parametrize("name", ["AFF_A2", "cyc_3435"])
def test_coset_elements_of_finite_parabolics_in_infinite_groups(name):
    # g·W_T is the gate times each element of W_T, enumerated on its own
    d = GATE_DIAGRAMS[name]
    gens = d.vertices
    eng = cx.engine(d)
    finite = [set(c) for r in range(1, len(gens)) for c in combinations(gens, r)
              if dy.is_spherical(d.induced(c))]
    assert finite
    rng = random.Random(name)
    for _ in range(8):
        x = nf(d, "".join(rng.choice(gens) for _ in range(rng.randint(0, 12))))
        for T in finite:
            W_T = [u.word for u in cx.enumerate_group(d.induced(T), 200)]
            for side in ("right", "left"):
                gate = cx.gate_projection(x, T, side).gate.word
                want = {eng.canonical(gate + u if side == "right" else u + gate)
                        for u in W_T}
                assert len(want) == len(W_T)
                got = [e.word for e in cx.coset_elements(x, T, side)]
                assert got == sorted(want, key=eng.key)


def test_coset_elements():
    elems = cx.coset_elements(nf(A3, "b"), {"a", "b"})
    assert len(elems) == 6
    assert nf(A3, "") in elems and nf(A3, "ab") in elems


def test_coset_elements_needs_a_finite_parabolic():
    # W_T = affine Ã2 is infinite; its rank-2 parabolics are not
    g = nf(AFF_TRIANGLE, "c")
    with pytest.raises(NotSpherical):
        cx.coset_elements(g, {"a", "b", "c"})
    assert len(cx.coset_elements(g, {"a", "b"})) == 6
    with pytest.raises(UnknownGenerator):
        cx.coset_elements(nf(A3, "b"), {"a", "z"})


def test_pair_gate_identical_cosets():
    g = nf(A3, "c")
    X, Y, pairs = cx.pair_gate(A3, {"a"}, g, {"a"}, g)
    assert sorted(w(x) for x in X) == sorted(w(y) for y in Y)
    assert all(x == y for x, y in pairs)


def test_pair_gate_frozen_cases():
    e = nf(A2, "")
    X, Y, pairs = cx.pair_gate(A2, {"a"}, e, {"b"}, e)
    assert [w(x) for x in X] == [""]
    assert [w(y) for y in Y] == [""]
    # A(3): W_{ab} and b·W_{bc} intersect in {e, b}, so the gate sets
    # coincide with the intersection and the bijection is the identity
    X, Y, pairs = cx.pair_gate(A3, {"a", "b"}, nf(A3, ""), {"b", "c"}, nf(A3, "b"))
    assert sorted(w(x) for x in X) == ["", "b"]
    assert sorted(w(y) for y in Y) == ["", "b"]
    for x, y in pairs:
        assert x == y


def test_pair_gate_projection_composition_is_identity():
    # composing the two nearest-point maps fixes X pointwise
    rng = random.Random(5)
    for _ in range(12):
        g1 = nf(B3, "".join(rng.choice("abc") for _ in range(rng.randint(0, 5))))
        g2 = nf(B3, "".join(rng.choice("abc") for _ in range(rng.randint(0, 5))))
        T1 = set(rng.sample("abc", rng.randint(1, 2)))
        T2 = set(rng.sample("abc", rng.randint(1, 2)))
        X, Y, pairs = cx.pair_gate(B3, T1, g1, T2, g2)
        back = {y: x for x, y in pairs}
        for x, y in pairs:
            assert back[y] == x


@pytest.mark.parametrize("name", ["H3", "D4"])
def test_pair_gate_against_brute_force_nearest_points(name):
    d, make = {
        "H3": (dy.path_diagram("abc", [5, 3]), lambda: oracles.model_H3("abc")),
        "D4": (D4, lambda: oracles.model_D(4, "abcd")),
    }[name]
    model = make()
    gens = list(d.vertices)
    rng = random.Random(11)
    for _ in range(40):
        g1 = nf(d, [rng.choice(gens) for _ in range(rng.randint(0, 12))])
        g2 = nf(d, [rng.choice(gens) for _ in range(rng.randint(0, 12))])
        # proper subsets, the empty one included: a full coset is the whole
        # group, which the H3 model materializes in seconds
        T1, T2 = (set(rng.sample(gens, rng.randint(0, len(gens) - 1)))
                  for _ in range(2))
        X, Y, pairs = cx.pair_gate(d, T1, g1, T2, g2)
        best, bx, by, nearest = oracles.nearest_points(
            model, model.prod(g1.word), T1, model.prod(g2.word), T2)
        for part, brute in ((X, bx), (Y, by)):
            assert len(part) == len(brute)
            assert {model.prod(u.word) for u in part} == brute
            keys = [tuple(gens.index(s) for s in u.word) for u in part]
            assert keys == sorted(keys)
        assert [x for x, _ in pairs] == X
        for x, y in pairs:
            assert nearest[model.prod(x.word)] == {model.prod(y.word)}
            assert cx.multiply(cx.inverse(x), y).length == best


# -- geometric engine ----------------------------------------------------------


def _poincare(degrees):
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1)): lengths per level."""
    series = [1]
    for k in degrees:
        nxt = [0] * (len(series) + k - 1)
        for i, c in enumerate(series):
            for j in range(k):
                nxt[i + j] += c
        series = nxt
    return series


def test_rank4_length_profiles_from_degrees():
    cases = [
        (dy.path_diagram("abcd", [4, 3, 3]), (2, 4, 6, 8)),
        (dy.path_diagram("abcd", [3, 4, 3]), (2, 6, 8, 12)),
    ]
    for d, degrees in cases:
        elems = cx.enumerate_group(d, 2000)
        assert len(elems) == math.prod(degrees)
        hist = Counter(x.length for x in elems)
        assert [hist[i] for i in range(max(hist) + 1)] == _poincare(degrees)
        assert cx.longest_element(d).length == sum(k - 1 for k in degrees)


@pytest.mark.parametrize("m", range(7, 13))
def test_ring_engine_on_i2_matches_oracle(m):
    d = dy.diagram("ab", [("a", "b", m)])
    model = oracles.model_I2(m, "ab")
    # one engine class; m outside {3, 4, 6} puts the coordinates in
    # Z[2cos(2π/m)], of degree φ(m)/2
    eng = cx.engine(d)
    assert type(eng) is cx._Engine
    assert eng._deg == sum(math.gcd(k, m) == 1 for k in range(m)) // 2
    elems = cx.enumerate_group(d, 100)
    assert [x.word for x in elems] == sorted(
        (model.word[x] for x in model.elements),
        key=lambda wd: (len(wd), wd))
    rng = random.Random(77 + m)
    for _ in range(120):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 16)))
        assert nf(d, word).word == model.word[model.prod(tuple(word))]


@pytest.mark.parametrize("m,surd", [(5, (-1, 5, 2)), (8, (0, 2, 1)),
                                    (10, (1, 5, 2)), (12, (0, 3, 1))])
def test_ring_sign_against_quadratic_surds(m, surd):
    # c = 2cos(2π/m) = (p + √D)/q, so a + b·c has the sign of x + b·√D with
    # x = q·a + b·p, decided by comparing x² with D·b²; values next to zero
    # come from the best rational approximations a/b of c
    p, D, q = surd
    eng = cx.engine(dy.diagram("ab", [("a", "b", m)]))
    c = 2 * math.cos(2 * math.pi / m)
    rng = random.Random(m)
    values = [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(300)]
    for bound in (3, 10, 100, 10**4, 10**6):
        near = Fraction(c).limit_denominator(bound)
        values += [(near.numerator, -near.denominator),
                   (-near.numerator, near.denominator)]
    for a, b in values:
        x = q * a + b * p
        negative = (x < 0 if x * x > D * b * b else b < 0)
        assert (eng._sign((a, b)) < 0) == negative, (a, b)


def _cycle_diagrams():
    out = []
    for path in sorted(CORPUS.glob("*.dyn")):
        d = dy.parse_diagram(path.read_text())
        cyclic = d.is_connected() and all(
            d.degree(v) == 2 for v in d.vertices)
        if cyclic and set(m for _, _, m in d.edges) & {4, 5, 6, dy.INFINITY}:
            out.append(d)
    return out


def test_geometric_engine_on_cycle_diagrams():
    diagrams = _cycle_diagrams()
    assert len(diagrams) >= 5
    # and cycles with an infinite label and with labels 7 and 5, which the
    # corpus lacks; the latter puts the coordinates in Z[2cos(2π/35)]
    diagrams.append(dy.cycle_diagram("abc", [3, dy.INFINITY, 4]))
    diagrams.append(dy.cycle_diagram("abcd", [3, 7, 4, 5]))
    rng = random.Random(4321)
    for d in diagrams:
        gens = d.vertices
        mgraph = oracles.diagram_mgraph(gens, list(d.edges))
        for _ in range(40):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 14)))
            x = nf(d, word)
            assert nf(d, x.word) == x
            # random braid moves and inserted squares keep the element
            variant = word
            for _ in range(6):
                moves = oracles.braid_moves(variant, mgraph)
                if moves and rng.random() < 0.7:
                    variant = rng.choice(moves)
                else:
                    i = rng.randint(0, len(variant))
                    s = rng.choice(gens)
                    variant = variant[:i] + (s, s) + variant[i:]
            assert nf(d, variant) == x, (d.vertices, word, variant)
            # multiplying by a generator changes the length by exactly one
            for s in gens:
                xs = cx.multiply(x, nf(d, s))
                assert abs(xs.length - x.length) == 1
                assert cx.multiply(xs, nf(d, s)) == x


TITS_DIAGRAMS = {
    "path_7_3": dy.path_diagram("abc", [7, 3]),
    "triangle_3_3_7": dy.cycle_diagram("abc", [3, 3, 7]),
    **{name: dy.parse_diagram((CORPUS / f"{name}.dyn").read_text())
       for name in ("cyc_3435", "cyc_3533", "cyc_3535")},
}


@pytest.mark.parametrize("name", TITS_DIAGRAMS)
def test_ring_engine_agrees_with_tits_rewriting(name):
    # hyperbolic (2,3,7) and (3,3,7) groups, and the corpus cycles whose
    # label 5 has the entries (−φ², −1)
    d = TITS_DIAGRAMS[name]
    mgraph = oracles.diagram_mgraph(d.vertices, list(d.edges))
    rng = random.Random(name)
    for _ in range(30):
        word = tuple(rng.choice(d.vertices) for _ in range(rng.randint(0, 12)))
        x = nf(d, word)
        reduced, closure = oracles.tits_reduce(word, mgraph)
        assert len(x.word) == len(reduced) and x.word in closure, word
