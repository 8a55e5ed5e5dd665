import itertools
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import oracles
from artinkit import cli, complexes
from artinkit import coxeter as cx
from artinkit import dynkin as dy
from artinkit import garside as ga
from artinkit.errors import (
    CapExceeded,
    GroupMismatch,
    NotPositive,
    NotSpherical,
    PreconditionFailed,
)

A1 = dy.DynkinDiagram(("a",), ())
A2 = dy.diagram("ab", [("a", "b", 3)])
A3 = dy.path_diagram("abc", [3, 3])
B3 = dy.path_diagram("abc", [4, 3])
I24 = dy.diagram("ab", [("a", "b", 4)])
H3 = dy.path_diagram("abc", [5, 3])
F4 = dy.path_diagram("abcd", [3, 4, 3])
H4 = dy.path_diagram("abcd", [5, 3, 3])
E6 = dy.diagram("abcdef", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3),
                           ("d", "e", 3), ("c", "f", 3)])


def fl(d, letters):
    return ga.from_letters(d, letters)


def test_from_letters_frozen():
    x = fl(A2, "abab")
    assert (x.delta_power, [str_simple(s) for s in x.factors]) == (1, ["b"])
    assert fl(A2, [("a", 1), ("a", -1)]).is_identity()
    assert fl(A2, "aba") == fl(A2, "bab") == ga.delta(A2)
    assert fl(A3, "abacba") == ga.delta(A3)


def test_from_letters_takes_only_signs_plus_and_minus_one():
    for sign in (0, 5, -2):
        with pytest.raises(PreconditionFailed, match=rf"letter \('a', {sign}\)"):
            fl(B3, [("b", 1), ("a", sign)])
    assert fl(B3, [("a", 1), ("a", -1)]).is_identity()


def str_simple(s):
    return "".join(s.underlying.word)


def test_normal_form_structure():
    # no identity factors, first factor never the full twist, adjacent
    # factors left-greedy
    rng = random.Random(3)
    t = ga.table(A3)
    for _ in range(200):
        letters = [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(rng.randint(0, 9))]
        g = fl(A3, letters)
        idx = [t.words.index(s.underlying.word) for s in g.factors]
        assert 0 not in idx
        if idx:
            assert idx[0] != t.w0i
        for u, v in zip(idx, idx[1:]):
            assert t.is_normal(u, v)


NF_CASES = [
    (A3, "abacba", 1, []),
    (A3, "cba", 0, ["cba"]),
    (A3, "abcabc", 0, ["abacb", "c"]),
    (A3, "aabbcc", 0, ["a", "ab", "bc", "c"]),
    (B3, "ababcbabc", 1, []),
    (B3, "abcabc", 0, ["ababcb"]),
    (B3, "cabab", 0, ["acbab"]),
]


def test_positive_normal_forms_frozen():
    for d, word, dp, factors in NF_CASES:
        g = fl(d, word)
        assert g.delta_power == dp and [str_simple(s) for s in g.factors] == factors


def test_multiply_inverse():
    a = ga.generator(A2, "a")
    b = ga.generator(A2, "b")
    assert ga.multiply(a, ga.inverse(a)).is_identity()
    assert ga.multiply(ga.delta(A2), ga.delta(A2)) == ga.delta(A2, 2)
    ab = ga.multiply(a, b)
    assert ab.delta_power == 0 and [str_simple(s) for s in ab.factors] == ["ab"]
    with pytest.raises(GroupMismatch):
        ga.multiply(a, ga.generator(A3, "a"))


def test_word_problem_vs_oracle():
    # signed words are equal iff the brute rewriting oracle says so
    rng = random.Random(20240818)
    model = oracles.model_A(2, "ab")
    oga = oracles.GarsideOracle(model)
    seen = {}
    for _ in range(120):
        letters = [(rng.choice("ab"), rng.choice([1, -1])) for _ in range(rng.randint(0, 8))]
        g = fl(A2, letters)
        key = (g.delta_power, tuple(str_simple(s) for s in g.factors))
        acc = (0, ())
        for s, sign in letters:
            piece = oga.from_word([s])
            if sign < 0:
                piece = oga.inverse(piece)
            acc = oga.multiply(acc, piece)
        okey = (acc[0], tuple("".join(model.word[f]) for f in acc[1]))
        assert key == okey, letters
        seen.setdefault(okey, key)


def test_cancellativity():
    rng = random.Random(12)
    for _ in range(100):
        g = fl(A3, [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(4)])
        x = fl(A3, [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(3)])
        y = fl(A3, [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(3)])
        if x == y:
            continue
        assert ga.multiply(g, x) != ga.multiply(g, y)


def test_power_and_size():
    a = ga.generator(A2, "a")
    assert ga.power(a, 0).is_identity()
    assert ga.power(a, 3) == ga.multiply(a, ga.multiply(a, a))
    assert ga.power(a, -2) == ga.inverse(ga.multiply(a, a))
    assert ga.delta(A2, -1).size == 1
    assert fl(A2, "ab").size == 1
    assert fl(A2, "abab").size == 2


# lattice operations ---------------------------------------------------------


def positives_up_to_two(d):
    t = ga.table(d)
    out = [ga.identity(d)]
    simples = [ga.from_letters(d, "".join(t.words[i])) for i in range(1, t.n)]
    out.extend(simples)
    seen = set(out)
    for x in simples:
        for y in simples:
            p = ga.multiply(x, y)
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def brute_left_divides(u, v):
    return ga.multiply(ga.inverse(u), v).is_positive()


def test_left_gcd_frozen():
    a = ga.generator(A2, "a")
    b = ga.generator(A2, "b")
    assert ga.left_gcd(a, b).is_identity()
    ab = fl(A2, "ab")
    assert ga.left_gcd(ab, ga.multiply(ab, a)) == ab
    # delta shift law
    w, v = fl(A2, "ab"), fl(A2, "ba")
    lhs = ga.left_gcd(ga.multiply(ga.delta(A2), w), ga.multiply(ga.delta(A2), v))
    assert lhs == ga.multiply(ga.delta(A2), ga.left_gcd(w, v))
    with pytest.raises(NotPositive):
        ga.left_gcd(a, ga.inverse(b))


def test_left_lcm_frozen():
    a = ga.generator(A2, "a")
    b = ga.generator(A2, "b")
    assert ga.left_lcm(a, b) == ga.delta(A2)
    assert ga.left_lcm(a, ga.identity(A2)) == a
    assert ga.left_lcm(a, a) == a


def test_lattice_laws_exhaustive_small():
    for d in (A2, I24):
        elems = positives_up_to_two(d)
        for x in elems:
            for y in elems:
                g = ga.left_gcd(x, y)
                j = ga.left_lcm(x, y)
                assert g == ga.left_gcd(y, x)
                assert j == ga.left_lcm(y, x)
                assert brute_left_divides(g, x) and brute_left_divides(g, y)
                assert brute_left_divides(x, j) and brute_left_divides(y, j)
                # absorption
                assert ga.left_gcd(x, j) == x
                assert ga.left_lcm(x, g) == x
        # agreement with brute-force divisor enumeration
        for x in elems:
            for y in elems:
                common = [z for z in elems if brute_left_divides(z, x) and brute_left_divides(z, y)]
                g = ga.left_gcd(x, y)
                assert all(brute_left_divides(z, g) for z in common)


def test_right_gcd_mirror():
    rng = random.Random(31)
    for d in (A3, H3, F4, H4):
        gens = d.vertices
        for _ in range(60):
            x = fl(d, "".join(rng.choice(gens) for _ in range(rng.randint(0, 5))))
            y = fl(d, "".join(rng.choice(gens) for _ in range(rng.randint(0, 5))))
            g = ga.right_gcd(x, y)
            assert ga.multiply(x, ga.inverse(g)).is_positive()
            assert ga.multiply(y, ga.inverse(g)).is_positive()
            j = ga.right_lcm(x, y)
            assert ga.multiply(j, ga.inverse(x)).is_positive()
            assert ga.multiply(j, ga.inverse(y)).is_positive()


# np forms -------------------------------------------------------------------


def test_np_form_frozen():
    g = fl(A2, "ab")
    f = ga.np_form(g)
    assert f.neg.is_identity() and f.pos == g
    f = ga.np_form(ga.identity(A2))
    assert f.neg.is_identity() and f.pos.is_identity()
    g = ga.multiply(ga.generator(A2, "a"), ga.inverse(ga.generator(A2, "b")))
    f = ga.np_form(g, "pn")
    assert f.pos == ga.generator(A2, "a")
    assert f.neg == ga.generator(A2, "b")


def test_np_form_roundtrip_random():
    rng = random.Random(77)
    for d in (A3, H3, F4, H4):
        gens = d.vertices
        for _ in range(200):
            g = fl(d, [(rng.choice(gens), rng.choice([1, -1]))
                       for _ in range(rng.randint(0, 8))])
            for side in ("np", "pn"):
                f = ga.np_form(g, side)
                assert f.neg.is_positive() and f.pos.is_positive()
                assert ga.np_reconstruct(f) == g
                if side == "np":
                    assert ga.left_gcd(f.neg, f.pos).is_identity()
                else:
                    assert ga.right_gcd(f.neg, f.pos).is_identity()


@pytest.mark.parametrize("d", [B3, H3, F4, H4, E6], ids=["B3", "H3", "F4", "H4", "E6"])
def test_closed_form_inverse(d):
    # Δ^d·f1⋯fl inverted from the complements alone, checked against the
    # product of g and its inverse on both sides
    t = ga.table(d)
    rng = random.Random(41)
    for _ in range(200):
        g = fl(d, [(rng.choice(d.vertices), rng.choice([1, -1]))
                   for _ in range(rng.randint(0, 12))])
        raw = g.raw
        inv = t.raw_inverse(raw)
        assert t.raw_multiply(raw, inv) == t.raw_multiply(inv, raw) == (0, ())


@lru_cache(maxsize=None)
def f4_model():
    return oracles.model_F4(F4.vertices)


# the one-sweep product against the fixpoint normal form it replaced, and
# against brute-force models on the first few items. τ is the identity on
# B3, H3, F4 and H4, so A3 and E6 stand in for the twists
SWEEP_CASES = [
    (B3, 200, lambda: oracles.model_B(3, "abc"), 40),
    (H3, 200, None, 0),
    (F4, 60, f4_model, 4),
    (H4, 60, None, 0),
    (A3, 200, lambda: oracles.model_A(3, "abc"), 40),
    (E6, 30, None, 0),
]


@pytest.mark.parametrize("d,items,make,checked", SWEEP_CASES,
                         ids=["B3", "H3", "F4", "H4", "A3", "E6"])
def test_sweep_against_fixpoint_reference(d, items, make, checked):
    t = ga.table(d)
    ref = oracles.FixpointGarside(t)
    gens = d.vertices
    subsets = [frozenset(c) for r in range(len(gens) + 1)
               for c in itertools.combinations(gens, r)]
    rng = random.Random(len(gens) * 1000 + t.n)
    model = make() if make else None
    oga = oracles.GarsideOracle(model) if model else None

    def raw(g):
        return g.raw

    def to_oracle(r):
        return r[0], tuple(model.prod(t.words[f]) for f in r[1])

    def signed(k):
        return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(k)]

    def factor_text(f):
        # a reduced word of f, often not its ShortLex word
        return "".join(reversed(t.words[t.inv[f]]))

    for i in range(items):
        w1, w2 = signed(rng.randint(0, 12)), signed(rng.randint(0, 12))
        p1, p2 = ([(s, 1) for s, _ in signed(rng.randint(0, 10))]
                  for _ in range(2))
        x, y, p, q = (fl(d, w) for w in (w1, w2, p1, p2))
        rx, ry, rp, rq = (raw(g) for g in (x, y, p, q))
        assert rx == ref.from_letters(w1) and rp == ref.from_letters(p1)
        assert raw(ga.multiply(x, y)) == ref.multiply(rx, ry)
        assert raw(ga.inverse(x)) == ref.inverse(rx)
        assert raw(ga.left_gcd(p, q)) == ref.left_gcd(rp, rq)
        assert raw(ga.left_lcm(p, q)) == ref.left_lcm(rp, rq)
        # the right-hand pair reads x·y⁻¹ = u·v⁻¹ = a⁻¹·b, through the mirror
        # sweep behind `raw_pn`
        r = ref.multiply(rp, ref.inverse(rq))
        assert raw(ga.right_gcd(p, q)) == ref.multiply(ref.inverse(ref.pn(r)[1]), rp)
        assert raw(ga.right_lcm(p, q)) == ref.multiply(ref.np(r)[0], rp)
        for side, want in (("np", ref.np(rx)), ("pn", ref.pn(rx))):
            f = ga.np_form(x, side)
            assert (raw(f.neg), raw(f.pos)) == want, side
        X = rng.choice(subsets)
        shift = max(0, -rx[0] + 1) // 2 + rng.randint(0, 1)
        assert t.coset_key(rx, X, shift) == oracles.pack_key(ref.coset_key(rx, X, shift))
        # unnormalized input: Δ and identity factors anywhere in the middle
        k = rng.randint(-3, 3)
        fs = [rng.choice((0, t.w0i, rng.randrange(t.n), rng.randrange(t.n)))
              for _ in range(rng.randint(0, 7))]
        text = f"Δ^{k} · " + " | ".join(factor_text(f) for f in fs)
        parsed = raw(ga.parse_element(d, text))
        assert parsed == ref.normalize(k, fs), text
        if i < checked:
            ox, oy = to_oracle(rx), to_oracle(ry)
            assert ox == oga.from_signed(w1)
            assert to_oracle(raw(ga.multiply(x, y))) == oga.multiply(ox, oy)
            assert to_oracle(raw(ga.inverse(x))) == oga.inverse(ox)
            assert to_oracle(parsed) == oga.normalize(
                k, tuple(model.prod(t.words[f]) for f in fs))


# from_letters keeps x = Δ^k·τ^k(fs) and untwists once at the end; the left
# fold multiplies by a generator or its inverse one letter at a time
@pytest.mark.parametrize("d", [A2, A3, B3, H3, F4, E6],
                         ids=["A2", "A3", "B3", "H3", "F4", "E6"])
def test_from_letters_twisted_frame_is_the_left_fold(d):
    gens = d.vertices
    one = {(s, 1): ga.generator(d, s) for s in gens}
    one.update({(s, -1): ga.inverse(one[(s, 1)]) for s in gens})
    rng = random.Random(len(gens) + 7)

    def fold(letters):
        x = ga.identity(d)
        for letter in letters:
            x = ga.multiply(x, one[letter])
        return x

    def signed(k):
        return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(k)]

    words = [[(s, 1) for s in "abab"], [(s, 1) for s in "ababab"],
             [(s, -1) for s in "abab"]]
    # all negative: the Δ power steps down on every letter
    words += [[(rng.choice(gens), -1) for _ in range(k)] for k in range(1, 16)]
    # long runs of one inverse letter, so the parity of k flips many times
    for _ in range(10):
        w = []
        for _ in range(rng.randint(1, 4)):
            w += signed(rng.randint(0, 3))
            w += [(rng.choice(gens), -1)] * rng.randint(4, 11)
        words.append(w)
    # words that cancel to the identity
    cancelling = []
    for _ in range(10):
        w = signed(rng.randint(1, 10))
        cancelling.append(w + [(s, -e) for s, e in reversed(w)])
        cancelling.append([(s, -e) for s, e in reversed(w)] + w)
    for w in words + cancelling + [signed(rng.randint(0, 14)) for _ in range(30)]:
        assert fl(d, w) == fold(w), w
    for w in cancelling:
        assert fl(d, w).is_identity(), w
    # abab = Δ·b: the third letter absorbs a whole factor into Δ
    x = fl(A2, "abab")
    assert (x.delta_power, [str_simple(s) for s in x.factors]) == (1, ["b"])


def test_simples_carry_their_index_outside_equality():
    t = ga.table(B3)
    g = fl(B3, "abcbacb")
    assert g.raw == (g.delta_power,
                     tuple(t.words.index(s.underlying.word) for s in g.factors))
    s = g.factors[0]
    twin = ga.Simple(s.underlying, s.index + 1)
    assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)


@pytest.mark.parametrize("d", [B3, A3], ids=["B3", "A3"])
def test_elements_agree_across_table_rebuilds(d):
    # elements hold ShortLex indices, so one made before the table is rebuilt
    # equals its twin made after it in every reading; on A3, τ is not the
    # identity and the odd Δ power twists the factors
    letters = list(zip("abcbacbca", (1, -1, 1, 1, -1, 1, -1, 1, -1)))
    before = fl(d, letters)
    boxed, text = before.factors, ga.serialize(before)
    assert before.delta_power % 2 and boxed
    old = ga.table(d)
    ga.table.cache_clear()
    assert ga.table(d) is not old
    after = fl(d, letters)
    assert before == after and hash(before) == hash(after)
    assert ga.serialize(before) == ga.serialize(after) == text
    assert before.factors == after.factors == boxed


def test_in_parabolic():
    assert ga.in_parabolic(fl(A3, "ab"), {"a", "b"})
    g = fl(A3, [("b", 1), ("a", 1), ("b", -1)])
    assert not ga.in_parabolic(g, {"a", "c"})
    assert ga.in_parabolic(ga.identity(A3), set())
    # exhaustive cross-check against short words of the parabolic
    rng = random.Random(15)
    for _ in range(100):
        letters = [(rng.choice("ac"), rng.choice([1, -1])) for _ in range(rng.randint(0, 6))]
        assert ga.in_parabolic(fl(A3, letters), {"a", "c"})


def test_restrict_embed():
    sub = A3.induced(["a", "b"])
    g = fl(A3, [("a", 1), ("b", -1), ("a", 1)])
    r = ga.restrict(g, {"a", "b"})
    assert r.group == sub
    assert ga.embed(r, A3) == g


# parabolic deltas, centers, conjugators --------------------------------------


def test_delta_and_center_frozen():
    assert ga.delta_of(A2, {"a"}) == ga.generator(A2, "a")
    assert ga.center_of(A2, {"a"}) == ga.generator(A2, "a")
    assert ga.delta_of(A2, {"a", "b"}) == ga.delta(A2)
    assert ga.center_of(A2, {"a", "b"}) == ga.delta(A2, 2)
    assert ga.delta_of(I24, {"a", "b"}) == ga.delta(I24)
    assert ga.center_of(I24, {"a", "b"}) == ga.delta(I24)
    assert ga.delta_of(A3, {"a", "c"}) == fl(A3, "ac")
    assert ga.center_of(B3, {"a", "b", "c"}) == ga.delta(B3)
    assert ga.center_of(A3, {"a", "b", "c"}) == ga.delta(A3, 2)
    with pytest.raises(NotSpherical):
        ga.delta_of(dy.cycle_diagram("abc", [3, 3, 3]), {"a", "b", "c"})


CONJUGATOR_CASES = [
    # diagram, X, t, expected r (letters), expected X'
    (A2, (), "a", "a", ()),
    (A2, ("a",), "b", "ab", ("b",)),
    (A3, ("a",), "c", "c", ("a",)),
    (A3, ("a",), "b", "ab", ("b",)),
    (A3, ("a", "b"), "c", "abc", ("b", "c")),
    (A3, ("a", "c"), "b", "bacb", ("a", "c")),
    (B3, ("a",), "b", "bab", ("a",)),
    (B3, ("a", "b"), "c", "cbabc", ("a", "b")),
    (B3, ("b", "c"), "a", "abacba", ("b", "c")),
]


def test_elementary_conjugator_frozen():
    for d, X, tg, rword, xprime in CONJUGATOR_CASES:
        r, X2 = ga.elementary_conjugator(d, set(X), tg)
        assert r == fl(d, rword), (X, tg)
        assert X2 == frozenset(xprime), (X, tg)


def test_elementary_conjugator_conjugates_generators():
    for d, X, tg, rword, xprime in CONJUGATOR_CASES:
        r, X2 = ga.elementary_conjugator(d, set(X), tg)
        ri = ga.inverse(r)
        conj = {str_simple_of(ga.multiply(ga.multiply(r, ga.generator(d, s)), ri)) for s in X}
        assert conj == set(xprime)


def str_simple_of(g):
    assert g.delta_power == 0 and len(g.factors) == 1
    word = g.factors[0].underlying.word
    assert len(word) == 1
    return word[0]


def test_ribbon_decompose_frozen():
    g = fl(A2, "ab")
    chain, tail = ga.ribbon_decompose(g, {"a"})
    assert [(str(u), f, t) for (u, f, t) in chain] == [
        ("Δ^0 · ab", frozenset("a"), frozenset("b"))
    ]
    assert tail.is_identity()
    # already inside the parabolic: empty chain
    chain, tail = ga.ribbon_decompose(fl(A2, "aa"), {"a"})
    assert chain == [] and tail == fl(A2, "aa")


def test_ribbon_decompose_two_steps():
    r1, X1 = ga.elementary_conjugator(A3, {"a"}, "b")
    r2, X2 = ga.elementary_conjugator(A3, X1, "c")
    g = ga.multiply(r2, r1)
    chain, tail = ga.ribbon_decompose(g, {"a"})
    assert in_order(chain) and tail.is_identity()
    prod = ga.identity(A3)
    for (u, _, _) in chain:
        prod = ga.multiply(prod, u)
    assert ga.multiply(prod, tail) == g


def in_order(chain):
    # adjacent entries chain together: the target of the right entry is the
    # source of the left one
    for left, right in zip(chain, chain[1:]):
        if left[1] != right[2]:
            return False
    return True


def test_ribbon_precondition():
    with pytest.raises(PreconditionFailed):
        ga.ribbon_decompose(fl(A3, "b"), {"a"})
    with pytest.raises(NotPositive):
        ga.ribbon_decompose(ga.inverse(fl(A3, "ab")), {"a"})


# serialization ---------------------------------------------------------------


def test_serialize_parse_roundtrip():
    rng = random.Random(41)
    for _ in range(120):
        g = fl(B3, [(rng.choice("abc"), rng.choice([1, -1])) for _ in range(rng.randint(0, 7))])
        s = ga.serialize(g)
        assert ga.parse_element(B3, s) == g
    assert ga.serialize(ga.identity(A2)) == "Δ^0 ·"
    assert ga.serialize(fl(A2, "abab")) == "Δ^1 · b"
    assert ga.serialize(fl(A3, "aabbcc")) == "Δ^0 · a | ab | bc | c"


def test_table_cap():
    # E(7) has |W| = 2,903,040; the enumeration stops at the cap
    e7 = dy.diagram("abcdefg", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3),
                                ("d", "e", 3), ("e", "f", 3), ("c", "g", 3)])
    with pytest.raises(CapExceeded):
        ga.table(e7)
    with pytest.raises(NotSpherical):
        ga.table(dy.cycle_diagram("abc", [3, 3, 3]))


def test_table_cap_names_the_group_order(monkeypatch):
    # |W| is read off the component classes before anything is enumerated
    e7 = dy.diagram("abcdefg", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3),
                                ("d", "e", 3), ("e", "f", 3), ("c", "g", 3)])
    calls = []
    monkeypatch.setattr(cx, "engine", lambda d: calls.append(d))
    with pytest.raises(CapExceeded) as exc:
        ga.GarsideTable(e7)
    assert calls == []
    assert exc.value.needed == 2_903_040 and exc.value.cap == ga.MAX_TABLE
    assert "2,903,040 > 60,000" in str(exc.value)


def test_group_order_matches_the_enumeration():
    diagrams = [
        dy.path_diagram("a", []), dy.path_diagram("abcde", [3, 3, 3, 3]),
        dy.path_diagram("abcd", [3, 3, 4]), dy.path_diagram("ab", [4]),
        dy.path_diagram("abcd", [3, 4, 3]), dy.path_diagram("abc", [5, 3]),
        dy.path_diagram("ab", [7]),
        dy.diagram("abcde", [("a", "b", 3), ("b", "c", 3), ("b", "d", 3),
                             ("d", "e", 3)]),
        dy.diagram("abcdef", [("a", "b", 9), ("c", "d", 3), ("e", "f", 4)]),
        dy.diagram("abc", []),
    ]
    for d in diagrams:
        assert ga._group_order(d) == ga.table(d).n


def test_table_and_engine_caches_are_bounded():
    # one diagram more than the bound: the least recently used is dropped,
    # and its rebuilt table has the same ShortLex indices
    bound = cx.CACHED_DIAGRAMS
    fresh = [dy.diagram([f"u{i}", f"v{i}"], [(f"u{i}", f"v{i}", 3)])
             for i in range(bound + 1)]
    first = ga.table(fresh[0])
    for d in fresh[1:]:
        ga.table(d)
    assert ga.table.cache_info().currsize == bound
    assert cx.engine.cache_info().currsize == bound
    again = ga.table(fresh[0])
    assert again is not first and again.words == first.words


def test_table_matches_word_multiplication():
    # the generator-level arrays against word multiplication, and the greedy
    # meets against the divisor definition, on an integer and a Z[c] diagram
    for d in (B3, dy.path_diagram("abc", [5, 3])):
        t = ga.table(d)
        canonical = cx.engine(d).canonical
        idx = {w: i for i, w in enumerate(t.words)}
        w0 = t.words[t.w0i]
        for u, wu in enumerate(t.words):
            for v, wv in enumerate(t.words):
                assert t.product(u, v) == idx[canonical(wu + wv)]
            wi = canonical(wu[::-1])
            assert t.words[t.inv[u]] == wi
            assert t.words[t.tau[u]] == canonical(w0 + wu + w0)
            assert t.words[t.rcomp[u]] == canonical(wi + w0)
            assert t.words[t.lcomp[u]] == canonical(w0 + wi)
            for i, s in enumerate(d.vertices):
                assert t.words[t.rmul[u][i]] == canonical(wu + (s,))
                assert t.words[t.lmul[u][i]] == canonical((s,) + wu)
        # u ≤ w on the left iff ℓ(u) + ℓ(u⁻¹w) = ℓ(w), and dually
        ln = t.length
        ldivs = [{u for u in range(t.n)
                  if ln[u] + ln[t.product(t.inv[u], w)] == ln[w]}
                 for w in range(t.n)]
        rdivs = [{u for u in range(t.n)
                  if ln[t.product(w, t.inv[u])] + ln[u] == ln[w]}
                 for w in range(t.n)]
        for u in range(t.n):
            for v in range(t.n):
                for divs, meet in ((ldivs, t.meet_l), (rdivs, t.meet_r)):
                    common = divs[u] & divs[v]
                    best = max(common, key=ln.__getitem__)
                    assert divs[best] == common
                    assert meet(u, v) == best


def test_follows_and_sequence_counts():
    for d in (B3, dy.path_diagram("abc", [5, 3]), I24):
        t = ga.table(d)
        proper = [x for x in range(t.n) if x not in (0, t.w0i)]
        pairs = [(s, u) for s in proper for u in proper if t.is_normal(s, u)]
        assert sorted(t.follows) == proper
        assert sorted((s, u) for s in proper for u in t.follows[s]) == pairs
        assert all(t.follows[s] == sorted(t.follows[s]) for s in proper)
        triples = sum(len(t.follows[u]) for _, u in pairs)
        counts = complexes._sequence_counts(t, 3)
        assert counts == [1, len(proper), len(pairs), triples]


# rank 4 and beyond ------------------------------------------------------------

B4 = dy.path_diagram("abcd", [4, 3, 3])
# model_D's order: the two fork tips a and b, then the path c - d
D4 = dy.diagram("abcd", [("a", "c", 3), ("b", "c", 3), ("c", "d", 3)])


@pytest.mark.parametrize("d,make", [
    (B4, lambda: oracles.model_B(4, "abcd")),
    (D4, lambda: oracles.model_D(4, "abcd")),
], ids=["B4", "D4"])
def test_rank4_against_garside_oracle(d, make):
    model = make()
    oga = oracles.GarsideOracle(model)

    def to_oracle(g):
        return (g.delta_power,
                tuple(model.prod(f.underlying.word) for f in g.factors))

    def left_divides(a, b):
        return oga.multiply(oga.inverse(a), b)[0] >= 0

    def word(k):
        return "".join(rng.choice("abcd") for _ in range(k))

    gens = [oga.from_word([s]) for s in d.vertices]
    rng = random.Random(4)
    for _ in range(40):
        letters = [(rng.choice("abcd"), rng.choice([1, -1]))
                   for _ in range(rng.randint(0, 10))]
        assert to_oracle(fl(d, letters)) == oga.from_signed(letters), letters
    for _ in range(12):
        # a shared prefix keeps the gcd away from the identity
        head = word(rng.randint(0, 4))
        x, y = fl(d, head + word(rng.randint(1, 5))), fl(d, head + word(3))
        ox, oy = to_oracle(x), to_oracle(y)
        # g divides both and no g·s does; l is a multiple of both and no
        # l·s⁻¹ is: maximality and minimality in the divisor order
        g = to_oracle(ga.left_gcd(x, y))
        assert left_divides(g, ox) and left_divides(g, oy)
        for piece in gens:
            gs = oga.multiply(g, piece)
            assert not (left_divides(gs, ox) and left_divides(gs, oy))
        l = to_oracle(ga.left_lcm(x, y))
        assert left_divides(ox, l) and left_divides(oy, l)
        for piece in gens:
            ls = oga.multiply(l, oga.inverse(piece))
            if ls[0] >= 0:
                assert not (left_divides(ox, ls) and left_divides(oy, ls))


# coset keys: a left-weighted stripped sequence is returned as it stands ------


def _swept_coset_key(t, a, X, shift):
    """`coset_key` with every sequence stripped by the referee and swept into
    normal form."""
    d, fs = a
    d += 2 * shift
    e, m = oracles.strip_reference(t, d, [], X)
    seq = [t.tau[f] for f in fs] if (d + e) % 2 else list(fs)
    return oracles.pack_key(t.normalize(*oracles.strip_reference(t, e, seq + m, X)))


@pytest.mark.parametrize("d", [A3, B3, H3, D4, F4],
                         ids=["A3", "B3", "H3", "D4", "F4"])
def test_coset_key_agrees_with_sweeping_the_stripped_sequence(d):
    t = ga.table(d)
    gens = d.vertices
    subsets = [frozenset(c) for k in range(len(gens) + 1)
               for c in itertools.combinations(gens, k)]
    rng = random.Random(18)
    for _ in range(150):
        letters = [(rng.choice(gens), rng.choice((1, 1, -1)))
                   for _ in range(rng.randrange(12))]
        g = ga.multiply(ga.delta(d, -rng.randrange(3)), fl(d, letters))
        least = max(0, (1 - g.delta_power) // 2)  # Δ^(2·shift)·g positive
        for shift in (least, least + 1):
            X = rng.choice(subsets)
            assert t.coset_key(g.raw, X, shift) == _swept_coset_key(t, g.raw, X, shift)


def test_coset_key_callers_agree_with_the_sweep(monkeypatch):
    keyed = ga.GarsideTable.coset_key
    negative = []

    def checked(self, a, X, shift):
        key = keyed(self, a, X, shift)
        assert key == _swept_coset_key(self, a, X, shift), (a, X, shift)
        negative.append(a[0] < 0)
        return key

    monkeypatch.setattr(ga.GarsideTable, "coset_key", checked)
    for d in (A3, B3, H3):
        base = fl(d, [("a", -1), ("c", -1), ("b", 1)])
        complexes.apartment_cycle(d, base=base)
    r1, X1 = ga.elementary_conjugator(A3, {"a"}, "b")
    r2, _ = ga.elementary_conjugator(A3, X1, "c")
    assert ga.ribbon_decompose(ga.multiply(r2, r1), {"a"}) is not None
    assert ga.ribbon_decompose(fl(A2, "ab"), {"a"}) is not None
    assert any(negative) and not all(negative)


@pytest.mark.parametrize("d", [A1, A3, B3, D4, F4, H3],
                         ids=["A1", "A3", "B3", "D4", "F4", "H3"])
def test_coset_plan_is_the_delta_free_minimal_representative(d):
    # Δ^k·A_X = Δ^e·m·A_X: e = k and m = () off the trivial parabolic,
    # otherwise e = 0 and m a normal form with no Δ and no identity
    t = ga.table(d)
    ref = oracles.FixpointGarside(t)
    gens = d.vertices
    for X in (frozenset(c) for r in range(len(gens) + 1)
              for c in itertools.combinations(gens, r)):
        for k in range(9):
            e, m, key, _ = t._coset_plan(X, k)
            if X:
                assert e == 0 and t.w0i not in m and 0 not in m, (X, k)
                assert all(t.is_normal(f, g) for f, g in zip(m, m[1:])), (X, k)
            else:
                assert (e, m) == (k, ())
            assert key == t.coset_key((k, ()), X, 0) == oracles.pack_key(
                ref.coset_key((k, ()), X, 0)), (X, k)


@pytest.mark.parametrize("d", [A3, B3, H3, D4], ids=["A3", "B3", "H3", "D4"])
def test_coset_minima_are_the_gates_of_the_numbers_game(d):
    # the table's rows against `gate_projection`, which peels descents off
    # the numbers-game state and reads no table
    t = ga.table(d)
    gens = d.vertices
    for X in (frozenset(c) for r in range(len(gens) + 1)
              for c in itertools.combinations(gens, r)):
        rep = t.coset_minima(X)
        for x, word in enumerate(t.words):
            gate = cx.gate_projection(cx.CoxeterElement(d, word), X).gate
            assert t.words[rep[x]] == gate.word, (X, word)


def test_coset_key_sweeps_a_sequence_that_is_not_left_weighted(monkeypatch):
    t = ga.table(B3)
    a, b, w0 = t.gen["a"], t.gen["b"], t.w0i
    normalize = ga.GarsideTable.normalize
    swept = []

    def counted(self, d, fs):
        swept.append(list(fs))
        return normalize(self, d, fs)

    monkeypatch.setattr(ga.GarsideTable, "normalize", counted)
    # nothing strips off the trivial parabolic, so each key is a normal form:
    # a·b is one simple, the identity drops out, and Δ moves to the front
    for raw in [(0, (a, b)), (0, (a, 0, b)), (1, (b, w0))]:
        assert t.coset_key(raw, frozenset(), 0) == oracles.pack_key(normalize(t, *raw))
    assert swept == [[a, b], [a, 0, b], [b, w0]]
    swept.clear()
    # a normal input is swept once, on the way in, and its key is its bytes
    ab = t.rmul[a][t.rank["b"]]
    assert t.coset_key((2, (ab, b)), frozenset(), 0) == oracles.pack_key((2, (ab, b)))
    assert swept == [[ab, b]]


def _table_against_model(t, model):
    """The table's words, rmul, inv, w0, tau and length against a model."""
    elem = [model.prod(wd) for wd in t.words]
    index = {x: i for i, x in enumerate(elem)}
    assert len(index) == t.n == len(model.elements)
    assert t.words == sorted((model.word[x] for x in model.elements),
                             key=lambda wd: (len(wd), wd))
    assert elem[t.w0i] == model.w0
    for u, x in enumerate(elem):
        for i, s in enumerate(t.d.vertices):
            assert t.rmul[u][i] == index[model.mul(x, model.gens[s])]
        assert t.inv[u] == index[model.inv(x)]
        assert elem[t.tau[u]] == model.mul(model.mul(model.w0, x), model.w0)
        assert t.length[u] == model.length[x]


@pytest.mark.parametrize("m", [7, 9])
def test_large_label_tables_against_product_model(m):
    # I2(m)×A3: labels of 7 and more on the Z[2cos(2π/m)] engine
    d = dy.diagram("abcde", [("a", "b", m), ("c", "d", 3), ("d", "e", 3)])
    _table_against_model(ga.table(d), oracles.model_product(
        oracles.model_I2(m, "ab"), oracles.model_A(3, "cde")))


def test_f4_table_against_reflection_model():
    # the integer engine at its largest rank-4 table with a label 4
    _table_against_model(ga.table(F4), f4_model())


H4_TEXT = "vertices a b c d\nedge a b 5\nedge b c 3\nedge c d 3\n"


@pytest.mark.parametrize("name", ["h4", "e6"])
def test_word_and_fuzz_reach_h4_and_e6(name, tmp_path, capsys):
    if name == "h4":
        path = tmp_path / "h4.dyn"
        path.write_text(H4_TEXT)
    else:
        path = Path(__file__).resolve().parent / "corpus" / "e6.dyn"
    assert cli.main(["word", str(path), "a", "b", "c", "d", "a^-1"]) == 0
    assert cli.main(["fuzz", str(path), "--seed", "1", "--count", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("Δ^-1 · ") and out[1].startswith("fuzz: 50 words")


# Each snippet corrupts the B3 table, or a helper of a layer above it, and
# must end in InvariantViolated, with the given message, even with
# assertions stripped by `python -O`.
CORRUPTIONS = {
    # Δ_X claimed trivial for every X, so ρ = Δ: the representative of
    # Δ²·A_{a,b} comes out as Δ² itself
    "minimal coset representative holds Δ": """
t.w0_parabolic = lambda X: 0
t.coset_key((0, ()), frozenset("ab"), 1)
""",
    "divisor did not divide out": """
# every division step claims the divisor passes through untouched
t._divide.update({c * t.n + g: (g, c)
                  for c in range(t.n) for g in range(t.n)})
t.coset_key((0, (t.gen["a"],)), frozenset("ab"), 0)
""",
    # the complement of a in Δ claims to be the identity, so left-weighting
    # the non-normal pair (a, b) moves nothing and hands it back unchanged
    "left-weighting gave a non-normal pair": """
t.rcomp[t.gen["a"]] = 0
ga.from_letters(d, "ab")
""",
    # the complement of b in Δ from the left claims to be the identity, so
    # right-weighting the pair (Δ·a⁻¹, b) of a⁻¹·b moves nothing
    "right-weighting gave a non-normal pair": """
t.lcomp[t.gen["b"]] = 0
ga.left_lcm(ga.generator(d, "a"), ga.generator(d, "b"))
""",
    "apartment section must be injective": """
from artinkit import complexes
t.coset_key = lambda raw, X, shift: X
complexes.apartment_cycle(d)
""",
    # every element claimed minimal in its coset: each face count of the
    # B3 complex becomes |W| = 48, and so does the alternating sum
    "Euler characteristic 48 != 2": """
from artinkit import complexes
ga.GarsideTable.coset_minima = lambda t, X: list(range(t.n))
complexes.build_coxeter_complex(d)
""",
    # the np-form primitive hands back a negative half
    "np-form half is not positive": """
ga.GarsideTable.raw_np = lambda t, a: ((-1, ()), a)
ga.letters_of(ga.generator(d, "a"))
""",
    # Δ_{a,b} replaced by ab, which conjugates a to no generator
    "ribbon conjugate of a generator must be a generator": """
ga.delta_of = lambda d, X: ga.from_letters(d, "ab" if len(X) == 2 else "")
ga.elementary_conjugator(d, {"a"}, "b")
""",
    "ribbon tail must lie in the base parabolic": """
ga.in_parabolic = lambda g, X: False
ga.ribbon_decompose(ga.generator(d, "a"), {"a"})
""",
    # an inverse that is wrong on the identity alone, with the membership
    # test stubbed so the reconstruction gets past it
    "ribbon chain times tail must give back g": """
inverse = ga.inverse
ga.inverse = lambda x: ga.delta(d, -1) if x.is_identity() else inverse(x)
ga.in_parabolic = lambda g, X: True
ga.ribbon_decompose(ga.generator(d, "a"), {"a"})
""",
    # canonical forms collapse to the identity once x is built, except x's
    # own, which gate_projection reads first
    "gate and tail lengths must add up to the length of x": """
from artinkit import coxeter
x = coxeter.normal_form(d, "ab")
coxeter.engine(d).canonical = lambda word: word if word == x.word else ()
coxeter.gate_projection(x, {"b"})
""",
    # inverses come back unchanged, so pair_gate reads the double coset of
    # g1·g2 in place of g1⁻¹·g2 and its images leave g2·W_T2
    "gate images must form the parallel coset inside g2·W_T2": """
from artinkit import coxeter
coxeter.inverse = lambda x: x
g1, e = coxeter.normal_form(d, "ab"), coxeter.normal_form(d, "")
coxeter.pair_gate(d, {"a"}, g1, {"c"}, e)
""",
    "comparison image must lie in the plain ball at equal bound": """
from artinkit import complexes
a3 = dynkin.path_diagram("abc", [3, 3])
q = dynkin.quotient_folding(a3, [("a", "c")])
folded = complexes.build_folded_ball(q, list(q.target.vertices), 2)
plain = complexes.build_ball(a3, ["a", "b", "c"], 2)
complexes.ComplexBall.locate = lambda ball, g, s: None
complexes.folded_comparison(folded, q, plain)
""",
    # every coset located at vertex 0: the fiber of a+c is no edge
    "comparison image must be a simplex": """
from artinkit import complexes
a3 = dynkin.path_diagram("abc", [3, 3])
q = dynkin.quotient_folding(a3, [("a", "c")])
folded = complexes.build_folded_ball(q, list(q.target.vertices), 2)
plain = complexes.build_ball(a3, ["a", "b", "c"], 2)
complexes.ComplexBall.locate = lambda ball, g, s: 0
complexes.folded_comparison(folded, q, plain)
""",
    # the order validator hands back the orientation reversed, so the
    # bowtie middles are found against the opposite type ranks
    "bowtie middle type must lie strictly between the end types": """
from artinkit import checks, complexes
checks._check_orientation = lambda ball, orientation: tuple(reversed(orientation))
b = complexes.build_ball(dynkin.path_diagram("abc", [3, 3]), ["a", "b", "c"], 4)
checks.wheel_fillers_from_bowties(b, ("a", "b", "c"), checks.check_bowtie_free(b, ("a", "b", "c")))
""",
    "link of x does not carry the rest of the cycle": """
from artinkit import theorem_gate as tg
tg._link_component = lambda source, removed, anchor: source.induced([anchor])
tg.gate_cycle(dynkin.cycle_diagram(list("xyz"), [3, 3, 3]))
""",
    "folded branches admit no assumptions": """
from artinkit import theorem_gate as tg
tg._cycle_links = lambda source, cycle, branches, folding: ([], ("h",), None)
tg.gate_folded(dynkin.cycle_diagram(list("xyz"), [3, 3, 3]))
""",
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_table_raises_invariant_violated_under_O(name):
    script = (
        "from artinkit import dynkin, garside as ga\n"
        "from artinkit.errors import InvariantViolated\n"
        "d = dynkin.path_diagram('abc', [4, 3])\n"
        "t = ga.table(d)\n"
        "try:\n"
        + "".join("    " + line + "\n"
                  for line in CORRUPTIONS[name].strip().splitlines())
        + "except InvariantViolated as e:\n"
        "    print('InvariantViolated:', e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run([sys.executable, "-O", "-c", script],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(src)})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == f"InvariantViolated: {name}", r.stdout
