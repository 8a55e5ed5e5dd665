"""words: Garside arithmetic on B3 and H3 against tables already built.

Each group gets ITEMS seeded items. An item holds two signed words, two
positive words, a generator pair T, a signed word over T and a signed word
over T with one letter outside T in the middle. Word lengths run through
MIN_LEN..MAX_LEN in a fixed cycle and only the letters come from the seed,
so every seed asks for about the same work. One round runs on every item
`from_letters` (six words), `multiply`, `inverse`, `left_gcd` and
`left_lcm` (positive pair), `np_form` (of the product) and `in_parabolic`
(twice), thirteen operations. Every round repeats the same items.
"""

import random

import oracles
from artinkit import dynkin
from artinkit import garside as ga

GROUPS = {
    "B3": ("abc", ((0, 1, 4), (1, 2, 3))),
    "H3": ("abc", ((0, 1, 5), (1, 2, 3))),
}
ITEMS = 300
ORACLE_ITEMS = 40  # B3 items also refereed by the oracle model
MIN_LEN, MAX_LEN = 4, 12

PATCHES = ()


def _word(rng, letters, signed, length):
    return [(rng.choice(letters), rng.choice((1, -1)) if signed else 1)
            for _ in range(length)]


def setup(seed, root, out):
    rng = random.Random(seed)
    groups = []
    for name, (names, edges) in GROUPS.items():
        d = dynkin.diagram(names, [(names[u], names[v], m)
                                   for u, v, m in edges])
        ga.table(d)
        items = []
        for i in range(ITEMS):
            span = MAX_LEN - MIN_LEN + 1
            n1, n2, n3, n4, n5 = (MIN_LEN + (i + 2 * k) % span
                                  for k in range(5))
            T = rng.sample(names, 2)
            far = next(s for s in names if s not in T)
            inside = _word(rng, T, True, n5)
            outside = (_word(rng, T, True, n5 // 2)
                       + [(far, rng.choice((1, -1)))]
                       + _word(rng, T, True, n5 - n5 // 2))
            items.append((_word(rng, names, True, n1),
                          _word(rng, names, True, n2),
                          _word(rng, names, False, n3),
                          _word(rng, names, False, n4),
                          frozenset(T), inside, outside))
        groups.append((name, d, items))
    oracle_items = sorted(rng.sample(range(ITEMS), ORACLE_ITEMS))
    return {"groups": groups, "oracle_items": oracle_items, "first": None}


def run_round(state, tr):
    call = tr.call
    results = []
    for name, d, items in state["groups"]:
        rows = []
        for w1, w2, p1, p2, T, inside, outside in items:
            g1, g2, q1, q2, gin, gout = (
                call("garside.from_letters", ga.from_letters, d, w)
                for w in (w1, w2, p1, p2, inside, outside))
            prod = call("garside.multiply", ga.multiply, g1, g2)
            inv = call("garside.inverse", ga.inverse, g1)
            gcd = call("garside.left_gcd", ga.left_gcd, q1, q2)
            lcm = call("garside.left_lcm", ga.left_lcm, q1, q2)
            npf = call("garside.np_form", ga.np_form, prod)
            hit = call("garside.in_parabolic", ga.in_parabolic, gin, T)
            miss = call("garside.in_parabolic", ga.in_parabolic, gout, T)
            rows.append((g1, g2, q1, q2, gin, gout, prod, inv, gcd, lcm,
                         npf, hit, miss))
        results.append(rows)
    return results


def _divides(a, b):
    """a left-divides b."""
    return ga.multiply(ga.inverse(a), b).is_positive()


def _properties(d, item, row):
    """Per-operation verdicts from properties every Garside group has."""
    w1, w2 = item[:2]
    g1, g2, q1, q2, gin, gout, prod, inv, gcd, lcm, npf, hit, miss = row
    gens = [ga.generator(d, s) for s in d.vertices]
    made = [ga.parse_element(d, ga.serialize(g)) == g
            for g in (g1, g2, q1, q2, gin, gout)]
    mul_ok = (prod == ga.from_letters(d, w1 + w2)
              and ga.multiply(prod, q1) == ga.multiply(g1,
                                                       ga.multiply(g2, q1)))
    inv_ok = (ga.multiply(g1, inv).is_identity()
              and ga.multiply(inv, g1).is_identity())
    # no generator extends the gcd to a common divisor, and no last letter
    # of the lcm can be dropped with both operands still dividing it
    gcd_ok = (_divides(gcd, q1) and _divides(gcd, q2) and not any(
        _divides(ga.multiply(gcd, s), q1) and _divides(ga.multiply(gcd, s), q2)
        for s in gens))
    lcm_ok = _divides(q1, lcm) and _divides(q2, lcm)
    for s in gens:
        less = ga.multiply(lcm, ga.inverse(s))
        if less.is_positive() and _divides(q1, less) and _divides(q2, less):
            lcm_ok = False
    neg, pos = npf.neg, npf.pos
    np_ok = (ga.np_reconstruct(npf) == prod and neg.is_positive()
             and pos.is_positive()
             and not any(_divides(s, neg) and _divides(s, pos) for s in gens))
    return made + [mul_ok, inv_ok, gcd_ok, lcm_ok, np_ok, hit is True,
                   miss is False]


def _oracle(go, model, item, row):
    """Per-operation verdicts against the signed-permutation model of B3."""
    w1, w2, p1, p2, T, inside, outside = item
    g1, g2, q1, q2, gin, gout, prod, inv, gcd, lcm, npf, hit, miss = row

    def conv(g):
        return go.normalize(g.delta_power, tuple(
            model.prod(f.underlying.word) for f in g.factors))

    def divides(a, b):
        return go.multiply(go.inverse(a), b)[0] >= 0

    gens = [go.from_word([s]) for s in model.order]
    made = [go.from_signed(w) == conv(g)
            for w, g in zip((w1, w2, p1, p2, inside, outside),
                            (g1, g2, q1, q2, gin, gout))]
    x1, x2, P1, P2 = conv(g1), conv(g2), conv(q1), conv(q2)
    G, L = conv(gcd), conv(lcm)
    gcd_ok = divides(G, P1) and divides(G, P2) and not any(
        divides(go.multiply(G, s), P1) and divides(go.multiply(G, s), P2)
        for s in gens)
    lcm_ok = divides(P1, L) and divides(P2, L)
    for s in gens:
        less = go.multiply(L, go.inverse(s))
        if less[0] >= 0 and divides(P1, less) and divides(P2, less):
            lcm_ok = False
    neg, pos = conv(npf.neg), conv(npf.pos)
    np_ok = (go.multiply(go.inverse(neg), pos) == conv(prod)
             and neg[0] >= 0 and pos[0] >= 0
             and not any(divides(s, neg) and divides(s, pos) for s in gens))
    return made + [go.multiply(x1, x2) == conv(prod),
                   go.inverse(x1) == conv(inv), gcd_ok, lcm_ok, np_ok]


def referee(state, results, tally):
    """The first round is refereed in full; later rounds must repeat it."""
    first = state["first"]
    if first is not None:
        for rows, ref in zip(results, first):
            for row, want in zip(rows, ref):
                for k, (got, exp) in enumerate(zip(row, want)):
                    tally.op(got == exp, f"repeat op {k}")
        return
    state["first"] = results
    model = oracles.model_B(3, "abc")
    go = oracles.GarsideOracle(model)
    for (name, d, items), rows in zip(state["groups"], results):
        checked = set(state["oracle_items"]) if name == "B3" else ()
        for i, (item, row) in enumerate(zip(items, rows)):
            verdicts = _properties(d, item, row)
            if i in checked:
                # the oracle covers the six words and five of the operations
                verdicts = [a and b for a, b in zip(
                    verdicts, _oracle(go, model, item, row))] + verdicts[11:]
            for k, ok in enumerate(verdicts):
                tally.op(ok, f"{name} item {i} op {k}")
