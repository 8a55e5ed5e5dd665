"""Independent reference models used to freeze expected values in the tests.

Nothing in this file calls into the package's algorithms. Group arithmetic
comes from explicit permutation / signed-permutation / dihedral models,
lengths from BFS distance in the Cayley graph, lattice facts from brute-force
divisor enumeration over those models, and (for the smallest instances) word
equality in the Artin monoid from exhaustive rewriting with the defining
relations only. Diagram classes come from the spherical and affine catalogs
matched by `is_isomorphic`, a backtracking search that
`dynkin.classify` does not use; the diagrams themselves are built with the
package's constructors. Agreement between the package and these models is
what the frozen constants in the test suite certify.
"""

from array import array
from fractions import Fraction
from itertools import combinations

from artinkit.dynkin import DynkinDiagram, cycle_diagram, path_diagram


# -- generic finite group scaffolding ---------------------------------------


def bfs_lengths(gens, mul, e):
    """Map element -> Cayley-graph distance from e, multiplying on the right."""
    dist = {e: 0}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens.values():
                y = mul(x, g)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def shortlex_words(gens, mul, e, order):
    """Map element -> ShortLex-least reduced word (tuple of generator names).

    Uses the fact that ShortLex-minimal words are prefix-closed: scanning the
    layer-k canonical words in lexicographic order and appending generators in
    order yields the layer-(k+1) canonical words on first arrival.
    """
    rank = {s: i for i, s in enumerate(order)}
    words = {e: ()}
    layer = [((), e)]
    while layer:
        nxt = []
        for word, x in sorted(layer, key=lambda p: tuple(rank[s] for s in p[0])):
            for s in order:
                y = mul(x, gens[s])
                if y not in words:
                    w = word + (s,)
                    words[y] = w
                    nxt.append((w, y))
        layer = nxt
    return words


class CoxModel:
    """A finite Coxeter group given by explicit generators in a concrete model."""

    def __init__(self, gens, mul, e, order):
        self.gens = dict(gens)
        self.mul = mul
        self.e = e
        self.order = list(order)
        self.length = bfs_lengths(self.gens, mul, e)
        self.elements = sorted(
            self.length, key=lambda x: (self.length[x], repr(x))
        )
        self.word = shortlex_words(self.gens, mul, e, self.order)
        top = [x for x in self.elements if self.length[x] == self.max_length]
        assert len(top) == 1, "longest element must be unique"
        self.w0 = top[0]
        # generators are involutions, so the reversed word spells x⁻¹
        self._inv = {}
        for x in self.elements:
            y = self.prod(reversed(self.word[x]))
            assert mul(x, y) == e, "reversed word must spell the inverse"
            self._inv[x] = y
        self._ldiv = {}
        self._rdiv = {}

    @property
    def max_length(self):
        return max(self.length.values())

    def inv(self, x):
        return self._inv[x]

    def prod(self, word):
        x = self.e
        for s in word:
            x = self.mul(x, self.gens[s])
        return x

    def left_divides(self, u, w):
        # u <= w in left weak order
        return self.length[u] + self.length[self.mul(self.inv(u), w)] == self.length[w]

    def right_divides(self, u, w):
        return self.length[self.mul(w, self.inv(u))] + self.length[u] == self.length[w]

    def left_divisors(self, w):
        if w not in self._ldiv:
            self._ldiv[w] = frozenset(
                u for u in self.elements if self.left_divides(u, w)
            )
        return self._ldiv[w]

    def right_divisors(self, w):
        if w not in self._rdiv:
            self._rdiv[w] = frozenset(
                u for u in self.elements if self.right_divides(u, w)
            )
        return self._rdiv[w]

    def meet_left(self, u, v):
        common = self.left_divisors(u) & self.left_divisors(v)
        best = max(common, key=lambda x: self.length[x])
        for x in common:
            assert self.left_divides(x, best), "left meet not a lattice meet"
        return best

    def meet_right(self, u, v):
        common = self.right_divisors(u) & self.right_divisors(v)
        best = max(common, key=lambda x: self.length[x])
        for x in common:
            assert self.right_divides(x, best), "right meet not a lattice meet"
        return best

    def right_descents(self, w):
        return frozenset(
            s for s in self.order
            if self.length[self.mul(w, self.gens[s])] < self.length[w]
        )

    def left_descents(self, w):
        return frozenset(
            s for s in self.order
            if self.length[self.mul(self.gens[s], w)] < self.length[w]
        )

    def coset_min(self, g, T):
        """Shortest element of the coset g * W_T (assert unique)."""
        coset = {g}
        while True:
            grown = set(coset)
            for x in coset:
                for s in T:
                    grown.add(self.mul(x, self.gens[s]))
            if grown == coset:
                break
            coset = grown
        best = min(self.length[x] for x in coset)
        mins = [x for x in coset if self.length[x] == best]
        assert len(mins) == 1, "coset minimum must be unique"
        return mins[0], frozenset(coset)


def nearest_points(model, g1, T1, g2, T2):
    """Nearest points between the cosets g1 * W_T1 and g2 * W_T2, by brute force.

    Returns (best, X, Y, nearest): the minimal distance, the points of each
    coset at that distance from the other, and for each x in X the set of
    points of the second coset at distance best from x.
    """
    _, c1 = model.coset_min(g1, T1)
    _, c2 = model.coset_min(g2, T2)
    dist = {}
    for u in c1:
        ui = model.inv(u)
        for v in c2:
            dist[u, v] = model.length[model.mul(ui, v)]
    best = min(dist.values())
    X = frozenset(u for u in c1 if any(dist[u, v] == best for v in c2))
    Y = frozenset(v for v in c2 if any(dist[u, v] == best for u in c1))
    nearest = {u: frozenset(v for v in c2 if dist[u, v] == best) for u in X}
    return best, X, Y, nearest


# -- concrete models ---------------------------------------------------------


def model_A(n, names):
    """Type A(n): the symmetric group S_{n+1}; names[i] swaps positions i, i+1."""
    assert len(names) == n
    size = n + 1
    e = tuple(range(size))

    def mul(a, b):
        return tuple(a[b[i]] for i in range(size))

    gens = {}
    for i, s in enumerate(names):
        p = list(range(size))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens[s] = tuple(p)
    return CoxModel(gens, mul, e, names)


def model_B(n, names):
    """Type B(n) for the path with the label-4 edge first: names[0] is the
    sign flip of coordinate 1, names[i] swaps coordinates i, i+1."""
    assert len(names) == n
    e = tuple(range(1, n + 1))

    def app(w, i):
        return w[i - 1] if i > 0 else -w[-i - 1]

    def mul(a, b):
        return tuple(app(a, app(b, i)) for i in range(1, n + 1))

    gens = {}
    flip = list(range(1, n + 1))
    flip[0] = -1
    gens[names[0]] = tuple(flip)
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens[names[i]] = tuple(p)
    return CoxModel(gens, mul, e, names)


def model_I2(m, names):
    """Dihedral group of order 2m as maps x -> eps*x + c on Z_m."""
    assert len(names) == 2
    e = (1, 0)

    def mul(a, b):
        # (a o b)(x) = a(b(x))
        e1, c1 = a
        e2, c2 = b
        return (e1 * e2 % m if m > 1 else 1, (e1 * c2 + c1) % m)

    gens = {names[0]: (-1 % m, 0), names[1]: (-1 % m, 1 % m)}
    return CoxModel(gens, mul, e, names)


def model_D(n, names):
    """Type D(n), n >= 4, vertex order: the two fork tips first, then the path.

    names[0]: 1 <-> -2 signed swap; names[1]: coordinates 1,2 swap;
    names[i>=2]: coordinates i, i+1 swap. Edges: names[0]-names[2] and
    names[1]-names[2] labeled 3, then a path.
    """
    assert len(names) == n
    e = tuple(range(1, n + 1))

    def app(w, i):
        return w[i - 1] if i > 0 else -w[-i - 1]

    def mul(a, b):
        return tuple(app(a, app(b, i)) for i in range(1, n + 1))

    gens = {}
    tip = list(range(1, n + 1))
    tip[0], tip[1] = -2, -1
    gens[names[0]] = tuple(tip)
    for i in range(1, n):
        p = list(range(1, n + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        gens[names[i]] = tuple(p)
    return CoxModel(gens, mul, e, names)


class Q5:
    """Exact arithmetic in Q(sqrt 5): value a + b*sqrt5 with a, b rational."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=Fraction(0)):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        return Q5(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Q5(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))


def model_H3(names):
    """Type H(3) for the path labeled (5, 3): exact reflection matrices.

    Basis alpha_1..alpha_3 with Gram entries -cos(pi/m); cos(pi/5) is
    (1+sqrt5)/4, so all matrix entries stay in Q(sqrt 5).
    """
    assert len(names) == 3
    zero, one = Q5(0), Q5(1)
    half = Q5(Fraction(1, 2))
    grm = {
        (0, 0): one, (1, 1): one, (2, 2): one,
        (0, 1): Q5(Fraction(-1, 4), Fraction(-1, 4)),  # -cos(pi/5)
        (1, 2): Q5(Fraction(-1, 2)),                   # -cos(pi/3)
        (0, 2): zero,
    }

    def gram(i, j):
        return grm[(i, j) if i <= j else (j, i)]

    def reflection(i):
        # s_i(alpha_j) = alpha_j - 2<alpha_j, alpha_i> alpha_i, columns = images
        cols = []
        for j in range(3):
            col = [one if k == j else zero for k in range(3)]
            coeff = (gram(j, i) + gram(j, i))
            col[i] = col[i] - coeff
            cols.append(tuple(col))
        return tuple(cols)

    def mul(a, b):
        # columns of a∘b: apply a to each column of b
        out = []
        for col in b:
            acc = [zero, zero, zero]
            for j, w in enumerate(col):
                for k in range(3):
                    acc[k] = acc[k] + a[j][k] * w
            out.append(tuple(acc))
        return tuple(out)

    e = tuple(tuple(one if k == j else zero for k in range(3)) for j in range(3))
    gens = {names[i]: reflection(i) for i in range(3)}
    assert half == Q5(Fraction(1, 2))
    return CoxModel(gens, mul, e, names)


def model_F4(names):
    """Type F(4) for the path labeled (3, 4, 3): the reflections of R^4 in the
    simple roots e2 − e3, e3 − e4, e4 and (e1 − e2 − e3 − e4)/2, as rational
    4×4 matrices."""
    assert len(names) == 4
    h = Fraction(1, 2)
    roots = [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)]

    def reflection(r):
        # x -> x - 2(x·r)/(r·r) r
        rr = sum(x * x for x in r)
        return tuple(tuple(Fraction(int(i == j)) - 2 * r[i] * r[j] / rr
                           for j in range(4)) for i in range(4))

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4))
                           for j in range(4)) for i in range(4))

    e = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
    gens = {s: reflection(r) for s, r in zip(names, roots)}
    return CoxModel(gens, mul, e, names)


def model_product(m1, m2):
    """Direct product of two CoxModels; generator names must not collide."""
    assert not set(m1.gens) & set(m2.gens)

    def mul(x, y):
        return (m1.mul(x[0], y[0]), m2.mul(x[1], y[1]))

    gens = {}
    for s, g in m1.gens.items():
        gens[s] = (g, m2.e)
    for s, g in m2.gens.items():
        gens[s] = (m1.e, g)
    return CoxModel(gens, mul, (m1.e, m2.e), list(m1.order) + list(m2.order))


# Classical constants: orders of the finite Coxeter groups and lengths of
# their longest elements (= number of positive roots).
COXETER_ORDER = {
    "A": lambda n: _factorial(n + 1),
    "B": lambda n: 2 ** n * _factorial(n),
    "D": lambda n: 2 ** (n - 1) * _factorial(n),
    "I2": lambda m: 2 * m,
    "H3": 120,
    "H4": 14400,
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
}

LONGEST_LENGTH = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "I2": lambda m: m,
    "H3": 15,
    "H4": 60,
    "F4": 24,
    "E6": 36,
    "E7": 63,
    "E8": 120,
}


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# -- positive-word oracle (defining relations only) ---------------------------


def braid_moves(word, mgraph):
    """All words obtained from one braid-relation rewrite (prod(s,t;m) -> prod(t,s;m))."""
    out = []
    n = len(word)
    for (pair, m) in mgraph.items():
        if not isinstance(m, int) or m < 2:
            continue
        s, t = tuple(pair)
        for a, b in ((s, t), (t, s)):
            pat = tuple(a if i % 2 == 0 else b for i in range(m))
            rep = tuple(b if i % 2 == 0 else a for i in range(m))
            for i in range(n - m + 1):
                if word[i:i + m] == pat:
                    out.append(word[:i] + rep + word[i + m:])
    return out


def braid_closure(word, mgraph, cap=2_000_000):
    """All positive words reachable from `word` by braid moves (both directions)."""
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for v in braid_moves(w, mgraph):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > cap:
                        raise RuntimeError("braid closure cap exceeded")
        frontier = nxt
    return seen


def tits_reduce(word, mgraph, cap=2_000_000):
    """Tits' solution of the word problem: a reduced word for `word`.

    Deletes an adjacent equal pair found anywhere in the braid-move closure
    (both directions, commutations included) until no closure word has one.
    Returns the reduced word and its closure, which holds every reduced word
    of the same element.
    """
    word = tuple(word)
    while True:
        closure = braid_closure(word, mgraph, cap)
        for w in closure:
            pair = next((i for i in range(len(w) - 1) if w[i] == w[i + 1]), None)
            if pair is not None:
                word = w[:pair] + w[pair + 2:]
                break
        else:
            return word, closure


def diagram_mgraph(names, edges):
    """Coxeter-matrix map frozenset({s,t}) -> m for a small diagram.

    `edges` lists (u, v, m); absent pairs get m = 2.
    """
    mg = {}
    names = list(names)
    for u, v in combinations(names, 2):
        mg[frozenset((u, v))] = 2
    for (u, v, m) in edges:
        mg[frozenset((u, v))] = m
    return mg


def monoid_equal(w1, w2, mgraph, cap=2_000_000):
    """Equality of two positive words in the Artin monoid (hence group)."""
    w1, w2 = tuple(w1), tuple(w2)
    if len(w1) != len(w2):
        return False
    return w2 in braid_closure(w1, mgraph, cap)


def group_words_equal(word1, word2, mgraph, names, w0_word, cap=2_000_000):
    """Equality in the Artin group of two signed words.

    Signed words are sequences of (letter, +1|-1). Each inverse letter is
    cleared by multiplying through with a central power of Delta^2, using
    s^-1 = (s^-1 Delta^2) Delta^-2 where s^-1 Delta^2 is positive; here we
    simply pad both words with enough Delta^2 = (w0_word)^2 on the right of
    every inverse letter: x s^-1 y = x (s^-1 Delta^2) (Delta^-2 y), and
    Delta^2 is central, so collecting all Delta^-2 at the end and cancelling
    equal counts reduces the comparison to positive words.
    """
    def positive_pad(word):
        pos = []
        borrowed = 0
        delta2 = tuple(w0_word) + tuple(w0_word)
        for (s, sign) in word:
            if sign > 0:
                pos.append((s,))
            else:
                # s^-1 Delta^2 is positive: it is the word for s\Delta^2,
                # but rather than compute it, use s^-1 = s (s^-2): pad with
                # Delta^2 and strip one s from its front... avoid cleverness:
                # s^-1 = (Delta^2 with a leading s removed) Delta^-2 requires
                # a word for Delta^2 starting with s. Find one by closure.
                target = None
                for w in braid_closure(delta2, mgraph, cap):
                    if w[0] == s:
                        target = w[1:]
                        break
                assert target is not None, "Delta^2 must be divisible by every letter"
                pos.append(target)
                borrowed += 1
        return tuple(x for chunk in pos for x in chunk), borrowed

    p1, b1 = positive_pad(word1)
    p2, b2 = positive_pad(word2)
    delta2 = tuple(w0_word) + tuple(w0_word)
    # rebalance borrowed central factors
    while b1 < b2:
        p1 = p1 + delta2
        b1 += 1
    while b2 < b1:
        p2 = p2 + delta2
        b2 += 1
    return monoid_equal(p1, p2, mgraph, cap)


def word_left_divisors(word, mgraph, cap=2_000_000):
    """All left-divisors of the positive word's monoid element.

    Each divisor is returned as a canonical representative: the lexicographic
    minimum over its own braid closure. Every left-divisor of a positive
    element appears as a prefix of some positive word for it.
    """
    closure = braid_closure(word, mgraph, cap)
    reps = {}
    for w in closure:
        for k in range(len(w) + 1):
            prefix = w[:k]
            canon = min(braid_closure(prefix, mgraph, cap))
            reps[canon] = prefix
    return set(reps)


def word_gcd(word1, word2, mgraph, cap=2_000_000):
    """Left-gcd of two positive words, as a canonical positive word."""
    d1 = word_left_divisors(word1, mgraph, cap)
    d2 = word_left_divisors(word2, mgraph, cap)
    common = d1 & d2
    best = max(common, key=len)
    top = [w for w in common if len(w) == len(best)]
    assert len(top) == 1, "gcd must be the unique maximal common divisor"
    for w in common:
        # every common divisor must divide the candidate gcd
        assert min(braid_closure(w, mgraph, cap)) in word_left_divisors(
            best, mgraph, cap
        )
    return best


# -- Garside oracle over a CoxModel ------------------------------------------


class GarsideOracle:
    """Greedy normal forms for a spherical Artin group over a CoxModel.

    Elements are pairs (delta_power, tuple of non-identity W elements).
    Implementation choices deliberately differ from the package: meets come
    from brute-force divisor sets of the model, normality from descent-set
    containment checked against BFS lengths.
    """

    def __init__(self, model):
        self.m = model

    def is_normal_pair(self, u, v):
        return self.m.left_descents(v) <= self.m.right_descents(u)

    def normalize(self, delta_power, factors):
        m = self.m
        fs = [f for f in factors if f != m.e]
        changed = True
        while changed:
            changed = False
            for i in range(len(fs) - 1):
                u, v = fs[i], fs[i + 1]
                if self.is_normal_pair(u, v):
                    continue
                # move the largest possible head of v into u
                c = m.meet_left(m.mul(m.inv(u), m.w0), v)
                fs[i] = m.mul(u, c)
                fs[i + 1] = m.mul(m.inv(c), v)
                changed = True
            fs = [f for f in fs if f != m.e]
        while fs and fs[0] == m.w0:
            # a leading w0 sits left of the other factors already; absorbing
            # it into the delta power twists nothing
            delta_power += 1
            fs = fs[1:]
        return (delta_power, tuple(fs))

    def tau(self, x):
        return self.m.mul(self.m.mul(self.m.w0, x), self.m.w0)

    def from_word(self, word):
        """Positive word (generator names) -> normal form."""
        return self.normalize(0, tuple(self.m.gens[s] for s in word))

    def multiply(self, a, b):
        d1, f1 = a
        d2, f2 = b
        shifted = tuple(self._tau_pow(f, d2) for f in f1)
        return self.normalize(d1 + d2, shifted + tuple(f2))

    def _tau_pow(self, x, k):
        for _ in range(abs(k) % 2):
            x = self.tau(x)
        return x

    def inverse(self, a):
        d, fs = a
        # (Delta^d f1..fk)^-1 = fk^-1 .. f1^-1 Delta^-d
        m = self.m
        out = (0, ())
        for f in reversed(fs):
            # f^-1 = Delta^-1 (Delta f^-1); Delta f^-1 = w0 * f^-1 is a simple
            piece = (-1, (m.mul(m.w0, m.inv(f)),))
            out = self.multiply(out, self.normalize(*piece))
        return self.multiply(out, (-d, ()))

    def equal(self, a, b):
        return self.normalize(*a) == self.normalize(*b)

    def from_signed(self, word):
        """Signed word [(letter, +1|-1), ...] -> normal form."""
        m = self.m
        out = (0, ())
        for (s, sign) in word:
            if sign > 0:
                piece = (0, (m.gens[s],))
            else:
                # s^-1 = Delta^-1 (Delta s^-1), second factor a simple
                piece = (-1, (m.mul(m.w0, m.inv(m.gens[s])),))
            out = self.multiply(out, self.normalize(*piece))
        return self.normalize(*out)


# -- the fixpoint normal form over a GarsideTable -----------------------------


class FixpointGarside:
    """Garside arithmetic over a `garside.GarsideTable`'s arrays, normalized
    by whole left-to-right passes of local left-weightings until no pass
    changes anything: the package's normal form before its one-sweep product.

    A reference for the sweep. Raw forms are (delta_power, factor indices);
    each operation is the package's former formula over this `normalize`,
    whose left-weightings come from the table's meets and products, never
    from its lazily filled flat table.
    """

    def __init__(self, t):
        self.t = t

    def normalize(self, d, fs):
        t = self.t
        fs = [f for f in fs if f != 0]
        passes, limit = 0, (len(fs) + 2) ** 2
        changed = True
        while changed:
            changed = False
            passes += 1
            assert passes <= limit, "normalization failed to stabilize"
            for i in range(len(fs) - 1):
                u, v = fs[i], fs[i + 1]
                if u and v and not t.is_normal(u, v):
                    c = t.meet_l(t.rcomp[u], v)
                    fs[i], fs[i + 1] = t.product(u, c), t.product(t.inv[c], v)
                    changed = True
            fs = [f for f in fs if f != 0]
        while fs and fs[0] == t.w0i:
            d += 1
            fs = fs[1:]
        return d, tuple(fs)

    def multiply(self, a, b):
        (d1, f1), (d2, f2) = a, b
        if d2 % 2:
            f1 = tuple(self.t.tau[f] for f in f1)
        return self.normalize(d1 + d2, f1 + f2)

    def from_letters(self, letters):
        """Left fold of s as (0, (s,)) and s⁻¹ as (−1, (Δ·s⁻¹,))."""
        t, raw = self.t, (0, ())
        for s, sign in letters:
            g = t.gen[s]
            raw = self.multiply(raw, (0, (g,)) if sign > 0 else (-1, (t.lcomp[g],)))
        return raw

    def inverse(self, a):
        d, fs = a
        e = d + len(fs)
        comps = (self.t.rcomp, self.t.lcomp)
        return self.normalize(
            -e, [comps[(e - i) % 2][f] for i, f in enumerate(reversed(fs))])

    def rev(self, a):
        d, fs = a
        flip = [self.t.inv[f] for f in reversed(fs)]
        if d % 2:
            flip = [self.t.tau[f] for f in flip]
        return self.normalize(d, flip)

    def np(self, a):
        d, fs = a
        if d >= 0:
            return (0, ()), a
        return self.inverse((d, fs[:-d])), (0, fs[-d:])

    def pn(self, a):
        neg, pos = self.np(self.rev(a))
        return self.rev(neg), self.rev(pos)

    def left_gcd(self, x, y):
        a, _ = self.np(self.multiply(self.inverse(x), y))
        return self.multiply(x, self.inverse(a))

    def left_lcm(self, x, y):
        _, u = self.pn(self.multiply(self.inverse(x), y))
        return self.multiply(x, u)

    def coset_key(self, a, X, shift):
        """Normal form of the minimal positive representative of the coset
        Δ^(2·shift)·a·A_X: Δ^d·A_X = Δ^e·m·A_X, then τ^(d+e)(a)·m stripped."""
        t = self.t
        d, fs = a
        d += 2 * shift
        e, m = strip_reference(t, d, [], X)
        seq = [t.tau[f] for f in fs] if (d + e) % 2 else list(fs)
        return self.normalize(*strip_reference(t, e, seq + m, X))


def strip_reference(t, d, seq, X):
    """Minimal positive representative of Δ^d·seq·A_X over the table t, as
    (Δ power, factors), for any simples seq: the referee of the package's
    coset keys.

    Repeatedly strips the largest right-divisor lying in the positive monoid
    of A_X: the largest right-divisor in W_X of the maximal simple
    right-divisor β of the product. β is Δ while d > 0 (Δ·x = τ(x)·Δ) and is
    folded over the factors otherwise. The divisor is carried right to left
    through the factors by the right-divisibility join; what reaches a
    leading Δ leaves Δ·c⁻¹ in its place. Every step reads the table's meets
    and products, through its right-weighting and division steps, never its
    lazily filled flat tables.
    """
    seq, w0x = list(seq), t.w0_parabolic(X)
    while True:
        if d:
            beta = t.w0i
        else:  # the right factor of each right-weighting
            beta = 0
            for f in seq:
                beta = (t._right_weighted(f, beta) or (f,))[0]
        c = t.meet_r(beta, w0x)
        if c == 0:
            return d, seq
        i = len(seq)
        while c and i:
            i -= 1
            seq[i], c = t._division_step(c, seq[i])
        if c:
            assert d, "divisor did not divide out"
            d -= 1
            seq.insert(0, t.lcomp[c])
        seq = [f for f in seq if f != 0]


def pack_key(raw):
    """A coset key (Δ power ≥ 0, factors) packed as `GarsideTable.coset_key`
    returns it: 16-bit words, injective as table indices are below 2^16."""
    return array("H", (raw[0], *raw[1])).tobytes()


# -- colored graph isomorphism -------------------------------------------------


def _wl_colors(vids, adj, color):
    """Iterated neighborhood refinement of an initial coloring."""
    cur = dict(color)
    while True:
        sig = {
            v: (cur[v], tuple(sorted(cur[u] for u in adj[v]))) for v in vids
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        nxt = {v: palette[sig[v]] for v in vids}
        if len(set(nxt.values())) == len(set(cur.values())):
            return nxt
        cur = nxt


def typed_isomorphism(v1, e1, c1, v2, e2, c2):
    """Color-preserving graph isomorphism by refinement plus backtracking.

    v*: vertex id lists; e*: edge pairs; c*: id -> color. Returns the mapping
    dict or None. Exhaustive: failure means no isomorphism exists.
    """
    if len(v1) != len(v2) or len(e1) != len(e2):
        return None
    adj1 = {v: set() for v in v1}
    adj2 = {v: set() for v in v2}
    for a, b in e1:
        adj1[a].add(b)
        adj1[b].add(a)
    for a, b in e2:
        adj2[a].add(b)
        adj2[b].add(a)
    # shared palette so refined colors are comparable across the two graphs
    base = {("g1", v): (c1[v],) for v in v1}
    base.update({("g2", v): (c2[v],) for v in v2})
    both_adj = {("g1", v): {("g1", u) for u in adj1[v]} for v in v1}
    both_adj.update({("g2", v): {("g2", u) for u in adj2[v]} for v in v2})
    refined = _wl_colors(list(both_adj), both_adj, base)
    r1 = {v: refined[("g1", v)] for v in v1}
    r2 = {v: refined[("g2", v)] for v in v2}
    from collections import Counter
    if Counter(r1.values()) != Counter(r2.values()):
        return None
    order = sorted(v1, key=lambda v: (sum(1 for u in v2 if r2[u] == r1[v]), -len(adj1[v])))
    mapping = {}
    used = set()

    def extend(k):
        if k == len(order):
            return True
        x = order[k]
        for y in v2:
            if y in used or r2[y] != r1[x]:
                continue
            ok = True
            for u in adj1[x]:
                if u in mapping and mapping[u] not in adj2[y]:
                    ok = False
                    break
            if ok:
                # mapped non-neighbors must stay non-neighbors
                for u, w in mapping.items():
                    if u not in adj1[x] and w in adj2[y]:
                        ok = False
                        break
            if ok:
                mapping[x] = y
                used.add(y)
                if extend(k + 1):
                    return True
                del mapping[x]
                used.remove(y)
        return False

    return dict(mapping) if extend(0) else None


# -- catalog classification of Coxeter diagrams --------------------------------


def _names(n):
    return [f"x{i}" for i in range(n)]


def _path(labels):
    return path_diagram(_names(len(labels) + 1), labels)


def _tripod(leg_a, leg_b, leg_c, labels=3):
    """Tree: center with three paths of the given lengths, all labels 3."""
    verts = ["c"]
    edges = []
    for leg, n in (("a", leg_a), ("b", leg_b), ("c", leg_c)):
        prev = "c"
        for i in range(n):
            name = f"{leg}{i}"
            verts.append(name)
            edges.append((prev, name, labels))
            prev = name
    return DynkinDiagram(tuple(verts), tuple(edges))


def spherical_entries(n):
    """Catalog of connected spherical diagrams with n vertices (n >= 3)."""
    out = []
    out.append((f"A({n})", _path([3] * (n - 1))))
    out.append((f"B({n})", _path([4] + [3] * (n - 2))))
    if n >= 4:
        out.append((f"D({n})", _tripod(1, 1, n - 3)))
    if n == 6:
        out.append(("E(6)", _tripod(1, 2, 2)))
    if n == 7:
        out.append(("E(7)", _tripod(1, 2, 3)))
    if n == 8:
        out.append(("E(8)", _tripod(1, 2, 4)))
    if n == 4:
        out.append(("F(4)", _path([3, 4, 3])))
    if n == 3:
        out.append(("H(3)", _path([5, 3])))
    if n == 4:
        out.append(("H(4)", _path([5, 3, 3])))
    return out


def affine_entries(k):
    """Catalog of connected affine diagrams with k vertices (rank k-1)."""
    n = k - 1  # affine type subscript
    out = []
    if n >= 2:
        out.append((f"AffA({n})", cycle_diagram(_names(n + 1), [3] * (n + 1))))
    if n >= 3:
        # double leaf at one end, label-4 edge at the other
        verts = ["l0", "l1", "h"] + [f"p{i}" for i in range(n - 3)] + ["z"]
        chain = ["h"] + [f"p{i}" for i in range(n - 3)] + ["z"]
        edges = [("l0", "h", 3), ("l1", "h", 3)]
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, 3))
        edges[-1] = (edges[-1][0], edges[-1][1], 4)
        out.append((f"AffB({n})", DynkinDiagram(tuple(verts), tuple(edges))))
    if n >= 2:
        out.append((f"AffC({n})", _path([4] + [3] * (n - 2) + [4])))
    if n == 4:
        star = DynkinDiagram(
            ("c", "u0", "u1", "u2", "u3"),
            tuple(("c", f"u{i}", 3) for i in range(4)),
        )
        out.append(("AffD(4)", star))
    if n >= 5:
        verts = ["l0", "l1", "h"] + [f"p{i}" for i in range(n - 5)] + ["k", "r0", "r1"]
        chain = ["h"] + [f"p{i}" for i in range(n - 5)] + ["k"]
        edges = [("l0", "h", 3), ("l1", "h", 3), ("r0", "k", 3), ("r1", "k", 3)]
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, 3))
        out.append((f"AffD({n})", DynkinDiagram(tuple(verts), tuple(edges))))
    if n == 6:
        out.append(("AffE(6)", _tripod(2, 2, 2)))
    if n == 7:
        out.append(("AffE(7)", _tripod(1, 3, 3)))
    if n == 8:
        out.append(("AffE(8)", _tripod(1, 2, 5)))
    if n == 4:
        out.append(("AffF(4)", _path([3, 3, 4, 3])))
    if n == 2:
        out.append(("AffG(2)", _path([6, 3])))
    return out


def _degree_label_signature(d):
    degs = sorted(d.degree(v) for v in d.vertices)
    labels = sorted(m for (_, _, m) in d.edges)
    return degs, labels


def is_isomorphic(d1, d2):
    """Label-preserving graph isomorphism (backtracking; fine below ~12 vertices)."""
    if d1.rank != d2.rank or len(d1.edges) != len(d2.edges):
        return False
    if _degree_label_signature(d1) != _degree_label_signature(d2):
        return False
    # order d1 vertices to keep the search connected where possible
    order = []
    seen = set()
    for start in sorted(d1.vertices, key=lambda v: -d1.degree(v)):
        if start in seen:
            continue
        stack = [start]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            order.append(x)
            stack.extend(d1.neighbors(x))

    def extend(mapping, used, i):
        if i == len(order):
            return True
        v = order[i]
        for w in d2.vertices:
            if w in used:
                continue
            if d1.degree(v) != d2.degree(w):
                continue
            ok = True
            for u, x in mapping.items():
                if d1.label(v, u) != d2.label(w, x):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(mapping, used, i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend({}, set(), 0)


def catalog_classify(d):
    """(tag, name) of a connected finite-label diagram of rank >= 3, by
    isomorphism search against the spherical catalog, then the affine one."""
    for name, entry in spherical_entries(d.rank):
        if is_isomorphic(d, entry):
            return ("Spherical", name)
    for name, entry in affine_entries(d.rank):
        if is_isomorphic(d, entry):
            return ("Affine", name)
    return ("Other", None)
