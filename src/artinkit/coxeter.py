"""Exact computation in Coxeter groups presented by Dynkin diagrams.

Elements are canonical ShortLex-minimal reduced words (tuples of generator
names); the generator order is the diagram's vertex declaration order.

The word problem is solved in an exact geometric representation (Casselman,
"Computation in Coxeter groups I: Multiplication", 2002).  Each label gets
Cartan entries (a_st, a_ts), s declared before t: 3 → (−1, −1),
4 → (−2, −1), 5 → (−φ, −φ), 6 → (−3, −1), ∞ → (−2, −2), and 0 for commuting
pairs.  The generator s acts on coordinate vectors by y_s ↦ −y_s and
y_t ↦ y_t − a_st·y_s; by Vinberg (1971) this is a faithful reflection
representation even when the entries are not symmetric or the diagram has
cycles.  Coordinates are ints, or pairs (a, b) = a + bφ with φ² = φ + 1 when
some label is 5, so equality and sign tests are exact.

An element w is represented by y = w·f0, where f0 = (1, …, 1); t is a left
descent of w exactly when y_t < 0.  Peeling off the least left descent until
none is left spells the lex-least reduced word, which is the ShortLex form.
Enumeration runs right multiplication on w⁻¹·f0 breadth-first and yields
index tables (right multiplication, parent and last letter of each word).
Infinite groups work the same way up to the enumeration cap.

Diagrams with a label outside {2, 3, 4, 5, 6, ∞} keep the braid-move closure
word problem (Tits rewriting): exponential in the worst case, exact always.

Engines (memo tables) are cached per diagram and grow monotonically; writes
are idempotent, so concurrent readers in one process observe serial behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dynkin import DynkinDiagram, INFINITY, is_spherical
from .errors import CapExceeded, InvariantViolated, NotSpherical, UnknownGenerator


@dataclass(frozen=True)
class CoxeterElement:
    group: DynkinDiagram
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))

    @property
    def length(self):
        return len(self.word)

    def __str__(self):
        return "".join(self.word) if self.word else "e"


@dataclass(frozen=True)
class GateResult:
    gate: CoxeterElement
    tail: CoxeterElement
    distance: int


# Cartan entries (a_st, a_ts) per label for s declared before t, as pairs
# (a, b) = a + bφ; the integer engine reads the a parts only.
_CARTAN = {
    3: ((-1, 0), (-1, 0)),
    4: ((-2, 0), (-1, 0)),
    5: ((0, -1), (0, -1)),
    6: ((-3, 0), (-1, 0)),
    INFINITY: ((-2, 0), (-2, 0)),
}


def _phi_negative(v):
    """Exact sign test a + bφ < 0, from 2(a + bφ) = (2a + b) + b√5."""
    a, b = v
    x = 2 * a + b
    if x <= 0 and b <= 0:
        return x < 0 or b < 0
    if x >= 0 and b >= 0:
        return False
    return x * x > 5 * b * b if x < 0 else 5 * b * b > x * x


def _int_negative(v):
    return v < 0


@dataclass(frozen=True)
class Enumeration:
    """ShortLex enumeration of W with its index tables.

    words[i] is the i-th canonical word (index 0 is the identity);
    rmul[i][k] is the index of words[i]·gens[k]; parent[i] and last[i] are
    the index of words[i][:-1] and the position of its last letter (-1 for
    the identity), well defined because ShortLex forms are prefix-closed.
    """

    gens: tuple
    words: list
    rmul: list
    parent: list
    last: list

    def coset_minima(self, T):
        """rep[x] = index of the minimal element of the coset x·W_T.

        x is minimal iff no right descent of x lies in T; otherwise x·s is
        shorter for such a descent s, lies in the same coset and comes
        earlier in ShortLex order.
        """
        ks = [k for k, s in enumerate(self.gens) if s in T]
        length = [len(w) for w in self.words]
        rep = []
        for x, row in enumerate(self.rmul):
            for k in ks:
                y = row[k]
                if length[y] < length[x]:
                    rep.append(rep[y])
                    break
            else:
                rep.append(x)
        return rep


class _Engine:
    """Per-diagram engine on the geometric representation, with memoized
    right multiplication."""

    def __init__(self, diagram):
        self.d = diagram
        self.gens = diagram.vertices
        self.rank = {s: i for i, s in enumerate(self.gens)}
        self._rmult = {}
        golden = any(m == 5 for _, _, m in diagram.edges)
        # nbrs[i] = [(j, a_ij)] over the generators j that do not commute with i
        self._nbrs = [[] for _ in self.gens]
        for u, v, m in diagram.edges:
            a_uv, a_vu = _CARTAN[m]
            if not golden:
                a_uv, a_vu = a_uv[0], a_vu[0]
            i, j = self.rank[u], self.rank[v]
            self._nbrs[i].append((j, a_uv))
            self._nbrs[j].append((i, a_vu))
        self._f0 = ((1, 0) if golden else 1,) * len(self.gens)
        self._negative = _phi_negative if golden else _int_negative
        self._reflect = self._reflect_phi if golden else self._reflect_int

    def key(self, word):
        return tuple(self.rank[s] for s in word)

    def _indices(self, word):
        rank = self.rank
        for s in word:
            if s not in rank:
                raise UnknownGenerator(f"{s!r} is not a generator")
        return [rank[s] for s in word]

    # s_i acts by y_i -> -y_i and y_j -> y_j - a_ij·y_i, in place
    def _reflect_int(self, y, i):
        v = y[i]
        y[i] = -v
        for j, a in self._nbrs[i]:
            y[j] -= a * v

    def _reflect_phi(self, y, i):
        a, b = y[i]
        y[i] = (-a, -b)
        for j, (p, q) in self._nbrs[i]:
            c, d = y[j]
            # (p + qφ)(a + bφ) = (pa + qb) + (pb + qa + qb)φ since φ² = φ + 1
            y[j] = (c - p * a - q * b, d - p * b - q * (a + b))

    def canonical(self, word):
        """ShortLex canonical form of an arbitrary word.

        Computes y = w·f0 letter by letter from the right, then peels off
        the least left descent (the lowest-rank negative coordinate) until
        none is left; the peeled letters spell the lex-least reduced word.
        """
        y = list(self._f0)
        for i in reversed(self._indices(word)):
            self._reflect(y, i)
        negative, gens = self._negative, self.gens
        out = []
        while True:
            for i, v in enumerate(y):
                if negative(v):
                    break
            else:
                return tuple(out)
            out.append(gens[i])
            self._reflect(y, i)

    def rmult(self, word, s):
        """Canonical form of (canonical word) * s."""
        memo = self._rmult
        hit = memo.get((word, s))
        if hit is None:
            hit = self.canonical(word + (s,))
            memo[(word, s)] = hit
        return hit

    # enumeration state of w: w⁻¹·f0, on which right multiplication by s_k
    # is the reflection s_k, and equal states mean equal elements
    def _start(self):
        return self._f0

    def _right(self, state, k):
        z = list(state)
        self._reflect(z, k)
        return tuple(z)

    def lmult(self, s, word):
        return self.canonical((s,) + word)

    def mult(self, u, v):
        out = u
        for s in v:
            out = self.rmult(out, s)
        return out

    def inv(self, word):
        return self.canonical(tuple(reversed(word)))

    def is_right_descent(self, word, s):
        return len(self.rmult(word, s)) < len(word)

    def right_descents(self, word):
        return frozenset(
            s for s in self.d.vertices if self.is_right_descent(word, s)
        )

    def enumerate(self, cap):
        """ShortLex enumeration with index tables; CapExceeded if |W| > cap.

        Breadth-first in index order: the first arrival at an element, from
        the ShortLex-ordered previous layer and generators in rank order,
        spells its lex-least reduced word.
        """
        start = self._start()
        index = {start: 0}
        states = [start]
        words, parent, last, rmul = [()], [-1], [-1], []
        i = 0
        while i < len(words):
            row = []
            for k, s in enumerate(self.gens):
                state = self._right(states[i], k)
                j = index.get(state)
                if j is None:
                    j = len(words)
                    if j >= cap:
                        raise CapExceeded(cap)
                    index[state] = j
                    states.append(state)
                    words.append(words[i] + (s,))
                    parent.append(i)
                    last.append(k)
                row.append(j)
            rmul.append(row)
            i += 1
        return Enumeration(self.gens, words, rmul, parent, last)

    def longest_parabolic(self, T):
        """Longest element of W_T by greedy ascent inside the parabolic."""
        w = ()
        while True:
            for s in T:
                u = self.rmult(w, s)
                if len(u) > len(w):
                    w = u
                    break
            else:
                return w


class _ClosureEngine(_Engine):
    """Braid-move closure word problem, for labels outside {2,…,6, ∞}.

    Tits rewriting: a word is shortened by scanning its braid-move closure
    for an adjacent equal pair, and a reduced word is canonicalized as the
    ShortLex minimum of its closure. Exponential in the worst case.
    """

    def __init__(self, diagram):
        self.d = diagram
        self.gens = diagram.vertices
        self.rank = {s: i for i, s in enumerate(self.gens)}
        self._rmult = {}

    # braid moves: replace an alternating (s,t,...) run of length m(s,t)
    # by the (t,s,...) run; these preserve length and generate all reduced
    # expressions of an element.
    def _moves(self, word):
        d = self.d
        n = len(word)
        for i in range(n - 1):
            s, t = word[i], word[i + 1]
            if s == t:
                continue
            m = d.label(s, t)
            if m == INFINITY or i + m > n:
                continue
            run = word[i:i + m]
            ok = all(run[j] == (s if j % 2 == 0 else t) for j in range(m))
            if ok:
                rep = tuple(t if j % 2 == 0 else s for j in range(m))
                yield word[:i] + rep + word[i + m:]

    def _closure(self, word):
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for w in frontier:
                for v in self._moves(w):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def canonical(self, word):
        self._indices(word)
        out = ()
        for s in word:
            out = self.rmult(out, s)
        return out

    def rmult(self, word, s):
        memo = self._rmult
        hit = memo.get((word, s))
        if hit is not None:
            return hit
        candidate = word + (s,)
        closure = self._closure(candidate)
        result = None
        for w in closure:
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    result = self.canonical(w[:i] + w[i + 2:])
                    break
            if result is not None:
                break
        if result is None:
            result = min(closure, key=self.key)
        memo[(word, s)] = result
        return result

    def _start(self):
        return ()

    def _right(self, state, k):
        return self.rmult(state, self.gens[k])


# Diagrams whose engine (and, in `garside`, whose table) stays cached; the
# least recently used is dropped beyond this, and rebuilt on demand with the
# same ShortLex indices.
CACHED_DIAGRAMS = 16


@lru_cache(maxsize=CACHED_DIAGRAMS)
def engine(d):
    geometric = all(m in _CARTAN for _, _, m in d.edges)
    return (_Engine if geometric else _ClosureEngine)(d)


# -- public operations -------------------------------------------------------


def normal_form(d, word):
    """Canonical ShortLex reduced form of a word (iterable of generators)."""
    return CoxeterElement(d, engine(d).canonical(tuple(word)))


def multiply(x, y):
    if x.group != y.group:
        raise ValueError("elements of different groups")
    return CoxeterElement(x.group, engine(x.group).mult(x.word, y.word))


def inverse(x):
    return CoxeterElement(x.group, engine(x.group).inv(x.word))


def enumerate_group(d, cap):
    """All elements in ShortLex order; CapExceeded when |W| > cap."""
    return [CoxeterElement(d, w) for w in engine(d).enumerate(cap).words]


def longest_element(d):
    if not is_spherical(d):
        raise NotSpherical("longest element requires a spherical diagram")
    return CoxeterElement(d, engine(d).longest_parabolic(d.vertices))


def support(x):
    return frozenset(x.word)


def gate_projection(x, T, side="right"):
    """Unique shortest element of the coset x*W_T (side=right) or W_T*x (left).

    Returns gate, tail with x = gate*tail (right) or x = tail*gate (left) and
    length(x) = length(gate) + length(tail); tail lies in W_T.
    """
    if side == "left":
        # W_T*x is the inverse of x⁻¹*W_T: invert its gate and tail
        right = gate_projection(inverse(x), T, "right")
        return GateResult(inverse(right.gate), inverse(right.tail),
                          right.distance)
    if side != "right":
        raise ValueError("side must be 'right' or 'left'")
    eng = engine(x.group)
    T = frozenset(T)
    for s in T:
        if s not in eng.rank:
            raise UnknownGenerator(f"{s!r} is not a generator")
    w = x.word
    stripped = []
    while True:
        for s in sorted(T, key=lambda t: eng.rank[t]):
            if eng.is_right_descent(w, s):
                w = eng.rmult(w, s)
                stripped.append(s)
                break
        else:
            break
    gate = CoxeterElement(x.group, w)
    tail = CoxeterElement(x.group, eng.canonical(tuple(reversed(stripped))))
    if gate.length + tail.length != x.length:
        raise InvariantViolated("gate and tail lengths must add up to the length of x")
    return GateResult(gate, tail, tail.length)


def coset_elements(g, T, side="right"):
    """Materialize the coset g*W_T (or W_T*g) in a spherical group."""
    eng = engine(g.group)
    seen = {g.word}
    frontier = [g.word]
    while frontier:
        nxt = []
        for w in frontier:
            for s in T:
                u = eng.rmult(w, s) if side == "right" else eng.lmult(s, w)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return [CoxeterElement(g.group, w) for w in sorted(seen, key=eng.key)]


def pair_gate(d, T1, g1, T2, g2):
    """Mutual nearest-point sets between two standard-parabolic cosets.

    Returns (X, Y, pairs): X ⊆ g1*W_T1 and Y ⊆ g2*W_T2 realize the minimal
    word-metric distance between the cosets, pairs is the graph of the
    nearest-point bijection X -> Y. X and Y are sorted as `coset_elements`
    sorts, and pairs follows X.

    The projection between two residues is a residue (Abramenko & Brown,
    Buildings, §5.3), read off the double coset W_T1·u·W_T2 of u = g1⁻¹·g2.
    Its shortest element w has no left descent in T1 and no right descent
    in T2; with u = a·w·b, a ∈ W_T1 and b ∈ W_T2, the distance is ℓ(w) and
    X = g1·a·W_K with K = {s ∈ T1 : w⁻¹·s·w ∈ T2}, since Kilmoyer's theorem
    gives W_T1 ∩ w·W_T2·w⁻¹ = W_{T1 ∩ wT2w⁻¹} (Geck & Pfeiffer, Characters
    of Finite Coxeter Groups and Iwahori–Hecke Algebras, §2.1). Each x ∈ X
    is matched with x·w. Y = g1·a·w·W_K', with K' = w⁻¹·K·w, is built
    separately and checked against those images and against g2·W_T2.
    """
    if not is_spherical(d):
        raise NotSpherical("pair_gate requires a spherical diagram")
    eng = engine(d)
    T1, T2 = frozenset(T1), frozenset(T2)
    # one strip per side: a left descent of the T2-gate of v is a left
    # descent of v itself, since v is that gate times a reduced tail
    left = gate_projection(multiply(inverse(g1), g2), T1, "left")
    w = gate_projection(left.gate, T2, "right").gate
    inv_w = tuple(reversed(w.word))
    conj = {s: eng.canonical(inv_w + (s,) + w.word) for s in T1}
    K = {s for s, c in conj.items() if len(c) == 1 and c[0] in T2}
    x0 = multiply(g1, left.tail)
    y0 = multiply(x0, w)
    X = coset_elements(x0, K)
    Y = coset_elements(y0, {conj[s][0] for s in K})
    pairs = [(x, multiply(x, w)) for x in X]
    if ({y for _, y in pairs} != set(Y)
            or not set(eng.mult(eng.inv(g2.word), y0.word)) <= T2):
        raise InvariantViolated(
            "gate images must form the parallel coset inside g2·W_T2")
    return X, Y, pairs
