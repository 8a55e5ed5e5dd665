"""Exact computation in Coxeter groups presented by Dynkin diagrams.

Operations return elements as ShortLex-minimal reduced words (tuples of
generator names), the generator order being the diagram's vertex declaration
order, and read an element given by any other word as the one it spells.

The word problem is solved by the numbers game (Björner & Brenti,
Combinatorics of Coxeter Groups, ch. 4; Casselman, "Computation in Coxeter
groups I", 2002).  A label m on s–t, s declared first, gives Cartan entries
(a_st, a_ts) with a_st·a_ts = 4cos²(π/m): 3 → (−1, −1), 4 → (−2, −1),
6 → (−3, −1), ∞ → (−2, −2), any other m → (−4cos²(π/m), −1); commuting
pairs get 0.  s acts by y_s ↦ −y_s and y_t ↦ y_t − a_st·y_s: a faithful
representation with the positive orthant as a chamber, also for
non-symmetric entries on cycles (Vinberg, "Discrete linear groups
generated by reflections", 1971).

Labels 3, 4, 6 and ∞ give integer coordinates.  Other labels put them in
Z[c], c = 2cos(2π/M) with M the lcm of those labels: int tuples over
1, c, …, c^(deg−1), deg = φ(M)/2, reduced modulo the minimal polynomial Ψ_M
of c, so a value is zero exactly when its tuple is; 4cos²(π/m) is
2 + L_(M/m)(c) for the Lucas polynomials L_k(2cos θ) = 2cos kθ.  A nonzero
value v takes the sign of v(mid), mid the midpoint of a dyadic bracket of
c, once |v(mid)| exceeds a bound on |v'| times the bracket's half-width.

An element w is represented by y = w·f0, where f0 = (1, …, 1); t is a left
descent of w exactly when y_t < 0.  Every operation runs on this one state:
`_state` reflects a word's letters into f0 from the right, and `_peel` takes
off the least left descent among some ranks until none is left.  Over all
ranks the peeled letters spell the lex-least reduced word, which is the
ShortLex form; over the ranks of T they spell the ShortLex word of the part
in W_T, and the state that remains is that of the rest.  Enumeration runs
right multiplication on w⁻¹·f0 breadth-first and yields index tables (right
multiplication, parent and last letter of each word).  Infinite groups work
the same way up to the enumeration cap.

Engines are cached per diagram and keep no table of elements; only a ring
engine's memo of coordinate signs grows, and its writes are idempotent, so
concurrent readers in one process observe serial behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, zip_longest

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


# Integer Cartan entries (a_st, a_ts) per label for s declared before t
_CARTAN = {3: (-1, -1), 4: (-2, -1), 6: (-3, -1), INFINITY: (-2, -2)}


# -- Z[c]: polynomials are int lists, constant term first ---------------------


def _add(*polys):
    return [sum(cs) for cs in zip_longest(*polys, fillvalue=0)]


def _divmod(p, q):
    """Quotient and remainder of p by the monic q."""
    p, n = list(p), len(q) - 1
    quot = [0] * max(len(p) - n, 0)
    for k in reversed(range(len(quot))):
        f = quot[k] = p[k + n]
        for i, a in enumerate(q):
            p[k + i] -= f * a
    return quot, (p + [0] * n)[:n]


def _lucas(n):
    """[L_0, …, L_n] with L_k(2cos θ) = 2cos kθ: L_(k+1) = x·L_k − L_(k−1)."""
    out = [[2], [0, 1]]
    while len(out) <= n:
        out.append(_add([0] + out[-1], [-a for a in out[-2]]))
    return out[:n + 1]


def _psi(M):
    """Minimal polynomial Ψ_M of 2cos(2π/M), M ≥ 3.

    R_d = 1 + L_1 + … + L_s for d = 2s + 1, and L_(s−1) + L_(s−3) + … for
    d = 2s (ending in L_1, or in 1 when s is odd), has the roots 2cos(2πj/d),
    0 < j < d/2, so it is the product of Ψ_e over the divisors e ≥ 3 of d.
    """
    psi, lucas = {}, _lucas(M // 2)
    for d in [d for d in range(3, M + 1) if M % d == 0]:
        s = d // 2
        if d % 2:
            r = _add([1], *lucas[1:s + 1])
        else:
            r = _add([s % 2], *lucas[s - 1:0:-2])
        for e, f in psi.items():
            if d % e == 0:
                r, rem = _divmod(r, f)
                if any(rem):
                    raise InvariantViolated(f"Ψ_{e} does not divide R_{d}")
        psi[d] = r
    return psi[M]


def _at(coeffs, num, k):
    """2^(k·deg p)·p(num/2^k) for p = coeffs, an integer of p's sign there."""
    top = len(coeffs) - 1
    return sum(a * num ** i << k * (top - i) for i, a in enumerate(coeffs))


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


class _Engine:
    """Per-diagram engine: the numbers game on the geometric representation."""

    def __init__(self, diagram):
        self.gens = diagram.vertices
        self.rank = {s: i for i, s in enumerate(self.gens)}
        ring = [m for _, _, m in diagram.edges if m not in _CARTAN]
        M = math.lcm(*ring)
        # the ring is Z itself, of degree 1, when every label is in _CARTAN
        self._psi = psi = _psi(M) if ring else [0, 1]
        self._deg = deg = len(psi) - 1
        # −a_st and −a_ts in Z[c], with 4cos²(π/m) = 2 + L_(M/m)(c)
        entries = {m: ([-a], [-b]) for m, (a, b) in _CARTAN.items()}
        entries.update({m: (_add([2], _lucas(M // m)[-1]), [1]) for m in ring})
        # ops[i] = [(t, q, k)]: s_i adds k·v_q to the flat coordinate t, where
        # v is the block of coordinates of y_i; column q of the product by p
        # is p·c^q reduced
        self._ops = [[] for _ in self.gens]
        for u, v, m in diagram.edges:
            i, j = self.rank[u], self.rank[v]
            for src, dst, p in zip((i, j), (j, i), entries[m]):
                cols = [_divmod([0] * q + p, psi)[1] for q in range(deg)]
                self._ops[src] += [(dst * deg + r, q, k) for q, col in enumerate(cols)
                                   for r, k in enumerate(col) if k]
        self._f0 = ((1,) + (0,) * (deg - 1)) * len(self.gens)
        if not ring:
            self._reflect, self._negative = self._reflect_int, lambda y, i: y[i] < 0
            return
        self._reflect, self._negative = self._reflect_ring, self._ring_negative
        for i, ops in enumerate(self._ops):  # and y_i ↦ y_i − 2·y_i
            ops += [(i * deg + r, r, -2) for r in range(deg)]
        self._signs = {}
        # c is the one root of Ψ_M in (2cos(3π/M), 2], and Ψ_M < 0 below it
        k = 30
        L, H = math.floor(2 * math.cos(3 * math.pi / M) * 2 ** k), 2 << k
        if not _at(psi, L, k) < 0 < _at(psi, H, k):
            raise InvariantViolated(f"Ψ_{M} does not change sign at 2cos(2π/{M})")
        self._brackets = [(L, H, k)]  # c ∈ (L/2^k, H/2^k), halving

    def key(self, word):
        return tuple(self.rank[s] for s in word)

    def _indices(self, word):
        try:
            return [self.rank[s] for s in word]
        except KeyError as e:
            raise UnknownGenerator(f"{e.args[0]!r} is not a generator") from None

    # s_i acts by y_i -> -y_i and y_j -> y_j - a_ij·y_i, in place
    def _reflect_int(self, y, i):
        v = y[i]
        y[i] = -v
        for t, _, k in self._ops[i]:
            y[t] += k * v

    def _reflect_ring(self, y, i):
        v = y[i * self._deg:(i + 1) * self._deg]
        for t, q, k in self._ops[i]:
            y[t] += k * v[q]

    def _ring_negative(self, y, i):
        deg = self._deg
        v = tuple(y[i * deg:(i + 1) * deg])
        hit = self._signs.get(v)
        if hit is None:
            hit = self._signs[v] = any(v) and self._sign(v) < 0
        return hit

    def _sign(self, v):
        """v(c) up to a positive factor, for v ≠ 0, by bisecting c's bracket.

        With mid the midpoint of a bracket of width h, |c − mid| < h/2 and
        |v'| ≤ D = Σ i·|a_i|·2^(i−1) on [−2, 2], so v(c) has the sign of
        v(mid) once |v(mid)| > D·h/2.
        """
        deg, psi, brackets = self._deg, self._psi, self._brackets
        slope = sum(i * abs(a) << (i - 1) for i, a in enumerate(v) if i)
        for n in count():
            if n == len(brackets):
                L, H, k = brackets[-1]
                brackets.append((2 * L, L + H, k + 1) if _at(psi, L + H, k + 1) > 0
                                else (L + H, 2 * H, k + 1))
            L, H, k = brackets[n]
            at = _at(v, L + H, k + 1)
            if abs(at) > slope * (H - L) << (k + 1) * (deg - 2):
                return at

    def _state(self, word, y=None):
        """y = w·f0 (w·y, in place, for a given state y), computed letter by
        letter from the right."""
        y, reflect = list(self._f0) if y is None else y, self._reflect
        for i in reversed(self._indices(word)):
            reflect(y, i)
        return y

    def _peel(self, y, ranks):
        """Peel the least left descent among `ranks` off y = w·f0, in place,
        until none is left. With w = u·v, u in W_ranks and v without a left
        descent in ranks, the peeled letters spell u's ShortLex word and y
        is left as v·f0."""
        negative, reflect, gens = self._negative, self._reflect, self.gens
        out = []
        while True:
            for i in ranks:
                if negative(y, i):
                    break
            else:
                return tuple(out)
            out.append(gens[i])
            reflect(y, i)

    def canonical(self, word):
        """ShortLex canonical form of an arbitrary word."""
        return self._peel(self._state(word), range(len(self.gens)))

    def enumerate(self, cap):
        """ShortLex enumeration with index tables; CapExceeded if |W| > cap.

        Breadth-first in index order: the first arrival at an element, from
        the ShortLex-ordered previous layer and generators in rank order,
        spells its lex-least reduced word.
        """
        # w's state w⁻¹·f0 is reflected by s_k for w·s_k; equal states, equal w
        reflect = self._reflect
        index = {self._f0: 0}
        states = [self._f0]
        words, parent, last, rmul = [()], [-1], [-1], []
        i = 0
        while i < len(words):
            row = []
            for k, s in enumerate(self.gens):
                z = list(states[i])
                reflect(z, k)
                state = tuple(z)
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
        """Longest element of W_T, by left ascents in T until each is a descent."""
        ranks = sorted(self._indices(T))
        y = list(self._f0)
        while True:
            for i in ranks:
                if not self._negative(y, i):
                    break
            else:
                return self._peel(y, range(len(self.gens)))
            self._reflect(y, i)


# Diagrams whose engine (and, in `garside`, whose table) stays cached; the
# least recently used is dropped beyond this, and rebuilt on demand with the
# same ShortLex indices.
CACHED_DIAGRAMS = 16


@lru_cache(maxsize=CACHED_DIAGRAMS)
def engine(d):
    return _Engine(d)


# -- public operations -------------------------------------------------------


def normal_form(d, word):
    """Canonical ShortLex reduced form of a word (iterable of generators)."""
    return CoxeterElement(d, engine(d).canonical(tuple(word)))


def multiply(x, y):
    if x.group != y.group:
        raise ValueError("elements of different groups")
    return CoxeterElement(x.group, engine(x.group).canonical(x.word + y.word))


def inverse(x):
    return CoxeterElement(x.group, engine(x.group).canonical(x.word[::-1]))


def enumerate_group(d, cap):
    """All elements in ShortLex order; CapExceeded when |W| > cap."""
    return [CoxeterElement(d, w) for w in engine(d).enumerate(cap).words]


def longest_element(d):
    if not is_spherical(d):
        raise NotSpherical("longest element requires a spherical diagram")
    return CoxeterElement(d, engine(d).longest_parabolic(d.vertices))


def support(x):
    return frozenset(engine(x.group).canonical(x.word))


def gate_projection(x, T, side="right"):
    """Unique shortest element of the coset x*W_T (side=right) or W_T*x (left).

    Returns gate, tail with x = gate*tail (right) or x = tail*gate (left) and
    length(x) = length(gate) + length(tail); tail lies in W_T.

    The left T-descents of x = tail*gate are those of its tail, so peeling
    them off x·f0 spells the tail's ShortLex word and leaves gate·f0. The
    right side peels x⁻¹ = tail⁻¹*gate⁻¹ alike, which spells tail⁻¹.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    eng = engine(x.group)
    x = CoxeterElement(x.group, eng.canonical(x.word))  # x may hold any word
    y = eng._state(x.word if side == "left" else x.word[::-1])
    tail = eng._peel(y, sorted(eng._indices(T)))
    if side == "left":
        gate = eng._peel(y, range(len(eng.gens)))
    elif tail:  # gate = x·tail⁻¹
        gate, tail = eng.canonical(x.word + tail), eng.canonical(tail[::-1])
    else:  # no right descent in T: x is its own gate
        gate = x.word
    gate, tail = CoxeterElement(x.group, gate), CoxeterElement(x.group, tail)
    if gate.length + tail.length != x.length:
        raise InvariantViolated("gate and tail lengths must add up to the length of x")
    return GateResult(gate, tail, tail.length)


def coset_elements(g, T, side="right"):
    """Materialize the coset g*W_T (or W_T*g); W_T must be finite.

    The states of W_T*g are the orbit of g·f0 under left multiplication by
    T; those of g*W_T are g applied to the orbit of f0. Each peels to its
    ShortLex word, and the orbit's start is g itself.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    eng = engine(g.group)
    ranks = eng._indices(T)
    g = CoxeterElement(g.group, eng.canonical(g.word))  # g may hold any word
    # every parabolic subgroup of a finite W is finite
    if not (is_spherical(g.group) or is_spherical(g.group.induced(T))):
        raise NotSpherical(f"W_T is infinite for T = {sorted(T, key=eng.rank.get)}")
    right, everything = side == "right", range(len(eng.gens))
    start = eng._f0 if right else tuple(eng._state(g.word))
    seen, frontier = {start: g.word}, [start]  # state -> ShortLex word
    while frontier:
        nxt = []
        for y in frontier:
            for i in ranks:
                z = list(y)
                eng._reflect(z, i)
                z = tuple(z)
                if z not in seen:
                    seen[z] = eng._peel(eng._state(g.word, list(z)) if right
                                        else list(z), everything)
                    nxt.append(z)
        frontier = nxt
    return [CoxeterElement(g.group, w) for w in sorted(seen.values(), key=eng.key)]


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
    # one peel per side: a left descent of the T2-gate of v is a left
    # descent of v itself, since v is that gate times a reduced tail
    left = gate_projection(multiply(inverse(g1), g2), T1, "left")
    w = gate_projection(left.gate, T2, "right").gate
    # w⁻¹·s·w = t exactly when s·w and w·t have one state
    after = {tuple(eng._state(w.word + (t,))): t for t in T2}
    conj = {s: after.get(tuple(eng._state((s,) + w.word))) for s in T1}
    K = {s for s, t in conj.items() if t is not None}
    x0 = multiply(g1, left.tail)
    X = coset_elements(x0, K)
    pairs = [(x, multiply(x, w)) for x in X]
    y0 = dict(pairs)[x0]
    Y = coset_elements(y0, {conj[s] for s in K})
    if ({y for _, y in pairs} != set(Y)
            or not set(eng.canonical(g2.word[::-1] + y0.word)) <= T2):
        raise InvariantViolated(
            "gate images must form the parallel coset inside g2·W_T2")
    return X, Y, pairs
