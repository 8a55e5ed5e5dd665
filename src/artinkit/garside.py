"""Exact arithmetic in spherical Artin groups via Garside normal forms.

An element is Δ^k · f_1 ⋯ f_l where the f_i are simples (positive lifts of
Coxeter group elements), no factor is trivial or Δ, and each consecutive
pair is left-weighted. A `GarsideElement` keeps this form raw, as k and the
ShortLex indices of the f_i, and boxes `Simple`s only when `factors` is
read. Simples index arrays with one row per element of the finite Coxeter
group: a generator's product on either side, inverse, descent masks,
support, τ and the complements in Δ.

Normal forms come out of `_sweep`, which appends simples by right-to-left
sweeps of left-weightings (the domino rule), one sweep per word. Its mirror
right-weights from the left into the right normal form, off which pn-forms
are read as np-forms are read off the left one. An inverse is the reversed
complements ∂f = f⁻¹·Δ, already normal (Epstein et al., Word Processing in
Groups, ch. 9). Gcd and lcm are fractions (Dehornoy et al., Foundations of
Garside Theory, ch. II–III): with x⁻¹·y = a⁻¹·b = u·v⁻¹ coprime, x ∧ y =
x·a⁻¹ and x ∨ y = x·u, and the right-hand pair reads x·y⁻¹ alike.

A coset key is the packed normal form of the minimal positive representative
of g·A_X. `GarsideTable.coset_keys` is the one keyer, over the children of
one chamber and a plan made once per (X, Δ power); `coset_key` is its
one-child case. The pair steps and the keyer read flat tables keyed by
u·|W| + v, each entry made on its first lookup, so time and memory follow
the pairs met, not |W|².

Conventions: inf(x) = delta_power, sup(x) = delta_power + number of factors,
size(x) = |delta_power| + number of factors (the canonical size used for
ball enumeration radii). τ is conjugation by Δ; τ² = id holds in every
spherical type, which the table checks at build time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial, prod

from . import coxeter as cx
from .dynkin import DynkinDiagram, classify, is_spherical
from .errors import (
    CapExceeded,
    GroupMismatch,
    InvariantViolated,
    NotPositive,
    NotSpherical,
    ParseError,
    PreconditionFailed,
    UnknownGenerator,
)


# Largest Coxeter group given a Garside table. Every array of the table has
# O(|W|·rank) entries, so the cap covers H(4) (|W| = 14,400) and E(6)
# (|W| = 51,840); E(7) and larger are refused before any enumeration.
MAX_TABLE = 60_000

# |W| of a connected spherical type, by the family and rank of its
# `classify` name
_ORDER = {"A": lambda n: factorial(n + 1), "B": lambda n: 2 ** n * factorial(n),
          "D": lambda n: 2 ** (n - 1) * factorial(n), "I2": lambda m: 2 * m,
          "E": {6: 51_840, 7: 2_903_040, 8: 696_729_600}.get,
          "F": {4: 1_152}.get, "H": {3: 120, 4: 14_400}.get}


def _group_order(d):
    """|W| of a spherical diagram: the product over its components."""
    names = (classify(d.induced(c)).name[:-1].split("(") for c in d.components())
    return prod(_ORDER[family](int(n)) for family, n in names)


class GarsideTable:
    """Finite Coxeter tables backing Garside arithmetic for one diagram.

    Elements of W are integers indexing the ShortLex enumeration; index 0 is
    the identity and w0 comes last. Built once per diagram; afterwards only
    the lazily filled flat tables change.
    """

    def __init__(self, d):
        if not is_spherical(d):
            raise NotSpherical(f"not a spherical diagram: {d.vertices}")
        needed = _group_order(d)
        if needed > MAX_TABLE:
            raise CapExceeded(MAX_TABLE, needed)
        self.d = d
        en = cx.engine(d).enumerate(cap=MAX_TABLE)
        self.words = words = en.words
        self.n = n = len(words)
        self.length = length = [len(w) for w in words]
        self.rank = {s: i for i, s in enumerate(d.vertices)}
        # rmul[x][i] = x·s_i. With x = p·s_k (p = parent, k = last letter),
        # s_i·x = (s_i·p)·s_k and x⁻¹ = s_k·p⁻¹ read rows of shorter elements,
        # which come earlier in ShortLex order
        self.rmul = rmul = en.rmul
        self.gen = dict(zip(d.vertices, rmul[0]))
        parent, last = en.parent, en.last
        lmul = [rmul[0]] * n
        inv = [0] * n
        for x in range(1, n):
            p, k = parent[x], last[x]
            lmul[x] = [rmul[y][k] for y in lmul[p]]
            inv[x] = lmul[inv[p]][k]
        self.lmul, self.inv = lmul, inv
        self.w0i = w0 = n - 1
        # τ(s_i) = w0·s_i·w0 is the generator s_j with s_i·w0 = w0·s_j, and
        # τ acts letter by letter; x⁻¹·w0 = s_k·(p⁻¹·w0) and w0·x⁻¹ = τ(x⁻¹·w0);
        # supp is the mask of letters of the canonical word
        tgen = [lmul[w0].index(y) for y in rmul[w0]]
        tau, supp, rcomp = [0] * n, [0] * n, [w0] * n
        for x in range(1, n):
            p, k = parent[x], last[x]
            tau[x] = rmul[tau[p]][tgen[k]]
            supp[x] = supp[p] | 1 << k
            rcomp[x] = lmul[rcomp[p]][k]
        if any(tau[tau[x]] != x for x in range(n)):
            raise InvariantViolated("conjugation by Δ is not an involution")
        self.tau, self.supp = tau, supp
        self.rcomp = rcomp  # x·rcomp = w0
        self.lcomp = [tau[y] for y in rcomp]  # lcomp·x = w0
        # descent masks over the generator declaration order
        self.ldesc, self.rdesc = (
            [sum(1 << i for i, y in enumerate(row) if length[y] < length[x])
             for x, row in enumerate(rows)] for rows in (lmul, rmul))
        self.proper = range(1, w0)  # neither the identity nor Δ
        # flat tables keyed by u·n + v, filled on first lookup
        self._left_weight = {}  # left-weighted pair for u·v, () if normal
        self._right_weight = {}  # the mirror: keyed v·n + u for the pair u·v
        self._divide = {}  # (j·u⁻¹, j·v⁻¹) for j = u ∨_R v
        # X → row of meet_r(x, Δ_X), the largest right-divisor of x in W_X
        self._cut = {}
        self._coset_plans = {}  # (X, d) → the shared part of `coset_keys`
        self._index_bytes = array("H", range(n)).tobytes()  # x at [2x:2x + 2]

    def product(self, u, v):
        """u·v in W, by ℓ(v) steps of right multiplication."""
        rmul, rank = self.rmul, self.rank
        for s in self.words[v]:
            u = rmul[u][rank[s]]
        return u

    def meet_l(self, u, v):
        """Longest common left-divisor (weak-order meet); w0 is the top."""
        if u == v or v == self.w0i:
            return u
        return v if u == self.w0i else _meet(u, v, self.ldesc, self.lmul, self.rmul)

    def meet_r(self, u, v):
        """Longest common right-divisor."""
        if u == v or v == self.w0i:
            return u
        return v if u == self.w0i else _meet(u, v, self.rdesc, self.rmul, self.lmul)

    def is_normal(self, s, t):
        return self.ldesc[t] & ~self.rdesc[s] == 0

    @cached_property
    def follows(self):
        """Normal successors for ball enumeration, in index order: t follows
        s iff L(t) ⊆ R(s), so one list serves each right-descent mask."""
        ldesc, rdesc, proper = self.ldesc, self.rdesc, self.proper
        by_mask = {m: [t for t in proper if not ldesc[t] & ~m]
                   for m in {rdesc[s] for s in proper}}
        return {s: by_mask[rdesc[s]] for s in proper}

    @cached_property
    def texts(self):
        """Each element's ShortLex word as `serialize` writes a factor, made on
        the first serialization: a table never printed pays nothing."""
        sep = " " if _needs_spaces(self.d) else ""
        return [sep.join(w) for w in self.words]

    def coset_minima(self, X):
        """rep[x] = index of the minimal element of the coset x·W_X: x itself
        when no right descent of x lies in X, otherwise that of x·s for the
        least such s, which is shorter and so comes earlier in ShortLex order."""
        mask, rmul, rep = sum(1 << self.rank[s] for s in X), self.rmul, []
        for x, r in enumerate(self.rdesc):
            down = r & mask
            rep.append(rep[rmul[x][(down & -down).bit_length() - 1]] if down else x)
        return rep

    def w0_parabolic(self, X):
        """Index of the longest element of W_X, by right ascents in X."""
        mask, w = sum(1 << self.rank[s] for s in X), 0
        while up := mask & ~self.rdesc[w]:
            w = self.rmul[w][(up & -up).bit_length() - 1]
        return w

    # -- normal form over raw (delta_power, factor index tuple) ----------

    def _sweep(self, fs, gs, mirror=False):
        """Append each simple of gs to the left-weighted list fs, in place:
        pairs are left-weighted from the right up to the first normal one (the
        domino rule). Only the first step can leave an identity, at the end,
        as a left-weighted (f, g) with g ≠ 1 never has f·g simple. With
        `mirror`, it right-weights instead, on lists kept last factor first."""
        n = self.n
        lw, weigh = ((self._right_weight, self._right_weighted) if mirror
                     else (self._left_weight, self._left_weighted))
        for g in gs:
            i = len(fs)
            fs.append(g)
            while i:  # g is fs[i], the right end of the pair (fs[i - 1], g)
                i -= 1
                f = fs[i]
                try:
                    step = lw[f * n + g]
                except KeyError:
                    step = lw[f * n + g] = weigh(f, g)
                if not step:
                    break
                g, fs[i + 1] = step
                fs[i] = g
            if fs[-1] == 0:
                fs.pop()
        return fs

    def _absorb(self, d, fs):
        """Δ^d·fs, fs left-weighted: its Δ factors, all in front, join d untwisted."""
        k = fs.count(self.w0i)
        return d + k, tuple(fs[k:])

    def normalize(self, d, fs):
        """Normal form of Δ^d·f1⋯fl for any simples: each swept into an empty list."""
        return self._absorb(d, self._sweep([], fs))

    def raw_multiply(self, a, b):
        """Δ^d1·F1·Δ^d2·F2 = Δ^(d1+d2)·τ^d2(F1)·F2: F2 swept into τ^d2(F1)."""
        d1, f1 = a
        d2, f2 = b
        fs = [self.tau[f] for f in f1] if d2 % 2 else list(f1)
        return self._absorb(d1 + d2, self._sweep(fs, f2))

    def raw_inverse(self, a):
        """(Δ^d·f1⋯fl)⁻¹ = Δ^−(d+l)·τ^(d+l)(∂fl)⋯τ^(d+1)(∂f1), ∂f = `rcomp`[f]. For
        a normal form a, the complements are left-weighted, none 1 or Δ: no sweep."""
        d, fs = a
        e = d + len(fs)
        comps = (self.rcomp, self.lcomp)
        return -e, tuple([comps[(e - i) % 2][f] for i, f in enumerate(reversed(fs))])

    def raw_np(self, a):
        """(neg, pos) with a = neg⁻¹·pos and neg ∧ pos = 1.

        For a = Δ^−k·f1⋯fl with k > 0, Δ^k ∧ Δ^k·a is f1⋯f_min(k,l), so
        pos = f_(k+1)⋯fl and neg⁻¹ = Δ^−k·f1⋯f_min(k,l).
        """
        d, fs = a
        if d >= 0:
            return (0, ()), a
        return self.raw_inverse((d, fs[:-d])), (0, fs[-d:])

    def _pn_pos(self, a):
        """pos of `raw_pn` as right-weighted factors: g1⋯g_(l−k) of the right
        normal form g1⋯gl·Δ^−k of a = Δ^−k·f1⋯fl, which the mirror sweep makes
        of the τ^k(f_i) (Dehornoy et al., ch. III). A positive a is its pos."""
        d, fs = a
        if d >= 0:
            return a
        gs = self._sweep([], [self.tau[f] for f in reversed(fs)] if d % 2
                         else fs[::-1], mirror=True)
        return 0, gs[:-d - 1:-1]  # gs holds gl, …, g1

    def raw_pn(self, a):
        """(neg, pos) with a = pos·neg⁻¹ and neg ∧_R pos = 1: neg = a⁻¹·pos."""
        pos = self.normalize(*self._pn_pos(a))
        return self.raw_multiply(self.raw_inverse(a), pos), pos

    def coset_key(self, a, X, shift):
        """Canonical token of the left coset a·A_X as bytes, comparable for a
        fixed shift: a is any (Δ power, simples) with Δ^(2·shift)·a positive,
        and X a frozenset of generators. a is normalized, then keyed by
        `coset_keys` as the one child of its last factor; with no factors the
        key is that of Δ^(d + 2·shift)·A_X."""
        d, fs = self.normalize(*a)
        if fs:
            return self.coset_keys(d, fs[:-1], fs[-1:], X, shift)[0]
        return self._coset_plan(X, d + 2 * shift)[2]

    def coset_keys(self, delta, prefix, kids, X, shift):
        """`coset_key((delta, prefix + (w,)), X, shift)` for each w in kids,
        each prefix + (w,) normal: the children of one chamber.

        The token is the normal form of the unique minimal positive
        representative of the shifted coset (Godelle, J. Algebra 2007), packed
        as 16-bit words: table indices are below `MAX_TABLE` < 2^16. With
        d = delta + 2·shift and Δ^e·m the representative of Δ^d·A_X (see
        `_coset_plan`), Δ^d·x·A_X = Δ^e·τ^(d+e)(x)·m·A_X. So τ^(d+e)(prefix)
        is twisted and folded once; a child's β (see `_strip`) is that fold
        carried through τ^(d+e)(w), then through m by one row per (X, d). A
        child with nothing to strip and (τ^(d+e)(w), m1) left-weighted is
        normal: its key is a concatenation. Any other is stripped from its β
        and finished by `_finish`.
        """
        d = delta + 2 * shift
        e, m, key, row = self._coset_plan(X, d)  # row: β -> (fold through m, its cut)
        tau = self.tau if (d + e) % 2 else None
        seq = [tau[f] for f in prefix] if tau else list(prefix)
        head, top = array("H", [e, *seq]).tobytes(), self._fold(0, seq)
        n, rw, index_bytes, m_bytes = self.n, self._right_weight, self._index_bytes, key[2:]
        ldesc, rdesc, lead = self.ldesc, self.rdesc, m[0] if m else 0
        out = []
        for w in kids:
            g = tau[w] if tau else w
            step = rw.get(g * n + top)
            if step is None:
                step = rw[g * n + top] = self._right_weighted(g, top)
            beta = step[0] if step else g
            bc = row.get(beta)
            if bc is None:
                b = self._fold(beta, m)
                bc = row[beta] = b, self.meet_r(b, self.w0_parabolic(X))
            if not bc[1] and not ldesc[lead] & ~rdesc[g]:
                out.append(head + index_bytes[2 * g:2 * g + 2] + m_bytes)
            else:
                k, fs = self._finish(e, self._strip([*seq, g, *m], X, bc[0]))
                out.append(array("H", (k, *fs)).tobytes())
        return out

    def _coset_plan(self, X, d):
        """(e, m, packed Δ^e·m, {}): the normal form Δ^e·m of the minimal
        positive representative of Δ^d·A_X, cached per (X, d) with the β row
        that `coset_keys` fills.

        With ρ = `lcomp`[Δ_X], Δ = ρ·Δ_X, so Δ·A_X = ρ·A_X, and Δ^k·y =
        τ^k(y)·Δ^k gives Δ^d·A_X = τ^(d−1)(ρ)⋯τ(ρ)·ρ·A_X, which `_strip`
        reduces. For X = ∅, ρ = Δ: e = d and m = (). For X ≠ ∅, e = 0: were
        the representative x = Δ·y, then x·A_X = τ(y)·Δ·A_X = τ(y)·ρ·A_X,
        and τ(y)·ρ is positive and shorter than x by ℓ(Δ_X) > 0.
        """
        if d < 0:
            raise NotPositive("shift too small for coset key")
        plan = self._coset_plans.get((X, d))
        if plan is None:
            rho, tau = self.lcomp[self.w0_parabolic(X)], self.tau
            e, m = self._finish(0, self._strip(
                [tau[rho] if k % 2 else rho for k in range(d - 1, -1, -1)], X))
            if X and e:
                raise InvariantViolated("minimal coset representative holds Δ")
            plan = self._coset_plans[(X, d)] = e, m, array("H", (e, *m)).tobytes(), {}
        return plan

    def _finish(self, e, seq):
        """Normal form of Δ^e·seq: seq itself when every pair is left-weighted
        and no factor is 1 (ch. 9 of Epstein et al.), swept otherwise."""
        ldesc, rdesc = self.ldesc, self.rdesc
        f = self.w0i  # every simple may follow Δ
        for g in seq:
            if not g or ldesc[g] & ~rdesc[f]:
                return self.normalize(e, seq)
            f = g
        return self._absorb(e, seq)

    def _fold(self, beta, fs):
        """The maximal simple right-divisor of β·fs, β simple, folded left to
        right through the right factors in `_right_weight` (a factor 1 leaves it)."""
        n, rw = self.n, self._right_weight
        for f in fs:
            k = f * n + beta
            try:
                step = rw[k]
            except KeyError:
                step = rw[k] = self._right_weighted(f, beta)
            beta = step[0] if step else f
        return beta

    def _strip(self, seq, X, beta=None):
        """Minimal positive representative of seq·A_X, as a list of simples.

        Repeatedly strips the largest right-divisor lying in the positive
        monoid of A_X: the largest right-divisor in W_X of the maximal simple
        right-divisor β of the product, folded over the factors unless given.
        Every step reads the flat tables (`_right_weight`, `_divide`, and the
        `_cut` row of X), whose entries are computed on first lookup. `seq` is
        consumed.
        """
        cut = self._cut.get(X)
        if cut is None:
            cut = self._cut[X] = [-1] * self.n
        n, divide = self.n, self._divide
        while True:
            if beta is None:
                beta = self._fold(0, seq)
            c = cut[beta]
            if c < 0:
                c = cut[beta] = self.meet_r(beta, self.w0_parabolic(X))
            if c == 0:
                return seq
            beta = None
            # divide the sequence by c on the right: walk right-to-left,
            # transporting the pending divisor through each factor via the
            # right-divisibility join (g·c⁻¹ = (j·g⁻¹)⁻¹·(j·c⁻¹), j = c ∨ g)
            i = len(seq)
            while c and i:
                i -= 1
                k = c * n + seq[i]
                try:
                    step = divide[k]
                except KeyError:
                    step = divide[k] = self._division_step(c, seq[i])
                seq[i], c = step
            if c:
                raise InvariantViolated("divisor did not divide out")
            if 0 in seq:
                seq = [f for f in seq if f != 0]

    # -- entries of the flat tables --------------------------------------

    def _left_weighted(self, u, v):
        if self.is_normal(u, v):
            return ()
        c = self.meet_l(self.rcomp[u], v)
        a, b = self.product(u, c), self.product(self.inv[c], v)
        ln = self.length
        if not self.is_normal(a, b) or ln[a] + ln[b] != ln[u] + ln[v]:
            raise InvariantViolated("left-weighting gave a non-normal pair")
        return a, b

    def _right_weighted(self, v, u):
        """Mirror step on u·v, read as (v, u): unless R(u) ⊆ L(v), the largest
        c ≼_R u with c·v simple, c = u ∧_R `lcomp`[v], moves across."""
        if not self.rdesc[u] & ~self.ldesc[v]:
            return ()
        c = self.meet_r(u, self.lcomp[v])
        a, b = self.product(u, self.inv[c]), self.product(c, v)
        ln = self.length
        if self.rdesc[a] & ~self.ldesc[b] or ln[a] + ln[b] != ln[u] + ln[v]:
            raise InvariantViolated("right-weighting gave a non-normal pair")
        return b, a

    def _division_step(self, c, g):
        inv = self.inv
        j = self.rcomp[self.meet_l(self.lcomp[c], self.lcomp[g])]
        return self.product(j, inv[c]), self.product(j, inv[g])


def _meet(u, v, desc, strip, grow):
    """Meet of u and v by stripping common descents one generator at a time.

    A common left descent s lies below the left meet, and then
    meet(u, v) = s·meet(s·u, s·v); the right meet is the mirror image.
    `strip` removes s from u and v, `grow` appends it to the meet.
    """
    out = 0
    both = desc[u] & desc[v]
    while both:
        i = (both & -both).bit_length() - 1
        u, v, out = strip[u][i], strip[v][i], grow[out][i]
        both = desc[u] & desc[v]
    return out


@lru_cache(maxsize=cx.CACHED_DIAGRAMS)
def table(d):
    return GarsideTable(d)


@dataclass(frozen=True)
class Simple:
    underlying: cx.CoxeterElement
    index: int = field(compare=False, repr=False)  # ShortLex index in its table


@dataclass(frozen=True, slots=True)
class GarsideElement:
    """Δ^k·f1⋯fl as raw = (k, ShortLex indices of the f_i in `table(group)`),
    which equality and hashing read: no rebuild of the table changes them."""
    group: DynkinDiagram
    raw: tuple

    @property
    def delta_power(self):
        return self.raw[0]

    @property
    def factors(self):
        """The factors as `Simple`s, boxed when read."""
        words = table(self.group).words
        return tuple(Simple(cx.CoxeterElement(self.group, words[f]), f)
                     for f in self.raw[1])

    inf = delta_power

    @property
    def sup(self):
        return self.raw[0] + len(self.raw[1])

    @property
    def size(self):
        """Canonical size: |delta_power| + number of factors."""
        return abs(self.raw[0]) + len(self.raw[1])

    def is_positive(self):
        return self.raw[0] >= 0

    def is_identity(self):
        return self.raw == (0, ())

    def __str__(self):
        return serialize(self)


@dataclass(frozen=True)
class NpForm:
    neg: GarsideElement
    pos: GarsideElement
    side: str  # "np": g = neg^-1 · pos ; "pn": g = pos · neg^-1


def identity(d):
    return delta(d, 0)


def generator(d, s):
    t = table(d)
    if s not in t.gen:
        raise UnknownGenerator(f"{s!r} is not a generator")
    return GarsideElement(t.d, t.normalize(0, (t.gen[s],)))


def from_letters(d, letters):
    """Build an element from signed letters: iterable of (generator, ±1).

    A plain string is accepted as all-positive letters.
    """
    t = table(d)
    if isinstance(letters, str):
        letters = [(s, 1) for s in letters if not s.isspace()]
    # x = Δ^k·τ^k(fs): s goes in as τ^k(s), s⁻¹ = Δ⁻¹·∂̃s as τ^(k−1)(∂̃s)
    gen, tau, lcomp, k, gs = t.gen, t.tau, t.lcomp, 0, []
    for (s, sign) in letters:
        if s not in gen:
            raise UnknownGenerator(f"{s!r} is not a generator")
        g = gen[s]
        if sign == -1:
            k -= 1
            g = lcomp[g]
        elif sign != 1:
            raise PreconditionFailed(f"letter ({s!r}, {sign!r}): the sign must be 1 or -1")
        gs.append(tau[g] if k % 2 else g)
    fs = t._sweep([], gs)
    return GarsideElement(t.d, t._absorb(k, [tau[f] for f in fs] if k % 2 else fs))


def _common_table(x, y):
    if x.group is not y.group and x.group != y.group:
        raise GroupMismatch("elements of different groups")
    return table(x.group)


def multiply(x, y):
    t = _common_table(x, y)
    return GarsideElement(t.d, t.raw_multiply(x.raw, y.raw))


def inverse(x):
    t = table(x.group)
    return GarsideElement(t.d, t.raw_inverse(x.raw))


def power(x, k):
    t = table(x.group)
    out = (0, ())
    raw = x.raw if k >= 0 else t.raw_inverse(x.raw)
    for _ in range(abs(k)):
        out = t.raw_multiply(out, raw)
    return GarsideElement(t.d, out)


def delta(d, k=1):
    table(d)
    return GarsideElement(d, (k, ()))


def _positive_raws(x, y, name):
    t = _common_table(x, y)
    if x.raw[0] < 0 or y.raw[0] < 0:
        raise NotPositive(f"{name} requires positive elements")
    return t, x.raw, y.raw


def left_gcd(x, y):
    """Greatest common left-divisor of positive x, y: x·a⁻¹ for x⁻¹·y = a⁻¹·b,
    where a⁻¹ = Δ^−k·f1⋯f_min(k,l) is a prefix of x⁻¹·y = Δ^−k·f1⋯fl."""
    t, x, y = _positive_raws(x, y, "left_gcd")
    d, fs = t.raw_multiply(t.raw_inverse(x), y)
    return GarsideElement(t.d, t.raw_multiply(x, (d, fs[:-d])) if d < 0 else x)


def left_lcm(x, y):
    """Least common right-multiple of positive x, y: x·u for x⁻¹·y = u·v⁻¹,
    with u's right-weighted factors swept into x as they stand."""
    t, x, y = _positive_raws(x, y, "left_lcm")
    u = t._pn_pos(t.raw_multiply(t.raw_inverse(x), y))
    return GarsideElement(t.d, t.raw_multiply(x, u))


def right_gcd(x, y):
    """Greatest common right-divisor of positive x, y: u⁻¹·x for x·y⁻¹ = u·v⁻¹."""
    t, x, y = _positive_raws(x, y, "right_gcd")
    _, u = t.raw_pn(t.raw_multiply(x, t.raw_inverse(y)))
    return GarsideElement(t.d, t.raw_multiply(t.raw_inverse(u), x))


def right_lcm(x, y):
    """Least common left-multiple of positive x, y: a·x for x·y⁻¹ = a⁻¹·b."""
    t, x, y = _positive_raws(x, y, "right_lcm")
    a, _ = t.raw_np(t.raw_multiply(x, t.raw_inverse(y)))
    return GarsideElement(t.d, t.raw_multiply(a, x))


def np_form(g, side="np"):
    """Coprime factorization g = neg⁻¹·pos (np) or pos·neg⁻¹ (pn)."""
    t = table(g.group)
    if side == "np":
        neg, pos = t.raw_np(g.raw)
    elif side == "pn":
        neg, pos = t.raw_pn(g.raw)
    else:
        raise ValueError("side must be 'np' or 'pn'")
    return NpForm(GarsideElement(t.d, neg), GarsideElement(t.d, pos), side)


def np_reconstruct(form):
    if form.side == "np":
        return multiply(inverse(form.neg), form.pos)
    return multiply(form.pos, inverse(form.neg))


def support(g):
    """Generators occurring in either np-half (= letters of any expression)."""
    t = table(g.group)
    neg, pos = t.raw_np(g.raw)
    mask = t.supp[t.w0i] if neg[0] or pos[0] else 0
    for f in neg[1] + pos[1]:
        mask |= t.supp[f]
    return frozenset(s for i, s in enumerate(g.group.vertices) if mask >> i & 1)


def in_parabolic(g, X):
    """Exact membership of g in the standard parabolic subgroup on X."""
    X = frozenset(X)
    for s in X:
        if s not in g.group.vertices:
            raise UnknownGenerator(f"{s!r} is not a generator")
    return support(g) <= X


def letters_of(g):
    """A signed-letter expression of g from its np-form (not length-minimal)."""
    t = table(g.group)
    neg, pos = t.raw_np(g.raw)
    out = [(s, -1) for s in reversed(_positive_letters(t, neg))]
    out.extend((s, 1) for s in _positive_letters(t, pos))
    return out


def _positive_letters(t, raw):
    d, fs = raw
    if d < 0:
        raise InvariantViolated("np-form half is not positive")
    letters = list(t.words[t.w0i]) * d
    for f in fs:
        letters.extend(t.words[f])
    return letters


def restrict(g, X):
    """Re-express g ∈ A_X as an element of the induced subdiagram's group."""
    if not in_parabolic(g, X):
        raise ValueError("element does not lie in the parabolic subgroup")
    sub = g.group.induced(X)
    return from_letters(sub, letters_of(g))


def embed(g, ambient):
    """Image of g under the inclusion of its (induced sub)diagram's group."""
    for s in g.group.vertices:
        if not ambient.has_vertex(s):
            raise UnknownGenerator(f"{s!r} is not a generator of the ambient diagram")
    return from_letters(ambient, letters_of(g))


def delta_of(d, X):
    """Garside element Δ_X: positive lift of the longest element of W_X."""
    t = table(d)
    X = frozenset(X)
    for s in X:
        if s not in t.gen:
            raise UnknownGenerator(f"{s!r} is not a generator")
    if not is_spherical(d.induced(X)):
        raise NotSpherical(f"parabolic on {sorted(X)} is not spherical")
    return GarsideElement(t.d, t.normalize(0, (t.w0_parabolic(X),)))


def center_of(d, X):
    """c_X = Δ_X^e, e ∈ {1,2} minimal with c_X commuting with A_X."""
    t = table(d)
    dx = delta_of(d, X)
    w0x = t.w0_parabolic(X)
    central = all(t.product(t.product(w0x, t.gen[s]), w0x) == t.gen[s]
                  for s in X)
    return dx if central else multiply(dx, dx)


def elementary_conjugator(d, X, tgen):
    """Ribbon r = Δ_{X∪{t}}·Δ_X⁻¹ with the target parabolic X'.

    Returns (r, X') where r·A_X·r⁻¹ = A_{X'}; verified generator by
    generator at the Artin level.
    """
    X = frozenset(X)
    if tgen in X:
        raise ValueError("t must not lie in X")
    Y = X | {tgen}
    r = multiply(delta_of(d, Y), inverse(delta_of(d, X)))
    ri = inverse(r)
    gens = {s: generator(d, s) for s in d.vertices}
    X2 = set()
    for s in X:
        conj = multiply(multiply(r, gens[s]), ri)
        image = [u for u, el in gens.items() if el == conj]
        if len(image) != 1:
            raise InvariantViolated(
                "ribbon conjugate of a generator must be a generator")
        X2.add(image[0])
    return r, frozenset(X2)


def ribbon_decompose(g, X, depth=6):
    """Bounded search for g = u_1⋯u_k·tail with tail ∈ A_X and each u_i an
    elementary conjugator along a chain of parabolic subsets ending at X.

    Returns (chain, tail) with chain = [(u_i, X_from_i, X_to_i)] meaning
    u_i·A_{X_from_i}·u_i⁻¹ = A_{X_to_i}; consecutive entries satisfy
    X_to_i = X_from_{i+1} read right to left, the last X_from is X itself.
    Returns None when the bounded search exhausts (which is not a disproof).
    Requires g positive and g·c_X·g⁻¹ equal to c_Y for some spherical Y
    (PreconditionFailed otherwise).
    """
    t = table(g.group)
    d = g.group
    X = frozenset(X)
    if not g.is_positive():
        raise NotPositive("ribbon_decompose requires a positive element")
    cX = center_of(d, X)
    w = multiply(multiply(g, cX), inverse(g))
    if _recognize_center(d, w) is None:
        raise PreconditionFailed(
            "g·c_X·g⁻¹ is not the center of any spherical standard parabolic"
        )
    shift = (depth + g.sup + 3) // 2 + 1
    start = g.raw
    key0 = (t.coset_key(start, X, shift), X)
    seen = {key0}
    queue = [(start, X, [])]
    for level in range(depth + 1):
        nxt = []
        for raw, Y, path in queue:
            if t.coset_key(raw, Y, shift) == t.coset_key((0, ()), Y, shift):
                return _ribbon_reconstruct(t, g, X, raw, Y, path)
            for tg in d.vertices if level < depth else ():
                if tg in Y or not is_spherical(d.induced(Y | {tg})):
                    continue
                r, Yprev = elementary_conjugator(d, Y, tg)
                raw2 = t.raw_multiply(raw, t.raw_inverse(r.raw))
                key = (t.coset_key(raw2, Yprev, shift), Yprev)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((raw2, Yprev, path + [(r, Y, Yprev)]))
        queue = nxt
    return None


def _ribbon_reconstruct(t, g, X, raw, Ytop, path):
    d = g.group
    chain = list(reversed(path))
    prod = identity(d)
    for (r, _, _) in chain:
        prod = multiply(prod, r)
    tail = multiply(inverse(prod), g)
    if not in_parabolic(tail, X):
        raise InvariantViolated("ribbon tail must lie in the base parabolic")
    if multiply(prod, tail) != g:
        raise InvariantViolated("ribbon chain times tail must give back g")
    return chain, tail


def _recognize_center(d, w):
    """The Y with w = c_Y, or None. c_Y is a positive power of Δ_Y, whose
    support is exactly Y, so the support of w is the only candidate."""
    Y = support(w)
    if is_spherical(d.induced(Y)) and center_of(d, Y) == w:
        return Y
    return None


# -- serialization ------------------------------------------------------------


def serialize(g):
    """Render as `Δ^k · w1 | w2 | ...`; the identity is `Δ^0 ·`."""
    return serialize_raw(table(g.group), g.raw)


def serialize_raw(t, raw):
    """serialize() of a raw (delta_power, factor indices) form of table t."""
    d, fs = raw
    if not fs:
        return f"Δ^{d} ·"
    return f"Δ^{d} · " + " | ".join(map(t.texts.__getitem__, fs))


def _needs_spaces(d):
    return any(len(v) != 1 for v in d.vertices)


def parse_element(d, text):
    """Parse the serialize() grammar back into a GarsideElement."""
    t = table(d)
    text = text.strip()
    if not text.startswith("Δ^"):
        raise ParseError(1, "element must start with 'Δ^<int>'")
    parts = text[2:].split("·", 1)
    if len(parts) != 2:
        raise ParseError(1, "missing '·' separator")
    try:
        k = int(parts[0].strip())
    except ValueError:
        raise ParseError(1, f"bad Δ power {parts[0].strip()!r}")
    body = parts[1].strip()
    fs = []
    if body:
        for chunk in body.split("|"):
            chunk = chunk.strip()
            letters = chunk.split() if _needs_spaces(d) else list(chunk)
            w = 0
            for s in letters:
                if s not in t.gen:
                    raise ParseError(1, f"unknown generator {s!r}")
                w = t.rmul[w][t.rank[s]]
            if t.length[w] != len(letters):
                raise ParseError(1, f"factor {chunk!r} is not a reduced word")
            fs.append(w)
    return GarsideElement(t.d, t.normalize(k, fs))
