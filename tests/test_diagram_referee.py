"""Seeded referee for the diagram layer's graph code.

Random finite-label trees and one-cycle diagrams of rank 1 to 8, drawn as
the `gates` benchmark workload draws them (labels 3/4/5/6, seeded vertex
names, shuffled declaration order), are checked against definitions
written out here from the edge list alone: a plain breadth-first search
for separation and components, a pairwise comparison of labeled
neighborhoods, and the special-folding conditions on explicit fibers.
The tree slot of `gate_all` is checked against the rule that picks it from
the plain and the conditional tree gates.
"""

import random
from collections import deque
from itertools import combinations

import pytest

from artinkit import dynkin
from artinkit import theorem_gate as tg
from artinkit.errors import InvalidFolding

LABELS = (3, 3, 3, 3, 4, 4, 5, 6)


def _random_diagram(rng, n, shape):
    if shape == "cycle" and n >= 3:
        c = rng.randint(3, n)
        edges = [(i, (i + 1) % c, rng.choice(LABELS)) for i in range(c)]
    else:
        c, edges = 1, []
    edges += [(rng.randrange(i), i, rng.choice(LABELS)) for i in range(c, n)]
    names = [f"v{k}" for k in rng.sample(range(100), n)]
    order = rng.sample(range(n), n)
    return dynkin.diagram([names[i] for i in order],
                          [(names[u], names[v], m) for u, v, m in edges])


DIAGRAMS = [
    _random_diagram(random.Random(seed), n, shape)
    for seed in range(4)
    for n in range(1, 9)
    for shape in ("tree", "cycle")
]


def labeled_nbrs(d):
    out = {v: set() for v in d.vertices}
    for u, v, m in d.edges:
        out[u].add((v, m))
        out[v].add((u, m))
    return out


def bfs(d, start, allowed):
    """Vertices of `allowed` joined to start by a path inside `allowed`."""
    nbrs = labeled_nbrs(d)
    seen, queue = {start}, deque([start])
    while queue:
        for w, _ in nbrs[queue.popleft()]:
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def connected_subsets(d, size):
    for sub in combinations(d.vertices, size):
        if bfs(d, sub[0], set(sub)) == set(sub):
            yield sub


def test_is_admissible_matches_separation_by_bfs():
    checked = 0
    for d in DIAGRAMS:
        everything = set(d.vertices)
        for size in range(1, 5):
            for sub in connected_subsets(d, size):
                want = True
                for x in sub:
                    rest = set(sub) - {x}
                    for u, v in combinations(sorted(rest), 2):
                        split_inside = v not in bfs(d, u, rest)
                        joined_outside = v in bfs(d, u, everything - {x})
                        if split_inside and joined_outside:
                            want = False
                assert dynkin.is_admissible(d, sub) is want, (d, sub)
                checked += 1
    assert checked > 1000


def test_path_order_walks_exactly_the_edges():
    paths = 0
    for big in DIAGRAMS:
        for size in range(1, min(big.rank, 5) + 1):
            for sub in connected_subsets(big, size):
                d = big.induced(sub)
                degrees = [len(nbrs) for nbrs in labeled_nbrs(d).values()]
                is_path = len(d.edges) == d.rank - 1 and max(degrees) <= 2
                order = d.path_order()
                if not is_path:
                    assert order is None, d
                    continue
                paths += 1
                assert sorted(order) == sorted(d.vertices)
                steps = {frozenset(p) for p in zip(order, order[1:])}
                assert steps == {frozenset(e[:2]) for e in d.edges}
                ends = [v for v, k in zip(d.vertices, degrees) if k < 2]
                assert order[0] == ends[0]
    assert paths > 500


def test_link_component_is_the_bfs_component():
    rng = random.Random(7)
    for d in DIAGRAMS:
        if d.rank < 2:
            continue
        for _ in range(6):
            removed = tuple(rng.sample(d.vertices, rng.randint(1, min(2, d.rank - 1))))
            anchor = rng.choice([v for v in d.vertices if v not in removed])
            comp = tg._link_component(d, removed, anchor)
            want = bfs(d, anchor, set(d.vertices) - set(removed))
            assert comp.vertices == tuple(v for v in d.vertices if v in want)
            assert comp.edges == tuple(e for e in d.edges
                                       if e[0] in want and e[1] in want)


def test_merge_candidates_match_pairwise_neighborhoods():
    seen_pairs = 0
    # minus its first vertex, a diagram may fall apart into isolated vertices
    for d in DIAGRAMS + [d.induced(d.vertices[1:]) for d in DIAGRAMS]:
        nbrs = labeled_nbrs(d)
        want = [(x, y) for x, y in combinations(sorted(d.vertices), 2)
                if not d.has_edge(x, y) and nbrs[x] and nbrs[x] == nbrs[y]]
        assert tg._merge_candidates(d) == want
        seen_pairs += len(want)
    assert seen_pairs > 20


def reference_quotient(d, groups):
    """Fibers and target edges of the quotient, or None when the merge is
    not a special folding."""
    index = {v: i for i, v in enumerate(d.vertices)}
    owner = {v: g for g in groups for v in g}
    fibers = []
    for v in d.vertices:
        fib = tuple(sorted(owner.get(v, (v,)), key=index.get))
        if fib[0] == v:
            fibers.append(fib)
    name = {v: "+".join(fib) for fib in fibers for v in fib}
    label = {frozenset(e[:2]): e[2] for e in d.edges}
    edges = set()
    for f, g in combinations(fibers, 2):
        found = {label.get(frozenset((u, v))) for u in f for v in g}
        if found == {None}:
            continue
        if len(found) != 1:  # a missing fiber edge or two labels
            return None
        edges.add((frozenset((name[f[0]], name[g[0]])), found.pop()))
    if any(frozenset(p) in label for fib in fibers for p in combinations(fib, 2)):
        return None
    return fibers, edges


def test_quotient_folding_matches_the_folding_conditions():
    rng = random.Random(11)
    valid = invalid = 0
    for d in DIAGRAMS:
        tries = [[pair] for pair in tg._merge_candidates(d)]
        for _ in range(4):
            if d.rank >= 4:
                a, b, c, e = rng.sample(d.vertices, 4)
                tries += [[(a, b)], [(a, b), (c, e)]]
        for groups in tries:
            want = reference_quotient(d, groups)
            if want is None:
                with pytest.raises(InvalidFolding):
                    dynkin.quotient_folding(d, groups)
                invalid += 1
                continue
            fibers, edges = want
            f = dynkin.quotient_folding(d, groups)
            assert f.target.vertices == tuple("+".join(fib) for fib in fibers)
            assert {(frozenset(e[:2]), e[2]) for e in f.target.edges} == edges
            assert [f.fiber(w) for w in f.target.vertices] == fibers
            assert f.mapping == {v: w for fib, w in zip(fibers, f.target.vertices)
                                 for v in fib}
            assert dynkin.validate_folding(f).nontrivial_fibers == tuple(
                fib for fib in fibers if len(fib) >= 2)
            valid += 1
    assert valid > 20 and invalid > 20


def test_gate_all_tree_slot_is_the_plain_gate_unless_only_the_conditional_applies():
    rng = random.Random(23)
    kinds = set()
    for _ in range(300):
        d = _random_diagram(rng, rng.randint(4, 10), "tree")
        plain, cond = tg.gate_tree(d), tg.gate_tree_conditional(d)
        want = cond if not plain.applicable and cond.applicable else plain
        assert tg.gate_all(d)[1] == want, d.to_text()
        kinds.add((plain.applicable, cond.applicable,
                   bool(cond.conditional_assumptions)))
    # with every label-6 edge cut, no component is AffG(2), so an affine
    # component that is not an AffC chain always brings assumptions
    assert kinds == {(True, True, False), (False, True, True),
                     (False, False, False)}
