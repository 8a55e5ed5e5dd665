"""Gate verdicts on catalog diagrams, frozen certificates, search bounds."""

import random
from itertools import combinations

import pytest

from artinkit import cli, dynkin
from artinkit import theorem_gate as tg
from artinkit.errors import SearchBudgetExceeded


def path(names, labels):
    return dynkin.path_diagram(list(names), labels)


def cyc(names, labels):
    return dynkin.cycle_diagram(list(names), labels)


TWO_4GONS = dynkin.diagram(
    list("pqrst"),
    [("p", "q", 3), ("q", "r", 3), ("r", "s", 3), ("s", "p", 3),
     ("r", "t", 3), ("t", "p", 3)],
)

LOLLIPOP = dynkin.diagram(
    list("pqrst"),
    [("p", "q", 3), ("q", "r", 3), ("r", "s", 3), ("s", "p", 3),
     ("r", "t", 4)],
)

K4 = dynkin.diagram(list("wxyz"), [(u, v, 3) for u, v in combinations("wxyz", 2)])

AFFF4 = path("pqrst", [3, 3, 4, 3])

# cycle labelings whose link components are all spherical, with the expected
# per-vertex types in cycle order
SPHERICAL_LINK_CYCLES = [
    ((3, 4, 3, 3), ["B(3)", "A(3)", "A(3)", "B(3)"]),
    ((3, 4, 3, 4), ["B(3)", "B(3)", "B(3)", "B(3)"]),
    ((3, 4, 3, 5), ["B(3)", "H(3)", "H(3)", "B(3)"]),
    ((3, 5, 3, 3), ["H(3)", "A(3)", "A(3)", "H(3)"]),
    ((3, 5, 3, 5), ["H(3)", "H(3)", "H(3)", "H(3)"]),
    ((3, 3, 3, 3, 4), ["A(4)", "B(4)", "F(4)", "B(4)", "A(4)"]),
]

AFFF4_ASSUMPTIONS = (
    "AffF(4): the intersection of any two parabolic subgroups is a parabolic"
    " subgroup",
    "AffF(4): commuting central elements of two parabolic subgroups admit a"
    " common conjugate into a single subgroup of any admissible chain"
    " containing both",
)


def test_tree_gate_spherical_path():
    d = path("abcde", [3, 3, 3, 3])
    v = tg.gate_tree(d)
    assert v.applicable
    assert v.theorem == tg.TREE_CUT
    assert v.conditional_assumptions == ()
    assert v.certificate == {
        "cut_edges": [],
        "components": [
            {"vertices": list("abcde"), "branch": "spherical", "type": "A(5)"}
        ],
    }
    assert tg.revalidate(d, v)


def test_tree_gate_joined_pieces():
    # spherical piece, locally reducible piece, and a leaf, joined by
    # label 6 and 7 edges
    d = dynkin.diagram(
        list("abcdefg"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 6), ("d", "e", 4),
         ("e", "f", 4), ("f", "g", 7)],
    )
    v = tg.gate_tree(d)
    assert v.applicable and v.conditional_assumptions == ()
    assert v.certificate["cut_edges"] == [["c", "d", 6], ["f", "g", 7]]
    assert v.certificate["components"] == [
        {"vertices": ["a", "b", "c"], "branch": "spherical", "type": "A(3)"},
        {"vertices": ["d", "e", "f"], "branch": "locally_reducible",
         "type": "AffC(2)"},
        {"vertices": ["g"], "branch": "spherical", "type": "A(1)"},
    ]
    assert tg.revalidate(d, v)


def test_tree_gate_affine_component_rejected():
    v = tg.gate_tree(AFFF4)
    assert not v.applicable
    assert v.certificate is None
    assert "AffF(4)" in v.failure_reason
    assert "p, q, r, s, t" in v.failure_reason


def test_tree_gate_conditional_accepts_affine():
    v = tg.gate_tree_conditional(AFFF4)
    assert v.applicable
    assert v.conditional_assumptions == AFFF4_ASSUMPTIONS
    assert v.certificate["components"][0]["branch"] == "affine"
    assert tg.revalidate(AFFF4, v)
    assert tg.assumption_pair("AffF(4)") == AFFF4_ASSUMPTIONS


def test_tree_gate_affc_component_unconditional():
    # AffC(3) chain joined to a leaf over a label-6 edge: allowed by the
    # plain tree gate, no assumptions
    d = dynkin.diagram(
        ["p1", "p2", "p3", "p4", "q"],
        [("p1", "p2", 4), ("p2", "p3", 3), ("p3", "p4", 4), ("p4", "q", 6)],
    )
    v = tg.gate_tree(d)
    assert v.applicable and v.conditional_assumptions == ()
    assert v.certificate["components"][0] == {
        "vertices": ["p1", "p2", "p3", "p4"],
        "branch": "affine_chain",
        "type": "AffC(3)",
    }


def test_tree_gate_conditional_mixed_join():
    # affine piece joined by a label-7 edge to a spherical piece
    d = dynkin.diagram(
        ["p1", "p2", "p3", "p4", "p5", "q1", "q2"],
        [("p1", "p2", 3), ("p2", "p3", 3), ("p3", "p4", 4), ("p4", "p5", 3),
         ("p5", "q1", 7), ("q1", "q2", 3)],
    )
    assert not tg.gate_tree(d).applicable
    v = tg.gate_tree_conditional(d)
    assert v.applicable
    assert v.conditional_assumptions == AFFF4_ASSUMPTIONS
    assert [e["type"] for e in v.certificate["components"]] == ["AffF(4)", "A(2)"]
    assert tg.revalidate(d, v)


def test_tree_gate_not_a_tree():
    tri = cyc("xyz", [3, 3, 3])
    assert tg.gate_tree(tri).failure_reason == "NotATree"
    assert tg.gate_tree_conditional(tri).failure_reason == "NotATree"


def test_tree_gate_cut_override_validation():
    d = path("abc", [3, 6])
    with pytest.raises(ValueError):
        tg.gate_tree(d, cut_edges=[("a", "b")])  # label 3 < 6
    with pytest.raises(ValueError):
        tg.gate_tree(d, cut_edges=[("a", "c")])  # not an edge


def test_cycle_gate_triangle():
    tri = cyc("xyz", [3, 3, 3])
    v = tg.gate_cycle(tri)
    assert v.applicable and v.conditional_assumptions == ()
    assert v.certificate["cycle"] == ["x", "y", "z"]
    assert all(e["branch"] == "spherical" and e["type"] == "A(2)"
               for e in v.certificate["links"])
    assert tg.revalidate(tri, v)


def test_cycle_gate_spherical_link_labelings():
    for labels, types in SPHERICAL_LINK_CYCLES:
        names = [f"v{i}" for i in range(len(labels))]
        v = tg.gate_cycle(dynkin.cycle_diagram(names, list(labels)))
        assert v.applicable, labels
        assert v.conditional_assumptions == (), labels
        assert [e["type"] for e in v.certificate["links"]] == types, labels


def test_cycle_gate_tree_input():
    assert tg.gate_cycle(path("abc", [3, 3])).failure_reason == "NoInducedCycle"


def test_cycle_gate_conditional_lollipop():
    # pendant label-4 edge turns one link component into an affine tree
    v = tg.gate_cycle(LOLLIPOP)
    assert v.applicable
    assert v.conditional_assumptions == tg.assumption_pair("AffB(3)")
    links = {e["vertex"]: (e["branch"], e["type"]) for e in v.certificate["links"]}
    assert links == {
        "p": ("affine", "AffB(3)"),
        "q": ("spherical", "B(4)"),
        "r": ("spherical", "A(3)"),
        "s": ("spherical", "B(4)"),
    }
    assert tg.revalidate(LOLLIPOP, v)


def test_cycle_gate_requires_connected():
    dis = dynkin.diagram(
        list("abcxyz"),
        [("a", "b", 3), ("b", "c", 3),
         ("x", "y", 3), ("y", "z", 3), ("x", "z", 3)],
    )
    assert tg.gate_cycle(dis).failure_reason == "diagram is not connected"
    assert tg.gate_folded(dis).failure_reason == "diagram is not connected"


def test_induced_cycle_enumeration():
    assert tg.induced_cycles(path("abcd", [3, 3, 3])) == []
    assert tg.induced_cycles(TWO_4GONS) == [
        ("p", "q", "r", "s"), ("p", "q", "r", "t"), ("p", "s", "r", "t"),
    ]
    # K4 has its four triangles and no induced 4-cycle
    assert len(tg.induced_cycles(K4)) == 4
    assert all(len(c) == 3 for c in tg.induced_cycles(K4))


def test_folded_gate_two_4gons_needs_fold():
    assert not tg.gate_cycle(TWO_4GONS).applicable
    v = tg.gate_folded(TWO_4GONS)
    assert v.applicable and v.conditional_assumptions == ()
    assert v.certificate["folding"]["fibers"] == [["p"], ["q", "s"], ["r"], ["t"]]
    assert v.certificate["cycle"] == ["p", "q+s", "r", "t"]
    assert [(e["branch"], e["type"]) for e in v.certificate["links"]] == [
        ("spherical", "D(4)"),
        ("spherical", "A(3)"),
        ("spherical", "D(4)"),
        ("folded_cycle", "AffA(3)"),
    ]
    assert tg.revalidate(TWO_4GONS, v)


def test_folded_gate_identity_covers_cycle_gate():
    diagrams = [cyc("xyz", [3, 3, 3])]
    for labels, _ in SPHERICAL_LINK_CYCLES:
        names = [f"v{i}" for i in range(len(labels))]
        diagrams.append(dynkin.cycle_diagram(names, list(labels)))
    for d in diagrams:
        v = tg.gate_folded(d)
        assert v.applicable
        assert all(len(f) == 1 for f in v.certificate["folding"]["fibers"])


def test_folded_gate_exhaustion_on_path():
    v = tg.gate_folded(path("abcde", [3, 3, 3, 3]))
    assert not v.applicable
    assert v.failure_reason.startswith("exhausted")
    assert "NoInducedCycle" in v.failure_reason


def test_folded_gate_rejects_affine_tree_links():
    # the conditional branch exists only in the cycle gate
    v = tg.gate_folded(LOLLIPOP)
    assert not v.applicable
    assert "AffB(3)" in v.failure_reason


def star(leaves):
    verts = ["c"] + [f"l{i}" for i in range(leaves)]
    return dynkin.diagram(verts, [("c", f"l{i}", 3) for i in range(leaves)])


def test_folded_gate_budget():
    # leaf merges generate one candidate per leaf-set partition
    with pytest.raises(SearchBudgetExceeded):
        tg.gate_folded(star(6), max_candidates=150)
    # Bell(9) = 21147 partitions > default cap
    with pytest.raises(SearchBudgetExceeded):
        tg.gate_folded(star(9))
    # under the cap the search exhausts and reports
    v = tg.gate_folded(star(4))
    assert not v.applicable
    assert v.failure_reason.startswith("exhausted 15 candidate foldings")


def test_gate_all_order_and_overall():
    order = [tg.SPHERICAL_BASE, tg.TREE_CUT, tg.SINGLE_CYCLE,
             tg.FOLDED_CYCLE, tg.FC_REDUCTION]
    a3 = path("abc", [3, 3])
    vs = tg.gate_all(a3)
    assert [v.theorem for v in vs] == order
    assert vs[0].applicable and vs[0].certificate == {"type": "A(3)"}
    assert tg.overall(vs) == "applicable"

    tri = cyc("xyz", [3, 3, 3])
    flags = [v.applicable for v in tg.gate_all(tri)]
    assert flags == [False, False, True, True, False]

    one = dynkin.diagram(["a"], [])
    vs = tg.gate_all(one)
    assert vs[0].applicable and vs[0].certificate == {"type": "A(1)"}
    assert tg.overall(vs) == "applicable"

    vs = tg.gate_all(AFFF4)
    assert tg.overall(vs) == "conditional"
    assert vs[1].applicable and vs[1].conditional_assumptions == AFFF4_ASSUMPTIONS

    assert tg.overall(tg.gate_all(K4)) == "none"


def test_gate_all_converts_budget_overrun():
    vs = tg.gate_all(star(9))
    folded = vs[3]
    assert folded.theorem == tg.FOLDED_CYCLE and not folded.applicable
    assert "search budget exceeded (10000" in folded.failure_reason


def test_fc_reduction():
    dis = dynkin.diagram(
        list("abcxyz"),
        [("a", "b", 3), ("b", "c", 3),
         ("x", "y", 3), ("y", "z", 3), ("x", "z", 3)],
    )
    v = tg.gate_fc_reduction(dis)
    assert v.applicable and v.conditional_assumptions == ()
    assert v.certificate == {
        "components": [
            {"vertices": ["a", "b", "c"], "theorem": "SphericalBase",
             "conditional": []},
            {"vertices": ["x", "y", "z"], "theorem": "SingleCycle",
             "conditional": []},
        ]
    }
    assert tg.revalidate(dis, v)
    assert tg.overall(tg.gate_all(dis)) == "applicable"

    connected = path("ab", [3])
    assert tg.gate_fc_reduction(connected).failure_reason == "diagram is connected"

    mix = dynkin.diagram(
        list("abwxyz"),
        [("a", "b", 3)] + [(u, v, 3) for u, v in combinations("wxyz", 2)],
    )
    bad = tg.gate_fc_reduction(mix)
    assert not bad.applicable
    assert "w, x, y, z" in bad.failure_reason


def test_fc_reduction_propagates_assumptions():
    # AffF(4) chain next to a spherical edge: componentwise reduction is
    # conditional on the affine assumptions
    verts = ["p1", "p2", "p3", "p4", "p5", "u", "v"]
    d = dynkin.diagram(
        verts,
        [("p1", "p2", 3), ("p2", "p3", 3), ("p3", "p4", 4), ("p4", "p5", 3),
         ("u", "v", 5)],
    )
    v = tg.gate_fc_reduction(d)
    assert v.applicable
    assert v.conditional_assumptions == AFFF4_ASSUMPTIONS
    assert v.certificate["components"][0]["theorem"] == "TreeCut"
    assert v.certificate["components"][1]["theorem"] == "SphericalBase"
    assert tg.revalidate(d, v)


# every subset of big-label edges that witnesses the cut-tree criterion is
# dominated by the full cut set
SMALL_TREES = [
    dynkin.diagram(
        list("abcdefgh"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 6), ("d", "e", 3),
         ("e", "f", 3), ("f", "g", 7), ("g", "h", 4)],
    ),
    dynkin.diagram(
        list("abcdef"),
        [("a", "b", 3), ("b", "c", 6), ("c", "d", 6), ("d", "e", 6),
         ("e", "f", 3)],
    ),
    dynkin.diagram(
        list("abcdefg"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 4),
         ("e", "f", 3), ("f", "g", 8)],
    ),
    AFFF4,
    dynkin.diagram(
        list("abcde"),
        [("a", "b", 6), ("b", "c", 4), ("b", "d", 9), ("d", "e", 4)],
    ),
]


def test_monotone_cut_soundness_exhaustive():
    for d in SMALL_TREES:
        assert len(d.edges) <= 8
        big = [e for e in d.edges if e[2] >= 6]
        full = tg.gate_tree(d).applicable
        witnessed = False
        for r in range(len(big) + 1):
            for sub in combinations(big, r):
                if tg.gate_tree(d, cut_edges=sub).applicable:
                    witnessed = True
        if witnessed:
            assert full


def test_monotone_cut_example_counts():
    d = SMALL_TREES[0]
    big = [e for e in d.edges if e[2] >= 6]
    assert len(big) == 2
    flags = {}
    for r in range(3):
        for sub in combinations(big, r):
            key = tuple(sorted(e[:2] for e in sub))
            flags[key] = tg.gate_tree(d, cut_edges=sub).applicable
    # only the full cut works here: partial cuts leave a label >= 6 edge
    # inside a component
    assert flags == {
        (): False,
        (("c", "d"),): False,
        (("f", "g"),): False,
        (("c", "d"), ("f", "g")): True,
    }


def test_certificate_tampering_fails_revalidation():
    d = path("abcde", [3, 3, 3, 3])
    v = tg.gate_tree(d)
    forged = dict(v.certificate)
    forged["components"] = [dict(forged["components"][0], type="B(5)")]
    assert not tg.revalidate(d, tg.GateVerdict(tg.TREE_CUT, True, forged))

    tri = cyc("xyz", [3, 3, 3])
    v = tg.gate_cycle(tri)
    forged = dict(v.certificate, cycle=["x", "y"])
    assert not tg.revalidate(tri, tg.GateVerdict(tg.SINGLE_CYCLE, True, forged))

    v = tg.gate_folded(TWO_4GONS)
    forged = dict(v.certificate)
    forged["folding"] = dict(forged["folding"], fibers=[["p", "q"], ["r"], ["s"], ["t"]])
    assert not tg.revalidate(
        TWO_4GONS, tg.GateVerdict(tg.FOLDED_CYCLE, True, forged)
    )
    forged["folding"] = dict(forged["folding"], fibers=[["p", "zz"]])
    assert not tg.revalidate(
        TWO_4GONS, tg.GateVerdict(tg.FOLDED_CYCLE, True, forged)
    )

    # a cut edge the diagram lacks, or one with a label below 6
    d6 = path("abc", [3, 6])
    v = tg.gate_tree(d6)
    for cut in ([["a", "c", 6]], [["a", "b", 3]]):
        forged = dict(v.certificate, cut_edges=cut)
        assert not tg.revalidate(d6, tg.GateVerdict(tg.TREE_CUT, True, forged))

    # non-applicable verdicts never revalidate
    assert not tg.revalidate(d, tg.gate_cycle(d))


def test_revalidate_refuses_a_tree_cut_through_an_infinite_label():
    d = dynkin.diagram(list("abc"), [("a", "b", dynkin.INFINITY), ("b", "c", 3)])
    assert tg.gate_tree(d).failure_reason == "diagram has an infinite label"
    forged = {
        "cut_edges": [["a", "b", dynkin.INFINITY]],
        "components": [
            {"vertices": ["a"], "branch": "spherical", "type": "A(1)"},
            {"vertices": ["b", "c"], "branch": "spherical", "type": "A(2)"},
        ],
    }
    assert not tg.revalidate(d, tg.GateVerdict(tg.TREE_CUT, True, forged))


def test_revalidate_answers_false_outside_the_spherical_scope():
    forged = tg.GateVerdict(tg.SPHERICAL_BASE, True, {"type": "A(2)"})
    assert tg.revalidate(path("ab", [3]), forged)
    assert not tg.revalidate(path("ab", [dynkin.INFINITY]), forged)
    assert not tg.revalidate(dynkin.diagram([], []), forged)


def test_revalidate_needs_every_link_of_a_single_cycle():
    tri = cyc("xyz", [3, 3, 3])
    v = tg.gate_cycle(tri)
    assert len(v.certificate["links"]) == 3 and tg.revalidate(tri, v)
    for links in ([], v.certificate["links"][:1]):
        forged = dict(v.certificate, links=links)
        assert not tg.revalidate(tri, tg.GateVerdict(tg.SINGLE_CYCLE, True, forged))


def test_revalidate_keeps_the_assumptions_of_a_reduction():
    d = dynkin.diagram(
        list("pqrstu"),
        [("p", "q", 3), ("q", "r", 3), ("r", "s", 4), ("s", "t", 3)],
    )
    v = tg.gate_fc_reduction(d)
    assert v.applicable and v.conditional_assumptions == AFFF4_ASSUMPTIONS
    assert tg.revalidate(d, v)
    forged = tg.GateVerdict(tg.FC_REDUCTION, True, v.certificate, ())
    assert not tg.revalidate(d, forged)


def test_revalidate_requires_the_first_admitting_branch():
    # A(2) is spherical and, with no three vertices, locally reducible too;
    # the gate records the first branch, so only that one revalidates
    d = path("abc", [3, 6])
    v = tg.gate_tree(d)
    assert [c["branch"] for c in v.certificate["components"]] == ["spherical"] * 2
    assert tg.revalidate(d, v)
    first, second = v.certificate["components"]
    forged = dict(v.certificate, components=[
        first, dict(second, branch="locally_reducible")])
    assert not tg.revalidate(d, tg.GateVerdict(tg.TREE_CUT, True, forged))


def test_verdict_json_shape():
    v = tg.gate_tree(path("abc", [3, 3]))
    blob = v.to_json()
    assert set(blob) == {"theorem", "applicable", "certificate", "conditional",
                         "reason"}
    assert blob["reason"] is None and blob["conditional"] == []
    assert cli._dump_json(v.to_json()) == cli._dump_json(v.to_json())
    assert "TreeCut: applicable" == v.render()

    w = tg.gate_tree_conditional(AFFF4)
    assert "conditional, 2 assumptions" in w.render()
    bad = tg.gate_tree(K4)
    assert "NotATree" in bad.render()


# -- induced cycles against a subset scan ---------------------------------------


def _subset_scan_cycles(d):
    """Induced cycles by brute force: every vertex subset of size >= 3 whose
    induced subdiagram is a cycle, walked from its first-declared vertex
    towards that vertex's first-declared neighbor."""
    out = []
    for k in range(3, d.rank + 1):
        for sub in combinations(d.vertices, k):
            s = d.induced(sub)
            if len(s.edges) != k or not s.is_connected():
                continue
            if any(s.degree(v) != 2 for v in sub):
                continue
            order = [sub[0], s.neighbors(sub[0])[0]]
            while True:
                nxt = [w for w in s.neighbors(order[-1]) if w != order[-2]][0]
                if nxt == sub[0]:
                    break
                order.append(nxt)
            out.append(tuple(order))
    return out


def _random_graph(rng, n, p):
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    edges = [(u, v, rng.choice((3, 4, 5))) for u, v in combinations(names, 2)
             if rng.random() < p]
    return dynkin.diagram(names, edges)


def test_induced_cycles_match_subset_scan_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(400):
        d = _random_graph(rng, rng.randint(3, 9), rng.choice((0.25, 0.4, 0.6)))
        assert tg.induced_cycles(d) == _subset_scan_cycles(d), d.to_text()


def test_induced_cycles_match_subset_scan_on_folding_targets():
    # twins (same labeled neighbors, not adjacent) fold together, so the
    # targets carry "+"-joined vertex names
    rng = random.Random(7)
    targets = 0
    for _ in range(150):
        base = _random_graph(rng, rng.randint(3, 6), 0.5)
        names = list(base.vertices)
        edges = list(base.edges)
        doubled = rng.sample(names, rng.randint(1, 2))
        groups = [(v, v + "t") for v in doubled]
        for v, twin in groups:
            names.insert(rng.randrange(len(names) + 1), twin)
            edges += [(twin, u, base.label(v, u)) for u in base.neighbors(v)]
        if len(doubled) == 2 and base.has_edge(*doubled):
            edges.append((groups[0][1], groups[1][1], base.label(*doubled)))
        d = dynkin.diagram(names, edges)
        assert tg.induced_cycles(d) == _subset_scan_cycles(d)
        t = dynkin.quotient_folding(d, groups).target
        assert any("+" in v for v in t.vertices)
        assert tg.induced_cycles(t) == _subset_scan_cycles(t), t.to_text()
        targets += bool(tg.induced_cycles(t))
    assert targets > 30


def test_folded_search_skips_a_merge_whose_name_is_taken():
    # merging a and b would name the fiber like the vertex "a+b"
    d = dynkin.diagram(["o", "a", "b", "a+b"],
                       [("o", "a", 3), ("o", "b", 3), ("o", "a+b", 3)])
    verdicts = tg.gate_all(d)
    assert tg.overall(verdicts) == "applicable"
    assert verdicts[0].certificate == {"type": "D(4)"}
