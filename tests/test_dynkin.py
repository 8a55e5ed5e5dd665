import json
import random
from itertools import product
from pathlib import Path

import pytest

import oracles
from artinkit import dynkin as dy
from artinkit.errors import (
    EdgeNotInDiagram,
    InfiniteLabel,
    InvalidFolding,
    LabelError,
    NotATree,
    NotConnected,
    ParseError,
    SubgraphNotInDiagram,
)


def D(*args):
    return dy.diagram(*args)


def test_defaulted_labels_and_basic_queries():
    d = dy.path_diagram("abc", [3, 4])
    assert d.rank == 3
    assert d.label("a", "b") == 3
    assert d.label("b", "c") == 4
    assert d.label("a", "c") == 2
    assert d.neighbors("b") == ("a", "c")
    assert d.degree("b") == 2
    assert not d.has_edge("a", "c")


def test_vertex_declaration_order_is_kept():
    d = D(["z", "a", "m"], [("z", "a", 3), ("a", "m", 5)])
    assert d.vertices == ("z", "a", "m")
    assert d.neighbors("a") == ("z", "m")


def test_label_validation():
    with pytest.raises(LabelError):
        D("ab", [("a", "b", 2)])
    with pytest.raises(LabelError):
        D("ab", [("a", "b", 1)])
    # infinity is allowed as a label, it just blocks classification
    d = D("ab", [("a", "b", dy.INFINITY)])
    assert d.max_label() == dy.INFINITY


def test_induced_components_tree():
    d = dy.path_diagram("abcd", [3, 3, 3])
    sub = d.induced(["a", "c", "d"])
    assert sub.vertices == ("a", "c", "d")
    assert not sub.is_connected()
    assert sorted(sub.components()) == [("a",), ("c", "d")]
    assert d.is_tree()
    cyc = dy.cycle_diagram("abc", [3, 3, 3])
    assert cyc.is_connected() and not cyc.is_tree()
    with pytest.raises(SubgraphNotInDiagram):
        d.induced(["a", "q"])


# parsing ------------------------------------------------------------------

SAMPLE_TEXT = """
# triangle with one heavy edge
vertices a b c
edge a b 3; edge b c 4
edge a c inf
"""


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.dyn"))


def _sorted_names(d):
    # emission sorts the names, so a re-read diagram declares them sorted
    return dy.DynkinDiagram(tuple(sorted(d.vertices)), d.edges)


def test_parse_text_roundtrip():
    d = dy.parse_diagram(SAMPLE_TEXT)
    assert d.vertices == ("a", "b", "c")
    assert d.label("a", "c") == dy.INFINITY
    again = dy.parse_diagram(d.to_text())
    assert again == d
    for path in CORPUS:
        d = dy.parse_diagram(path.read_text(encoding="utf-8"))
        assert dy.parse_diagram(d.to_text()) == _sorted_names(d), path.name


def test_parse_json_roundtrip():
    d = dy.path_diagram("abc", [3, 5])
    blob = json.dumps(d.to_json())
    assert dy.parse_diagram(blob) == d
    assert dy.parse_diagram('{"vertices": []}') == dy.DynkinDiagram((), ())
    for path in CORPUS:
        d = dy.parse_diagram(path.read_text(encoding="utf-8"))
        assert dy.parse_diagram(json.dumps(d.to_json())) == _sorted_names(d), path.name


def test_parse_errors():
    with pytest.raises(LabelError):
        dy.parse_diagram("vertices a b\nedge a b 2\n")
    with pytest.raises(ParseError) as err:
        dy.parse_diagram("vertices a b\nedge a q 3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        dy.parse_diagram("edge a b 3\n")  # vertices never declared


# Every rule of the one reader, as (text, JSON mirror, error, message): the
# offending statement is on the text's last line, and JSON reports line 1.
# None marks what a format cannot say: a text name never holds whitespace,
# '#' or ';', and JSON has only its two keys and its own typed values.
def AB(*edges):
    return {"vertices": ["a", "b"], "edges": list(edges)}


LABEL = "label must be an integer >= 3 or 'inf', got "
NAME = "vertex name "
READER_RULES = {
    "duplicate vertex": ("vertices a b\nvertices a", {"vertices": ["a", "b", "a"]},
                         ParseError, "duplicate vertex 'a'"),
    "undeclared end": ("vertices a b\nedge a q 3", AB(["a", "q", 3]),
                       ParseError, r"edge \(a,q\) uses undeclared vertex"),
    "loop": ("vertices a b\nedge a a 3", AB(["a", "a", 3]),
             ParseError, "loop edge at 'a'"),
    "repeated edge": ("vertices a b\nedge a b 3\nedge a b 4",
                      AB(["a", "b", 3], ["a", "b", 4]),
                      ParseError, r"duplicate edge \(a,b\)"),
    "repeated edge reversed": ("vertices a b\nedge a b 3; edge b a 3",
                               AB(["a", "b", 3], ["b", "a", 3]),
                               ParseError, r"duplicate edge \(b,a\)"),
    "label 2": ("vertices a b\nedge a b 2", AB(["a", "b", 2]), LabelError,
                r"explicit label 2 is not allowed \(label 2 means: omit the edge\)"),
    "label x": ("vertices a b\nedge a b x", AB(["a", "b", "x"]), ParseError, LABEL + "'x'"),
    "label true": (None, AB(["a", "b", True]), ParseError, LABEL + "True"),
    "label 3.0": (None, AB(["a", "b", 3.0]), ParseError, LABEL + "3.0"),
    "label '3'": (None, AB(["a", "b", "3"]), ParseError, LABEL + "'3'"),
    "unknown directive": ("vertices a b\nnode c", None,
                          ParseError, "unknown directive 'node'"),
    "empty vertices": ("vertices a\nvertices", None,
                       ParseError, "vertices line needs at least one name"),
    "short edge": ("vertices a b\nedge a b", AB(["a", "b"]), ParseError,
                   "edge (line needs: edge <u> <v> <label>|entry must be)"),
    "edges not a list": (None, {"vertices": ["a", "b"], "edges": 5},
                         ParseError, "'edges' must be a list"),
    "edge end not a string": (None, AB([["a"], "b", 3]), ParseError,
                              r"edge entry must be \[u, v, label\] with string ends"),
    "vertices not strings": (None, {"vertices": ["a", 1]},
                             ParseError, "'vertices' must be a list of strings"),
    "no vertices key": (None, {"edges": []},
                        ParseError, "JSON diagram needs a 'vertices' key"),
    "name 'a b'": (None, {"vertices": ["a b", "c"]},
                   ParseError, NAME + "'a b' is not one token"),
    "empty name": (None, {"vertices": [""]}, ParseError, NAME + "'' is not one token"),
    "name 'x#y'": (None, {"vertices": ["x#y"]},
                   ParseError, NAME + "'x#y' contains '#', which starts a comment"),
    "name 'c;d'": (None, {"vertices": ["c;d"]},
                   ParseError, NAME + "'c;d' contains ';', which separates statements"),
    "name 'a|b'": ("vertices a|b c", {"vertices": ["a|b", "c"]}, ParseError,
                   NAME + r"'a\|b' contains '\|', which separates the factors of an element"),
    "name 'a^-1'": ("vertices a^-1 a", {"vertices": ["a^-1", "a"]}, ParseError,
                    NAME + r"'a\^-1' contains '\^', which marks an inverse letter"),
    "name 'a+b'": ("vertices o\nvertices a+b", {"vertices": ["o", "a+b"]}, ParseError,
                   NAME + r"'a\+b' contains '\+', which joins the vertices of a fiber"),
}
READER_CASES = [(rule, fmt) for rule, row in READER_RULES.items()
                for fmt, given in zip(("text", "json"), row) if given is not None]


@pytest.mark.parametrize("rule,fmt", READER_CASES,
                         ids=[f"{rule}-{fmt}" for rule, fmt in READER_CASES])
def test_reader_rule_on_both_formats(rule, fmt):
    text, obj, error, message = READER_RULES[rule]
    if fmt == "text":
        given, line = text, text.count("\n") + 1
    else:
        given, line = json.dumps(obj), 1
    with pytest.raises(error, match=rf"^line {line}: {message}"):
        dy.parse_diagram(given)


@pytest.mark.parametrize("blob", [
    '{"vertices": ["a"], "edges": [["a", "a", 1%s]]}' % ("0" * 5000),
    '{"vertices": ' + "[" * 100_000,
], ids=["number too long", "nesting too deep"])
def test_reader_refuses_json_that_the_decoder_cannot_hold(blob):
    with pytest.raises(ParseError, match="^line 1: bad JSON: "):
        dy.parse_diagram(blob)


# classification -----------------------------------------------------------

CLASSIFY_CASES = [
    (dy.path_diagram("abc", [3, 3]), ("Spherical", "A(3)")),
    (dy.path_diagram("abc", [4, 3]), ("Spherical", "B(3)")),
    (dy.path_diagram("abc", [5, 3]), ("Spherical", "H(3)")),
    (dy.path_diagram("ab", [4]), ("Spherical", "B(2)")),
    (dy.path_diagram("ab", [6]), ("Spherical", "I2(6)")),
    (dy.path_diagram("a", []), ("Spherical", "A(1)")),
    (dy.cycle_diagram("abc", [3, 3, 3]), ("Affine", "AffA(2)")),
    (dy.path_diagram("abc", [4, 4]), ("Affine", "AffC(2)")),
    (dy.path_diagram("abcde", [3, 4, 3, 5]), ("Other", None)),
    (dy.path_diagram("abcde", [3, 3, 4, 3]), ("Affine", "AffF(4)")),
    (dy.path_diagram("abcd", [3, 3, 3]), ("Spherical", "A(4)")),
    (dy.path_diagram("abcde", [3, 3, 3, 4]), ("Spherical", "B(5)")),
    (dy.path_diagram("abcd", [5, 3, 3]), ("Spherical", "H(4)")),
    (dy.path_diagram("abcd", [3, 4, 3]), ("Spherical", "F(4)")),
    (dy.path_diagram("abcde", [3, 4, 3, 3]), ("Affine", "AffF(4)")),
    (dy.path_diagram("abc", [6, 3]), ("Affine", "AffG(2)")),
    (dy.path_diagram("abcd", [4, 3, 4]), ("Affine", "AffC(3)")),
    (dy.cycle_diagram("abcd", [3, 3, 3, 3]), ("Affine", "AffA(3)")),
]


def test_classify_frozen_cases():
    for d, want in CLASSIFY_CASES:
        got = dy.classify(d)
        assert (got.tag, got.name) == want, d.to_text()


def test_classify_branching_types():
    def name(d):
        return dy.classify(d).name

    d4 = D("abcd", [("a", "b", 3), ("b", "c", 3), ("b", "d", 3)])
    assert name(d4) == "D(4)"
    star4 = D("abcde", [("c", "a", 3), ("c", "b", 3), ("c", "d", 3), ("c", "e", 3)])
    assert name(star4) == "AffD(4)"
    e6 = D("abcdef", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("c", "f", 3)])
    assert name(e6) == "E(6)"
    e8 = D(
        "abcdefgh",
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3),
         ("e", "f", 3), ("f", "g", 3), ("c", "h", 3)],
    )
    assert name(e8) == "E(8)"
    affb3 = D("abcd", [("a", "c", 3), ("b", "c", 3), ("c", "d", 4)])
    assert name(affb3) == "AffB(3)"
    affd5 = D(
        "abcdef",
        [("a", "c", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3), ("d", "f", 3)],
    )
    assert name(affd5) == "AffD(5)"


def _check_against_catalog(d):
    got = dy.classify(d)
    assert (got.tag, got.name) == oracles.catalog_classify(d), d.to_text()


def _relabeled(d, rng):
    """The same diagram under fresh names in a shuffled declaration order."""
    names = {v: f"n{i}" for i, v in enumerate(rng.sample(d.vertices, d.rank))}
    order = list(names.values())
    rng.shuffle(order)
    return dy.diagram(order, [(names[u], names[v], m) for (u, v, m) in d.edges])


def _random_tree(rng, n, labels):
    return [(rng.randrange(i), i, rng.choice(labels)) for i in range(1, n)]


def _diagram(n, edges):
    return dy.diagram([f"v{i}" for i in range(n)],
                      [(f"v{u}", f"v{v}", m) for (u, v, m) in edges])


def test_classify_matches_catalog_on_every_catalog_entry():
    rng = random.Random(3)
    for n in range(3, 10):
        entries = oracles.spherical_entries(n) + oracles.affine_entries(n)
        for name, entry in entries:
            for d in (entry, _relabeled(entry, rng)):
                _check_against_catalog(d)
                assert dy.classify(d).name == name


def test_classify_matches_catalog_on_all_small_trees():
    # trees with parent[i] < i reach every tree shape; up to rank 5 the
    # shape is fixed by the degree sequence
    shapes = {}
    for n in range(3, 6):
        for parents in product(*(range(i) for i in range(1, n))):
            degree = [0] * n
            for i, p in enumerate(parents, start=1):
                degree[i] += 1
                degree[p] += 1
            shapes.setdefault((n, tuple(sorted(degree))), parents)
    assert len(shapes) == 1 + 2 + 3
    for (n, _), parents in shapes.items():
        for labels in product((3, 4, 5, 6), repeat=n - 1):
            edges = [(p, i, m) for i, (p, m) in
                     enumerate(zip(parents, labels), start=1)]
            _check_against_catalog(_diagram(n, edges))


def test_classify_matches_catalog_on_random_diagrams():
    rng = random.Random(20261018)
    for _ in range(1500):
        n = rng.randint(6, 9)
        shape = rng.choice(("tree", "tree3", "cycle", "graph"))
        if shape in ("tree", "tree3"):
            # mostly-3 trees hit the branched families and their near misses
            labels = (3, 3, 3, 4, 5, 6) if shape == "tree" else (3,) * 12 + (4,)
            edges = _random_tree(rng, n, labels)
        elif shape == "cycle":
            c = rng.randint(3, n)
            edges = [(i, (i + 1) % c, rng.choice((3, 3, 3, 4))) for i in range(c)]
            edges += [(rng.randrange(i), i, rng.choice((3, 3, 4)))
                      for i in range(c, n)]
        else:
            edges = _random_tree(rng, n, (3, 3, 4, 5))
            pairs = {frozenset(e[:2]) for e in edges}
            for _ in range(rng.randint(1, 3)):
                u, v = rng.sample(range(n), 2)
                if frozenset((u, v)) not in pairs:
                    pairs.add(frozenset((u, v)))
                    edges.append((u, v, rng.choice((3, 4))))
        _check_against_catalog(_relabeled(_diagram(n, edges), rng))


def test_classify_requires_connected_finite_labels():
    scattered = D("abc", [("a", "b", 3)])
    with pytest.raises(NotConnected):
        dy.classify(scattered)
    with pytest.raises(InfiniteLabel):
        dy.classify(D("ab", [("a", "b", dy.INFINITY)]))


def test_classify_rejects_near_misses():
    # one label off each family
    assert dy.classify(dy.path_diagram("abcd", [3, 4, 4])).tag == "Other"
    assert dy.classify(dy.cycle_diagram("abcd", [3, 3, 3, 4])).tag == "Other"
    e_like = D(
        "abcdefg",
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("d", "e", 3),
         ("e", "f", 3), ("c", "g", 4)],
    )
    assert dy.classify(e_like).tag == "Other"


def test_spherical_hereditary_on_catalog():
    # every connected induced subdiagram of a spherical diagram is spherical
    for d, (tag, _) in CLASSIFY_CASES:
        if tag != "Spherical":
            continue
        for comp in d.components():
            for k in range(1, len(comp) + 1):
                sub = d.induced(comp[:k])
                for piece in sub.components():
                    assert dy.classify(sub.induced(piece)).is_spherical


def test_spherical_flags():
    assert dy.classify(dy.path_diagram("abc", [3, 3])).is_spherical
    assert dy.classify(dy.cycle_diagram("abc", [3, 3, 3])).is_affine
    assert dy.is_spherical(D("abc", [("a", "b", 3)]))  # disconnected is fine here
    assert not dy.is_spherical(dy.cycle_diagram("abc", [3, 3, 3]))
    assert not dy.is_spherical(D("ab", [("a", "b", dy.INFINITY)]))
    assert dy.is_spherical(D("abc", []))
    assert dy.is_spherical(D([], []))


def test_is_spherical_classifies_each_diagram_once(monkeypatch):
    calls = []
    classify = dy.classify
    monkeypatch.setattr(dy, "classify", lambda d: calls.append(d) or classify(d))
    d = D("abcd", [("a", "b", 4), ("b", "c", 3)])
    assert [dy.is_spherical(d) for _ in range(3)] == [True] * 3
    assert len(calls) == 2  # one per component, on the first call only
    again = D("abcd", [("a", "b", 4), ("b", "c", 3)])
    assert again == d and hash(again) == hash(d)
    assert dy.is_spherical(again) and len(calls) == 4


def test_isomorphism_respects_labels():
    d1 = dy.path_diagram("abc", [3, 4])
    d2 = dy.path_diagram("xyz", [4, 3])
    assert oracles.is_isomorphic(d1, d2)
    assert not oracles.is_isomorphic(d1, dy.path_diagram("xyz", [3, 3]))
    assert not oracles.is_isomorphic(d1, dy.path_diagram("wxyz", [3, 4, 3]))
    # an infinite label sorts with the finite ones
    d3 = dy.path_diagram("abc", [3, dy.INFINITY])
    assert oracles.is_isomorphic(d3, dy.path_diagram("xyz", [dy.INFINITY, 3]))
    assert not oracles.is_isomorphic(d3, d1)


# local reducibility and admissibility --------------------------------------


def test_locally_reducible_frozen():
    assert dy.is_locally_reducible(dy.path_diagram("abc", [6, 3]))
    assert dy.is_locally_reducible(dy.cycle_diagram("abcd", [4, 4, 4, 4]))
    assert not dy.is_locally_reducible(dy.path_diagram("abc", [3, 3]))
    assert not dy.is_locally_reducible(dy.cycle_diagram("abcd", [3, 4, 3, 5]))
    # triangles have no 3-vertex path subdiagram at all
    assert dy.is_locally_reducible(dy.cycle_diagram("abc", [6, 6, 6]))
    assert dy.is_locally_reducible(dy.cycle_diagram("abc", [3, 6, 6]))
    assert not dy.is_locally_reducible(dy.path_diagram("abc", [3, 5]))


def test_admissible_concrete():
    path = dy.path_diagram("abc", [3, 3])
    assert dy.is_admissible(path, {"a", "b", "c"})
    square = dy.cycle_diagram("abcd", [3, 3, 3, 3])
    # a and c separate in the sub-path a-b-c but stay joined through d
    assert not dy.is_admissible(square, {"a", "b", "c"})
    tripod = D("oabc", [("o", "a", 3), ("o", "b", 3), ("o", "c", 3)])
    assert dy.is_admissible(tripod, {"a", "o", "b"})
    with pytest.raises(SubgraphNotInDiagram):
        dy.is_admissible(path, {"a", "z"})


def test_smallest_subtree():
    d = D("abcde", [("a", "b", 3), ("b", "c", 3), ("b", "d", 4), ("d", "e", 3)])
    assert set(dy.smallest_subtree(d, {"a", "c"}).vertices) == {"a", "b", "c"}
    assert set(dy.smallest_subtree(d, {"a", "e"}).vertices) == {"a", "b", "d", "e"}
    assert set(dy.smallest_subtree(d, {"b"}).vertices) == {"b"}
    with pytest.raises(NotATree):
        dy.smallest_subtree(dy.cycle_diagram("abc", [3, 3, 3]), {"a", "b"})


def test_cut_components():
    d = dy.path_diagram("abcd", [3, 4, 3])
    parts = dy.cut_components(d, [("b", "c")])
    assert sorted(tuple(p.vertices) for p in parts) == [("a", "b"), ("c", "d")]
    with pytest.raises(EdgeNotInDiagram):
        dy.cut_components(d, [("a", "c")])


# foldings -------------------------------------------------------------------


def test_identity_folding_valid():
    d = dy.path_diagram("abc", [3, 4])
    f = dy.identity_folding(d)
    rep = dy.validate_folding(f)
    assert bool(rep)
    assert rep.nontrivial_fibers == ()


def test_quotient_folding_merges_leaves():
    # star with equal labels folds onto a single edge
    star = D("abco", [("o", "a", 3), ("o", "b", 3), ("o", "c", 3)])
    f = dy.quotient_folding(star, [("a", "b", "c")])
    assert f.target.rank == 2
    assert f.fiber("a+b+c") == ("a", "b", "c")
    rep = dy.validate_folding(f)
    assert bool(rep), rep.problems
    assert rep.nontrivial_fibers == (("a", "b", "c"),)
    assert dy.is_folded_subgraph(f, {"a", "b"})
    assert not dy.is_folded_subgraph(f, {"a", "o"})


def test_folding_rejects_adjacent_merge():
    d = dy.path_diagram("abc", [3, 3])
    with pytest.raises(InvalidFolding):
        dy.quotient_folding(d, [("a", "b")])


def test_folding_rejects_label_conflict():
    d = D("abcd", [("a", "b", 3), ("c", "d", 4)])
    with pytest.raises(InvalidFolding):
        dy.quotient_folding(d, [("a", "c"), ("b", "d")])


def test_folding_rejects_incomplete_fiber_adjacency():
    # merging the two far ends of a path: fibers not fully joined
    d = dy.path_diagram("abcde", [3, 3, 3, 3])
    with pytest.raises(InvalidFolding):
        dy.quotient_folding(d, [("a", "e")])


def test_fold_path_onto_edge():
    # both ends of a–b–c land on x; every fiber pair is joined with label 3
    d = dy.path_diagram("abc", [3, 3])
    f = dy.SpecialFolding(
        source=d,
        target=dy.path_diagram(["x", "y"], [3]),
        vertex_map=(("a", "x"), ("b", "y"), ("c", "x")),
    )
    rep = dy.validate_folding(f)
    assert bool(rep)
    assert rep.nontrivial_fibers == (("a", "c"),)


def test_validate_folding_reports_problems():
    d = dy.path_diagram("abc", [3, 4])
    f = dy.SpecialFolding(
        source=d,
        target=dy.path_diagram(["x", "y"], [3]),
        vertex_map=(("a", "x"), ("b", "y"), ("c", "x")),
    )
    rep = dy.validate_folding(f)
    assert not rep
    assert rep.problems  # the c-b edge carries label 4, the target edge 3


def test_validate_folding_reports_a_vertex_with_two_images():
    # dict(vertex_map) keeps a -> x, which alone would be a valid folding
    f = dy.SpecialFolding(
        source=dy.path_diagram("abc", [3, 3]),
        target=dy.path_diagram(["x", "y"], [3]),
        vertex_map=(("a", "y"), ("a", "x"), ("b", "y"), ("c", "x")),
    )
    rep = dy.validate_folding(f)
    assert not rep
    assert rep.problems == ("vertex 'a' has two images",)


# a fiber is named by "+"-joining its vertices, so merging a and b here would
# make a second vertex named "a+b"
PLUS_D4 = D(["o", "a", "b", "a+b"], [("o", "a", 3), ("o", "b", 3), ("o", "a+b", 3)])


def test_quotient_folding_name_clash_is_an_invalid_folding():
    clash = r"^fibers \('a', 'b'\) and \('a\+b',\) are both named 'a\+b'$"
    with pytest.raises(InvalidFolding, match=clash):
        dy.quotient_folding(PLUS_D4, [("a", "b")])


def test_parse_rejects_plus_in_vertex_names():
    with pytest.raises(ParseError, match=r"line 2: vertex name 'a\+b' contains '\+'"):
        dy.parse_diagram("vertices o a b\nvertices a+b\n")
    with pytest.raises(ParseError, match=r"line 1: vertex name '\+' contains '\+'"):
        dy.parse_diagram('{"vertices": ["o", "+"], "edges": []}')


def test_quotient_folding_square():
    sq = dy.cycle_diagram("abcd", [3, 3, 3, 3])
    f = dy.quotient_folding(sq, [("b", "d")])
    assert f.target.rank == 3
    assert dy.classify(f.target).name == "A(3)"
