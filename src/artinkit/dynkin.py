"""Edge-labeled Coxeter diagrams: parsing, classification, subgraph queries, foldings.

A diagram here is a finite simple graph whose edges carry an integer label
>= 3 or the symbol inf.  An absent edge means label 2 (the two generators
commute); label inf means no relation between them.  Vertex declaration
order is significant downstream: it fixes the generator order used for
ShortLex normal forms, so a diagram is *not* identified with its isomorphism
class.  `classify` is the isomorphism-invariant view.  It decides the
spherical or affine type from the shape (cycle, path, or tree with one or
two branch vertices) and its labels, with no isomorphism search.

Text format (line oriented, `#` starts a comment, `;` also separates
statements):

    vertices a b c
    edge a b 3
    edge b c 4

JSON mirror: {"vertices": ["a","b","c"], "edges": [["a","b",3],["b","c",4]]}
with "inf" for the infinite label.  One reader takes both: it turns either
into statements (line, directive, arguments) and checks them in one loop.
One vertex-name rule holds for both formats: a name is one non-empty token
with no whitespace and none of `# ; | ^ +`.  A folding names each fiber by
"+"-joining its vertices, so a parsed name and a fiber name never clash.
Emission is sorted (vertices lexicographic, edges lexicographic) so emitted
files are byte-stable; re-parsing one yields lexicographic declaration order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EdgeNotInDiagram,
    InfiniteLabel,
    InvalidFolding,
    LabelError,
    NotATree,
    NotConnected,
    ParseError,
    SubgraphNotInDiagram,
)

INFINITY = math.inf


def _label_key(m):
    # sort/emit helper: infinite label prints as "inf"
    return "inf" if m == INFINITY else int(m)


@dataclass(frozen=True)
class DynkinDiagram:
    """Immutable labeled diagram. `vertices` keeps declaration order."""

    vertices: tuple
    edges: tuple  # tuples (u, v, label) with u before v in declaration order

    def __post_init__(self):
        names = self.vertices
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex names")
        index = {v: i for i, v in enumerate(names)}
        adj = {v: {} for v in names}
        canon = []
        for (u, v, m) in self.edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u},{v}) uses unknown vertex")
            if u == v:
                raise ValueError(f"loop at {u}")
            if m != INFINITY and (not isinstance(m, int) or m < 3):
                raise LabelError(f"bad label {m!r} on ({u},{v})")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u][v] = m
            adj[v][u] = m
            if index[u] > index[v]:
                u, v = v, u
            canon.append((u, v, m))
        canon.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_spherical", None)  # filled by is_spherical
        object.__setattr__(self, "_hash", None)  # filled by __hash__

    def __hash__(self):
        """Computed once: every cached table and engine lookup hashes d."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))
        return self._hash

    # -- basic queries ---------------------------------------------------

    @property
    def rank(self):
        return len(self.vertices)

    def has_vertex(self, v):
        return v in self._index

    def neighbors(self, v):
        if v not in self._adj:
            raise SubgraphNotInDiagram(f"unknown vertex {v!r}")
        nbrs = self._adj[v]
        return tuple(u for u in self.vertices if u in nbrs)

    def degree(self, v):
        return len(self.neighbors(v))

    def label(self, u, v):
        """Coxeter exponent m(u, v): edge label, or 2 when no edge joins them."""
        if u not in self._adj or v not in self._adj:
            raise SubgraphNotInDiagram(f"unknown vertex in ({u!r},{v!r})")
        if u == v:
            raise ValueError("label(u, u) is undefined")
        return self._adj[u].get(v, 2)

    def has_edge(self, u, v):
        return v in self._adj.get(u, {})

    def induced(self, subset):
        """Induced subdiagram; vertex order inherited from this diagram."""
        sub = set(subset)
        missing = sub - set(self.vertices)
        if missing:
            raise SubgraphNotInDiagram(f"vertices not in diagram: {sorted(missing)}")
        verts = tuple(v for v in self.vertices if v in sub)
        edges = tuple(e for e in self.edges if e[0] in sub and e[1] in sub)
        return DynkinDiagram(verts, edges)

    def _reach(self, v, avoid=()):
        """The vertices joined to v by a path through no vertex of `avoid`,
        v included."""
        seen, stack = {v}, [v]
        while stack:
            for u in self._adj[stack.pop()]:
                if u not in seen and u not in avoid:
                    seen.add(u)
                    stack.append(u)
        return seen

    def components(self):
        """Connected components as tuples of vertices in declaration order."""
        seen = set()
        comps = []
        for v in self.vertices:
            if v not in seen:
                comp = self._reach(v)
                seen |= comp
                comps.append(tuple(u for u in self.vertices if u in comp))
        return comps

    def is_connected(self):
        return not self.vertices or len(self._reach(self.vertices[0])) == self.rank

    def is_tree(self):
        return self.is_connected() and len(self.edges) == len(self.vertices) - 1

    def path_order(self):
        """Vertices in path order if the diagram is a simple path, else None:
        a tree with no vertex of degree above 2, walked from its first
        declared end."""
        adj = self._adj
        if not self.is_tree() or any(len(a) > 2 for a in adj.values()):
            return None
        order = [next(v for v in self.vertices if len(adj[v]) < 2)]
        while len(order) < self.rank:
            order.append(next(u for u in adj[order[-1]] if u not in order[-2:]))
        return order

    def max_label(self):
        return max((m for (_, _, m) in self.edges), default=2)

    # -- serialization ---------------------------------------------------

    def to_text(self):
        lines = ["vertices " + " ".join(sorted(self.vertices))]
        for (u, v, m) in sorted(
            ((min(u, v), max(u, v), m) for (u, v, m) in self.edges)
        ):
            lines.append(f"edge {u} {v} {_label_key(m)}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "vertices": sorted(self.vertices),
            "edges": sorted(
                [min(u, v), max(u, v), _label_key(m)] for (u, v, m) in self.edges
            ),
        }


def diagram(vertices, edges=()):
    """Convenience constructor: diagram("abc", [("a","b",3), ...])."""
    verts = tuple(vertices)
    return DynkinDiagram(verts, tuple(edges))


def path_diagram(names, labels):
    """Path with the given vertex names and consecutive edge labels."""
    names = list(names)
    labels = list(labels)
    if len(labels) != len(names) - 1:
        raise ValueError("need one label per consecutive pair")
    edges = [(names[i], names[i + 1], labels[i]) for i in range(len(labels))]
    return DynkinDiagram(tuple(names), tuple(edges))


def cycle_diagram(names, labels):
    """Cycle with consecutive labels; labels[i] joins names[i], names[i+1 mod n]."""
    names = list(names)
    n = len(names)
    if len(labels) != n:
        raise ValueError("need one label per cycle edge")
    edges = [(names[i], names[(i + 1) % n], labels[i]) for i in range(n)]
    return DynkinDiagram(tuple(names), tuple(edges))


# -- parsing ---------------------------------------------------------------


def _parse_label(tok, lineno):
    if tok == "inf":
        return INFINITY
    try:
        m = int(tok)
    except ValueError:
        raise ParseError(lineno, f"label must be an integer >= 3 or 'inf', got {tok!r}")
    if m < 3:
        raise LabelError(
            f"line {lineno}: explicit label {m} is not allowed "
            "(label 2 means: omit the edge)"
        )
    return m


# characters a vertex name may not hold, and what each one means elsewhere
_RESERVED = {
    "+": "joins the vertices of a fiber",
    "#": "starts a comment",
    ";": "separates statements",
    "|": "separates the factors of an element",
    "^": "marks an inverse letter",
}


def _check_name(name, lineno):
    """The vertex-name rule of both formats: one non-empty token with no
    whitespace and none of the reserved characters, so that every parsed
    diagram, and every element over it, can be written back and read."""
    if name.split() != [name]:
        raise ParseError(lineno, f"vertex name {name!r} is not one token")
    for c, meaning in _RESERVED.items():
        if c in name:
            raise ParseError(
                lineno, f"vertex name {name!r} contains {c!r}, which {meaning}")


def _json_statements(text):
    """The JSON mirror as text-format statements, all at line 1, after the
    checks that belong to JSON itself."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad JSON: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # a number too long, or nesting too deep
        raise ParseError(1, f"bad JSON: {exc}")
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ParseError(1, "JSON diagram needs a 'vertices' key")
    unknown = sorted(obj.keys() - {"vertices", "edges"})
    if unknown:
        raise ParseError(1, f"unknown key {unknown[0]!r}: a JSON diagram has only"
                            " 'vertices' and 'edges'")
    verts, edges = obj["vertices"], obj.get("edges", [])
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise ParseError(1, "'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise ParseError(1, "'edges' must be a list")
    out = [(1, "vertices", verts)] if verts else []
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(v, str) for v in entry[:2])):
            raise ParseError(
                1, f"edge entry must be [u, v, label] with string ends, got {entry!r}")
        m = entry[2]
        if m != "inf" and type(m) is not int:  # not bool, float or "3"
            raise ParseError(1, f"label must be an integer >= 3 or 'inf', got {m!r}")
        out.append((1, "edge", entry[:2] + [str(m)]))
    return out


def parse_diagram(text):
    """Parse the text format or its JSON mirror into a DynkinDiagram: both are
    read as statements (line, directive, arguments) and checked in one loop."""
    if text.lstrip().startswith("{"):
        stmts = _json_statements(text)
    else:
        stmts = ((lineno, toks[0], toks[1:])
                 for lineno, raw in enumerate(text.splitlines(), start=1)
                 for toks in map(str.split, raw.split("#", 1)[0].split(";")) if toks)
    verts, edges, seen = {}, [], set()
    for lineno, directive, args in stmts:
        if directive == "vertices":
            if not args:
                raise ParseError(lineno, "vertices line needs at least one name")
            for name in args:
                if name in verts:
                    raise ParseError(lineno, f"duplicate vertex {name!r}")
                _check_name(name, lineno)
                verts[name] = None
        elif directive == "edge":
            if len(args) != 3:
                raise ParseError(lineno, "edge line needs: edge <u> <v> <label>")
            u, v, tok = args
            if u not in verts or v not in verts:
                raise ParseError(lineno, f"edge ({u},{v}) uses undeclared vertex")
            if u == v:
                raise ParseError(lineno, f"loop edge at {u!r}")
            if frozenset((u, v)) in seen:
                raise ParseError(lineno, f"duplicate edge ({u},{v})")
            seen.add(frozenset((u, v)))
            edges.append((u, v, _parse_label(tok, lineno)))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    return DynkinDiagram(tuple(verts), tuple(edges))


# -- classification --------------------------------------------------------


@dataclass(frozen=True)
class DiagramClass:
    tag: str  # "Spherical" | "Affine" | "Other"
    name: str | None = None  # catalog name, e.g. "A(3)" or "AffC(2)"

    def __str__(self):
        return f"{self.tag} {self.name}" if self.name else self.tag

    @property
    def is_spherical(self):
        return self.tag == "Spherical"

    @property
    def is_affine(self):
        return self.tag == "Affine"


# Connected spherical and affine diagrams of rank n >= 3, by shape
# (Humphreys, Reflection Groups and Coxeter Groups, 2.4 and 2.7).


def _path_classes(n):
    """Path label sequences, read from the end that gives the smaller tuple."""
    return {
        (3,) * (n - 1): ("Spherical", f"A({n})"),
        (3,) * (n - 2) + (4,): ("Spherical", f"B({n})"),
        (3, 4, 3): ("Spherical", "F(4)"),
        (3, 5): ("Spherical", "H(3)"),
        (3, 3, 5): ("Spherical", "H(4)"),
        (4,) + (3,) * (n - 3) + (4,): ("Affine", f"AffC({n - 1})"),
        (3, 3, 4, 3): ("Affine", "AffF(4)"),
        (3, 6): ("Affine", "AffG(2)"),
    }


def _star_classes(n):
    """Trees with one branch vertex, by the sorted label sequences of their
    legs, each read outward from the branch vertex."""
    a, b, c = (3,), (3, 3), (3, 3, 3)
    return {
        (a, a, (3,) * (n - 3)): ("Spherical", f"D({n})"),
        (a, b, b): ("Spherical", "E(6)"),
        (a, b, c): ("Spherical", "E(7)"),
        (a, b, (3,) * 4): ("Spherical", "E(8)"),
        (a, a, (3,) * (n - 4) + (4,)): ("Affine", f"AffB({n - 1})"),
        (a, a, a, a): ("Affine", "AffD(4)"),
        (b, b, b): ("Affine", "AffE(6)"),
        (a, c, c): ("Affine", "AffE(7)"),
        (a, b, (3,) * 5): ("Affine", "AffE(8)"),
    }


def _walk(adj, prev, cur):
    """Labels from prev through cur and onward until a vertex of degree != 2."""
    labels = [adj[prev][cur]]
    while len(adj[cur]) == 2:
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
        labels.append(adj[prev][cur])
    return tuple(labels)


def classify(d):
    """Isomorphism type of a connected finite-label diagram.

    Returns a DiagramClass tagged Spherical/Affine with the catalog name, or
    Other. Raises NotConnected / InfiniteLabel for diagrams outside the
    contract. The class is read off the shape, with no isomorphism search:
    a cycle, a path, or a tree with one or two branch vertices, with its
    labels.
    """
    if d.rank == 0:
        raise NotConnected("empty diagram")
    if not d.is_connected():
        raise NotConnected("diagram is not connected")
    for (_, _, m) in d.edges:
        if m == INFINITY:
            raise InfiniteLabel("classification requires finite labels")
    n = d.rank
    if n == 1:
        return DiagramClass("Spherical", "A(1)")
    if n == 2:
        m = d.label(*d.vertices)  # connected, so the edge exists
        if m == 3:
            return DiagramClass("Spherical", "A(2)")
        if m == 4:
            return DiagramClass("Spherical", "B(2)")
        return DiagramClass("Spherical", f"I2({m})")
    adj = d._adj
    all3 = all(m == 3 for (_, _, m) in d.edges)
    branches = [v for v in d.vertices if len(adj[v]) >= 3]
    if len(d.edges) == n:  # unicyclic: affine only as the all-3 cycle
        hit = ("Affine", f"AffA({n - 1})") if all3 and not branches else None
    elif len(d.edges) > n:
        hit = None
    elif not branches:  # a path
        end = next(v for v in d.vertices if len(adj[v]) == 1)
        labels = _walk(adj, end, next(iter(adj[end])))
        hit = _path_classes(n).get(min(labels, labels[::-1]))
    elif len(branches) == 1:
        legs = tuple(sorted(_walk(adj, branches[0], v) for v in adj[branches[0]]))
        hit = _star_classes(n).get(legs)
    else:  # AffD(n - 1): two branch vertices, each carrying two leaves
        forked = len(branches) == 2 and all(
            len(adj[v]) == 3 and sum(len(adj[w]) == 1 for w in adj[v]) == 2
            for v in branches
        )
        hit = ("Affine", f"AffD({n - 1})") if all3 and forked else None
    return DiagramClass(*hit) if hit else DiagramClass("Other")


def is_spherical(d):
    """True iff every connected component has finite Coxeter group (the
    verdict is computed once and kept on the diagram)."""
    if d._spherical is None:
        object.__setattr__(d, "_spherical", d.rank == 0 or (
            all(m != INFINITY for (_, _, m) in d.edges)
            and all(classify(d.induced(comp)).is_spherical
                    for comp in d.components())))
    return d._spherical


def is_locally_reducible(d):
    """True iff no connected 3-vertex induced subdiagram is spherical.

    The connected spherical rank-3 diagrams are exactly the (3,m)-paths with
    m in {3,4,5}, so this is a direct scan over vertex triples.
    """
    adj = d._adj
    for triple in combinations(d.vertices, 3):
        labels = sorted(adj[u][v] for u, v in combinations(triple, 2) if v in adj[u])
        # two edges make a path; a triangle is never spherical
        if len(labels) == 2 and labels[0] == 3 and labels[1] in (3, 4, 5):
            return False
    return True


def is_admissible(d, sub):
    """Separation test: any x in `sub` separating two of its vertices inside
    the induced subgraph must also separate them in the whole diagram."""
    induced = d.induced(sub)
    if not induced.is_connected():
        raise ValueError("sub must induce a connected subgraph")
    verts = set(induced.vertices)
    for x in verts:
        rest = verts - {x}
        for u in rest:
            if induced._reach(u, (x,)) != d._reach(u, (x,)) & rest:
                return False
    return True


def smallest_subtree(d, verts):
    """Smallest subtree of a tree diagram containing the given vertices: they
    and every vertex whose removal separates two of them."""
    if not d.is_tree():
        raise NotATree("smallest_subtree requires a tree diagram")
    vs = set(verts)
    missing = vs - set(d.vertices)
    if missing:
        raise SubgraphNotInDiagram(f"vertices not in diagram: {sorted(missing)}")
    if not vs:
        raise ValueError("need at least one vertex")
    return d.induced(vs | {x for x in d.vertices
                           if len({frozenset(d._reach(v, (x,))) for v in vs}) > 1})


def cut_components(d, cut_edges):
    """Components of the diagram minus the given edges.

    Each returned component is a subdiagram on its vertices with the cut
    edges removed (for trees this coincides with the induced subdiagram).
    """
    cuts = set()
    for (u, v) in cut_edges:
        if not (d.has_vertex(u) and d.has_vertex(v)) or not d.has_edge(u, v):
            raise EdgeNotInDiagram(f"({u},{v}) is not an edge of the diagram")
        cuts.add(frozenset((u, v)))
    rest = DynkinDiagram(
        d.vertices, tuple(e for e in d.edges if frozenset(e[:2]) not in cuts)
    )
    return [rest.induced(comp) for comp in rest.components()]


# -- foldings ----------------------------------------------------------------


@dataclass(frozen=True)
class SpecialFolding:
    """Vertex-to-vertex map between diagrams, candidate for a special folding."""

    source: DynkinDiagram
    target: DynkinDiagram
    vertex_map: tuple  # ((source_vertex, target_vertex), ...)

    def __post_init__(self):
        # the last pair of a vertex wins; validate_folding reports the others
        mapping = dict(self.vertex_map)
        fibers = {}
        for v in self.source.vertices:
            if v in mapping:
                fibers[mapping[v]] = fibers.get(mapping[v], ()) + (v,)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_fibers", fibers)

    def fiber(self, target_vertex):
        """Source vertices mapped to target_vertex, in declaration order."""
        return self._fibers.get(target_vertex, ())


@dataclass(frozen=True)
class FoldingReport:
    valid: bool
    problems: tuple
    nontrivial_fibers: tuple  # fibers with >= 2 source vertices

    def __bool__(self):
        return self.valid


def identity_folding(d):
    return SpecialFolding(d, d, tuple((v, v) for v in d.vertices))


def validate_folding(f):
    """Check the special-folding conditions; report problems and folded fibers.

    Conditions: the vertex map is total and surjective; every source edge
    maps to a target edge with the same label (in particular adjacent
    vertices are never identified); and for every target edge (x, y) every
    vertex of the fiber of x is adjacent in the source to every vertex of
    the fiber of y, again with matching label.
    """
    problems = []
    m = f.mapping
    src, tgt = f.source, f.target
    for v in dict.fromkeys(v for (v, w) in f.vertex_map if m[v] != w):
        problems.append(f"vertex {v!r} has two images")
    for v in src.vertices:
        if v not in m:
            problems.append(f"vertex {v!r} has no image")
        elif not tgt.has_vertex(m[v]):
            problems.append(f"image {m[v]!r} of {v!r} is not a target vertex")
    extra = set(m) - set(src.vertices)
    for v in sorted(extra):
        problems.append(f"map defined on {v!r} which is not a source vertex")
    if not problems:
        for w in tgt.vertices:
            if not f.fiber(w):
                problems.append(f"target vertex {w!r} has empty fiber")
        for (u, v, lab) in src.edges:
            fu, fv = m[u], m[v]
            if fu == fv:
                problems.append(f"edge ({u},{v}) collapses onto {fu!r}")
            elif not tgt.has_edge(fu, fv):
                problems.append(f"edge ({u},{v}) maps to non-edge ({fu},{fv})")
            elif tgt.label(fu, fv) != lab:
                problems.append(
                    f"edge ({u},{v}) label {_label_key(lab)} != target label "
                    f"{_label_key(tgt.label(fu, fv))}"
                )
        for (x, y, lab) in tgt.edges:
            for u in f.fiber(x):
                for v in f.fiber(y):
                    if not src.has_edge(u, v):
                        problems.append(
                            f"fibers of edge ({x},{y}) miss source edge ({u},{v})"
                        )
                    elif src.label(u, v) != lab:
                        problems.append(
                            f"source edge ({u},{v}) label mismatch on fiber of ({x},{y})"
                        )
    fibers = tuple(f.fiber(w) for w in tgt.vertices if len(f.fiber(w)) >= 2)
    return FoldingReport(not problems, tuple(problems), fibers)


def is_folded_subgraph(f, subset):
    """True iff the folding is non-injective on the given source vertices."""
    m = f.mapping
    subset = list(subset)
    images = [m[v] for v in subset]
    return len(set(images)) < len(subset)


def quotient_folding(d, groups):
    """Build the quotient diagram identifying each group of vertices.

    `groups` is a list of disjoint vertex tuples (singletons may be
    omitted). Raises InvalidFolding when the result is not a special
    folding (e.g. adjacent vertices merged, or fiber adjacency incomplete),
    or when a fiber's "+"-joined name is already the name of another.
    """
    owner = {}
    for grp in groups:
        for v in grp:
            if not d.has_vertex(v):
                raise SubgraphNotInDiagram(f"unknown vertex {v!r}")
            if v in owner:
                raise ValueError(f"vertex {v!r} in two groups")
            owner[v] = grp
    fibers = {}  # name -> fiber, in the order of the fibers' first vertices
    name_of = {}
    for v in d.vertices:
        if v not in name_of:
            fib = tuple(sorted(owner.get(v, (v,)), key=d._index.get))
            name = "+".join(fib)
            if name in fibers:
                raise InvalidFolding(
                    f"fibers {fibers[name]} and {fib} are both named {name!r}"
                )
            fibers[name] = fib
            name_of.update(dict.fromkeys(fib, name))
    index = {name: i for i, name in enumerate(fibers)}
    tedges = {}
    for (u, v, lab) in d.edges:  # validate_folding refuses what this glosses
        a, b = name_of[u], name_of[v]
        if a != b:
            tedges.setdefault((a, b) if index[a] < index[b] else (b, a), lab)
    target = DynkinDiagram(
        tuple(fibers), tuple((a, b, lab) for (a, b), lab in tedges.items())
    )
    fold = SpecialFolding(d, target, tuple((v, name_of[v]) for v in d.vertices))
    report = validate_folding(fold)
    if not report:
        raise InvalidFolding("; ".join(report.problems))
    return fold
