"""Applicability gates for the diagram-level contractibility criteria.

Each gate inspects a Dynkin diagram and reports whether one of the
implemented sufficient criteria applies, together with a certificate that
can be re-validated independently (`revalidate`). Verdicts are one-sided:
applicable=False means the gate could not establish its hypotheses, never
a refutation of the underlying conjecture.

Gates:
  - gate_tree: cut every edge of label >= 6 in a tree; all components must
    be spherical, locally reducible, or a two-4-ended chain (AffC).
  - gate_tree_conditional: as gate_tree but affine components are allowed;
    affine families whose coset complexes lack a verified local structure
    theory contribute explicit conditional assumptions.
  - gate_cycle: some induced cycle whose per-vertex complement components
    are trees of spherical / locally reducible (unconditional) or affine
    (conditional) type.
  - gate_folded: bounded search over vertex-identifying quotients composed
    with gate_cycle-style link conditions; all branches unconditional.
  - gate_all: every gate, plus the spherical base case and the reduction
    of a disconnected diagram to its components.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from . import dynkin
from .dynkin import INFINITY
from .errors import (
    InvalidFolding,
    InvariantViolated,
    SearchBudgetExceeded,
    SubgraphNotInDiagram,
)

TREE_CUT = "TreeCut"
SINGLE_CYCLE = "SingleCycle"
FOLDED_CYCLE = "FoldedCycle"
SPHERICAL_BASE = "SphericalBase"
FC_REDUCTION = "FCReduction"

DEFAULT_FOLDING_BUDGET = 10_000

# Affine families whose coset complexes have no verified local structure
# theory; admitting such a component makes the verdict conditional on the
# two group-theoretic hypotheses below.
CONDITIONAL_AFFINE_FAMILIES = ("AffB", "AffD", "AffE", "AffF")

_ASSUMPTION_TEMPLATES = (
    "{}: the intersection of any two parabolic subgroups is a parabolic subgroup",
    "{}: commuting central elements of two parabolic subgroups admit a common"
    " conjugate into a single subgroup of any admissible chain containing both",
)


def assumption_pair(type_name):
    """The two unproven group-theoretic hypotheses, tagged with the type."""
    return tuple(t.format(type_name) for t in _ASSUMPTION_TEMPLATES)


@dataclass(frozen=True)
class GateVerdict:
    theorem: str
    applicable: bool
    certificate: dict | None = None
    conditional_assumptions: tuple = ()
    failure_reason: str | None = None

    def to_json(self):
        return {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "certificate": self.certificate,
            "conditional": list(self.conditional_assumptions),
            "reason": self.failure_reason,
        }

    def render(self):
        head = "applicable" if self.applicable else "not applicable"
        if self.applicable and self.conditional_assumptions:
            head += f" (conditional, {len(self.conditional_assumptions)} assumptions)"
        line = f"{self.theorem}: {head}"
        if self.failure_reason:
            line += f" [{self.failure_reason}]"
        return line


def overall(verdicts):
    """Summary over gate_all output: applicable | conditional | none."""
    if any(v.applicable and not v.conditional_assumptions for v in verdicts):
        return "applicable"
    if any(v.applicable for v in verdicts):
        return "conditional"
    return "none"


# -- shared component admission ----------------------------------------------


def _reject(d, connected=False):
    """Reason string when the diagram is outside gate scope, else None. With
    `connected`, a disconnected diagram is outside it too: a base case or a
    cycle in one component says nothing about the others, and the
    componentwise reduction gate handles such diagrams."""
    if d.rank == 0:
        return "empty diagram"
    if any(m == INFINITY for (_, _, m) in d.edges):
        return "diagram has an infinite label"
    if connected and not d.is_connected():
        return "diagram is not connected"
    return None


def _admit_one(comp, cls, tag, folding):
    """Try a single branch predicate on a connected component of class `cls`.

    Returns (type_name, assumptions) on success, None on failure.
    """
    if tag == "spherical":
        return (cls.name, ()) if cls.is_spherical else None
    if tag == "locally_reducible":
        if comp.is_tree() and dynkin.is_locally_reducible(comp):
            return (cls.name, ())
        return None
    if tag == "affine_chain":
        if cls.is_affine and cls.name.startswith("AffC("):
            return (cls.name, ())
        return None
    if tag == "affine":
        if comp.is_tree() and cls.is_affine:
            family = cls.name.split("(")[0]
            if family in CONDITIONAL_AFFINE_FAMILIES:
                return (cls.name, assumption_pair(cls.name))
            return (cls.name, ())
        return None
    if tag == "folded_cycle":
        if (
            cls.is_affine
            and cls.name.startswith("AffA(")
            and folding is not None
            and dynkin.is_folded_subgraph(folding, comp.vertices)
        ):
            return (cls.name, ())
        return None
    raise ValueError(f"unknown branch tag {tag!r}")


def _admit(comp, branches, folding=None):
    """((tag, type_name, assumptions), class) for the first branch in
    `branches` that admits the component, else (None, class)."""
    cls = dynkin.classify(comp)
    for tag in branches:
        hit = _admit_one(comp, cls, tag, folding)
        if hit is not None:
            return (tag, *hit), cls
    return None, cls


def _refusal(comp, cls, branches):
    allowed = ", ".join(branches).replace("_", " ")
    return f"component [{', '.join(comp.vertices)}] is {cls}; allowed: {allowed}"


# -- tree gates ---------------------------------------------------------------

_TREE_BRANCHES = ("spherical", "locally_reducible", "affine_chain")
_TREE_COND_BRANCHES = _TREE_BRANCHES + ("affine",)


def _tree_verdicts(d, cut_edges=None):
    """(plain, conditional) TreeCut verdicts from one admission of each cut
    component under the conditional branches, the plain ones first.

    The plain verdict fails at the first component admitted only as
    `affine`, or not at all; when every component takes a plain branch the
    two verdicts are one. Raises ValueError for a cut edge that the diagram
    lacks or whose label is below 6.
    """
    bad = _reject(d) or (None if d.is_tree() else "NotATree")
    if bad:
        refused = GateVerdict(TREE_CUT, False, failure_reason=bad)
        return refused, refused
    if cut_edges is None:
        cut = [e for e in d.edges if e[2] >= 6]
    else:
        keys = {frozenset((u, v)) for (u, v, *_) in cut_edges}
        cut = [e for e in d.edges if frozenset((e[0], e[1])) in keys]
        if len(cut) != len(keys):
            raise ValueError("cut edge not in diagram")
        if any(m < 6 for (_, _, m) in cut):
            raise ValueError("cut edges must have label >= 6")
    entries = []
    assumptions = []
    plain_fail = None
    for comp in dynkin.cut_components(d, [(u, v) for (u, v, _) in cut]):
        hit, cls = _admit(comp, _TREE_COND_BRANCHES)
        if plain_fail is None and (hit is None or hit[0] == "affine"):
            plain_fail = GateVerdict(
                TREE_CUT, False, failure_reason=_refusal(comp, cls, _TREE_BRANCHES)
            )
        if hit is None:
            why = _refusal(comp, cls, _TREE_COND_BRANCHES)
            return plain_fail, GateVerdict(TREE_CUT, False, failure_reason=why)
        tag, name, extra = hit
        entries.append(
            {"vertices": list(comp.vertices), "branch": tag, "type": name}
        )
        assumptions.extend(extra)
    certificate = {
        "cut_edges": [[u, v, m] for (u, v, m) in cut],
        "components": entries,
    }
    cond = GateVerdict(
        TREE_CUT, True, certificate, tuple(dict.fromkeys(assumptions))
    )
    return plain_fail or cond, cond


def gate_tree(d, *, cut_edges=None):
    """Cut all label >= 6 edges of a tree; components must be spherical,
    locally reducible, or AffC chains. `cut_edges` overrides the cut set
    (any subset of the label >= 6 edges), for soundness experiments."""
    return _tree_verdicts(d, cut_edges)[0]


def gate_tree_conditional(d, *, cut_edges=None):
    """As gate_tree but affine components are allowed; affine families
    without a verified local structure theory contribute two conditional
    assumptions each."""
    return _tree_verdicts(d, cut_edges)[1]


# -- induced cycles -----------------------------------------------------------


def induced_cycles(d):
    """All induced cycles, smallest first, each as an ordered vertex tuple.

    A depth-first search from each root grows induced paths through
    vertices declared after it, never stepping onto a neighbor of an
    interior path vertex, so a step back next to the root closes a chordless
    cycle. Each cycle is kept in one direction: from its first-declared
    vertex towards the earlier-declared of that vertex's two neighbors.
    Cycles come sorted by size, then by their declaration indices.
    """
    out = []
    if len(d.edges) == d.rank - len(d.components()):  # a forest
        return out
    index, adj = d._index, d._adj

    def grow(path, blocked):
        for w in adj[path[-1]]:
            if w in blocked or index[w] < index[path[0]]:
                continue
            if path[0] in adj[w]:
                if index[path[1]] < index[w]:
                    out.append(tuple(path) + (w,))
            else:
                grow(path + [w], blocked.union(adj[path[-1]], (w,)))

    for root in d.vertices:
        for first in adj[root]:
            if index[first] > index[root]:
                grow([root, first], {root, first})
    out.sort(key=lambda c: (len(c), sorted(index[v] for v in c)))
    return out


def _link_component(source, removed, anchor):
    """Component of the diagram minus `removed`, as an induced subdiagram
    containing `anchor`."""
    return source.induced(source._reach(anchor, removed))


def _cycle_links(source, cycle, branches, folding):
    """Per-vertex link components of a cycle, admitted branch-wise.

    `cycle` lives in the folding target when `folding` is given, else in
    `source` itself. Returns (entries, assumptions, failure_reason).
    """
    entries = []
    assumptions = []
    for s in cycle:
        fiber = folding.fiber(s) if folding is not None else (s,)
        rest = [t for t in cycle if t != s]
        if folding is not None:
            anchors = [v for t in rest for v in folding.fiber(t)]
        else:
            anchors = rest
        comp = _link_component(source, fiber, anchors[0])
        # consecutive cycle fibers are fully adjacent, so one component
        # carries all remaining fiber vertices
        if not all(comp.has_vertex(v) for v in anchors):
            raise InvariantViolated(
                f"link of {s} does not carry the rest of the cycle"
            )
        hit, cls = _admit(comp, branches, folding)
        if hit is None:
            why = _refusal(comp, cls, branches)
            return None, None, f"cycle [{', '.join(cycle)}], vertex {s}: {why}"
        tag, name, extra = hit
        entry = {
            "vertex": s,
            "component": list(comp.vertices),
            "branch": tag,
            "type": name,
        }
        if folding is not None:
            entry["fiber"] = list(fiber)
        entries.append(entry)
        assumptions.extend(extra)
    return entries, tuple(dict.fromkeys(assumptions)), None


_CYCLE_BRANCHES = ("spherical", "locally_reducible", "affine_chain", "affine")


def _single_cycle(d, cycle):
    """(verdict, None) when the links of the induced cycle are all
    admitted, else (None, failure text)."""
    entries, assumptions, fail = _cycle_links(d, cycle, _CYCLE_BRANCHES, None)
    if fail is not None:
        return None, fail
    certificate = {"cycle": list(cycle), "links": entries}
    return GateVerdict(SINGLE_CYCLE, True, certificate, assumptions), None


def gate_cycle(d):
    """Search induced cycles whose per-vertex complement components are
    trees of spherical / locally reducible (unconditional) or affine
    (conditional) type."""
    bad = _reject(d, connected=True)
    if bad:
        return GateVerdict(SINGLE_CYCLE, False, failure_reason=bad)
    cycles = induced_cycles(d)
    if not cycles:
        return GateVerdict(SINGLE_CYCLE, False, failure_reason="NoInducedCycle")
    first_fail = None
    conditional = None
    for cycle in cycles:
        verdict, fail = _single_cycle(d, cycle)
        if verdict is None:
            first_fail = first_fail or fail
        elif not verdict.conditional_assumptions:
            return verdict
        elif conditional is None:
            conditional = verdict
    return conditional or GateVerdict(
        SINGLE_CYCLE, False, failure_reason=first_fail
    )


# -- folded search ------------------------------------------------------------

_FOLDED_BRANCHES = (
    "spherical",
    "folded_cycle",
    "affine_chain",
    "locally_reducible",
)


def _merge_candidates(t):
    """Vertex pairs of the target mergeable into a coarser special folding:
    equal nonempty labeled neighborhoods, in sorted order. Such vertices are
    never adjacent (a vertex lies in its neighbors' neighborhoods, not in its
    own), so they lie at distance exactly 2."""
    groups = {}
    for v in sorted(t.vertices):
        if t._adj[v]:
            groups.setdefault(frozenset(t._adj[v].items()), []).append(v)
    return sorted(pair for grp in groups.values() for pair in combinations(grp, 2))


def _partition_key(groups):
    return frozenset(frozenset(g) for g in groups)


def _folding_json(f):
    return {
        "fibers": [list(f.fiber(w)) for w in f.target.vertices],
        "target": {
            "vertices": list(f.target.vertices),
            "edges": [[u, v, m] for (u, v, m) in f.target.edges],
        },
    }


def _folded_cycle(d, folding, cycle):
    """(verdict, None) when the links of the induced cycle of the folding
    target are all admitted, else (None, failure text)."""
    entries, assumptions, fail = _cycle_links(d, cycle, _FOLDED_BRANCHES, folding)
    if fail is not None:
        return None, fail
    if assumptions:
        raise InvariantViolated("folded branches admit no assumptions")
    certificate = {
        "folding": _folding_json(folding),
        "cycle": list(cycle),
        "links": entries,
    }
    return GateVerdict(FOLDED_CYCLE, True, certificate), None


def gate_folded(d, *, max_candidates=DEFAULT_FOLDING_BUDGET):
    """Bounded search over vertex-identifying quotients and induced cycles
    of their targets; every admitted branch is unconditional.

    Raises SearchBudgetExceeded when the candidate cap cuts the search off
    before exhaustion without finding an applicable pair, so "not found"
    is never silently conflated with "refuted".
    """
    bad = _reject(d, connected=True)
    if bad:
        return GateVerdict(FOLDED_CYCLE, False, failure_reason=bad)
    seen = {_partition_key([(v,) for v in d.vertices])}
    queue = deque([dynkin.identity_folding(d)])
    produced = 1
    truncated = False
    first_fail = None
    saw_cycle = False
    while queue:
        f = queue.popleft()
        target = f.target
        for cycle in induced_cycles(target):
            saw_cycle = True
            verdict, fail = _folded_cycle(d, f, cycle)
            if verdict is not None:
                return verdict
            first_fail = first_fail or fail
        for x, y in _merge_candidates(target):
            groups = []
            merged = f.fiber(x) + f.fiber(y)
            for w in target.vertices:
                if w == x:
                    groups.append(merged)
                elif w != y:
                    groups.append(f.fiber(w))
            key = _partition_key(groups)
            if key in seen:
                continue
            if produced >= max_candidates:
                truncated = True
                continue
            try:
                g = dynkin.quotient_folding(d, groups)
            except InvalidFolding:
                continue
            seen.add(key)
            produced += 1
            queue.append(g)
    if truncated:
        raise SearchBudgetExceeded(max_candidates)
    if first_fail is not None:
        reason = f"exhausted {produced} candidate foldings; {first_fail}"
    elif saw_cycle:
        reason = f"exhausted {produced} candidate foldings"
    else:
        reason = (
            f"exhausted {produced} candidate foldings;"
            " NoInducedCycle in any quotient"
        )
    return GateVerdict(FOLDED_CYCLE, False, failure_reason=reason)


# -- base case and componentwise reduction -------------------------------------


def gate_spherical(d):
    """Base case: a connected diagram of spherical type."""
    bad = _reject(d, connected=True)
    if bad:
        return GateVerdict(SPHERICAL_BASE, False, failure_reason=bad)
    cls = dynkin.classify(d)
    if cls.is_spherical:
        return GateVerdict(SPHERICAL_BASE, True, {"type": cls.name})
    return GateVerdict(SPHERICAL_BASE, False, failure_reason=f"classified {cls}")


def _pick(verdicts):
    """Preferred applicable verdict: unconditional first, else conditional."""
    for v in verdicts:
        if v.applicable and not v.conditional_assumptions:
            return v
    for v in verdicts:
        if v.applicable:
            return v
    return None


def gate_fc_reduction(d):
    """Reduce a disconnected diagram componentwise: applicable when every
    component admits some applicable gate (absent edges commute, so the
    group splits as a direct product over components)."""
    bad = _reject(d)
    if bad:
        return GateVerdict(FC_REDUCTION, False, failure_reason=bad)
    comps = d.components()
    if len(comps) < 2:
        return GateVerdict(
            FC_REDUCTION, False, failure_reason="diagram is connected"
        )
    entries = []
    assumptions = []
    for verts in comps:
        comp = d.induced(verts)
        pick = _pick(gate_all(comp))
        if pick is None:
            return GateVerdict(
                FC_REDUCTION,
                False,
                failure_reason=(
                    f"component [{', '.join(verts)}] admits no applicable gate"
                ),
            )
        entries.append(
            {
                "vertices": list(verts),
                "theorem": pick.theorem,
                "conditional": list(pick.conditional_assumptions),
            }
        )
        assumptions.extend(pick.conditional_assumptions)
    return GateVerdict(
        FC_REDUCTION,
        True,
        {"components": entries},
        tuple(dict.fromkeys(assumptions)),
    )


def gate_all(d):
    """Every gate in a stable order; the tree slot reports the plain gate
    when it applies and the conditional variant otherwise."""
    plain, cond = _tree_verdicts(d)
    out = [gate_spherical(d), cond if cond.applicable else plain, gate_cycle(d)]
    try:
        out.append(gate_folded(d))
    except SearchBudgetExceeded as exc:
        why = f"search budget exceeded ({exc.budget} candidate foldings)"
        out.append(GateVerdict(FOLDED_CYCLE, False, failure_reason=why))
    out.append(gate_fc_reduction(d))
    return out


# -- certificate re-validation --------------------------------------------------


def _is_induced_cycle(d, cycle):
    n = len(cycle)
    if n < 3 or len(set(cycle)) != n or not all(map(d.has_vertex, cycle)):
        return False
    # cycle[i] and cycle[j], i < j, are adjacent iff j - i is 1 or n - 1
    return all(d.has_edge(cycle[i], cycle[j]) == (j - i in (1, n - 1))
               for i, j in combinations(range(n), 2))


def revalidate(d, verdict):
    """Re-run the gate's admission step on the recorded candidate and
    compare the whole verdict with the one given.

    SphericalBase and FCReduction have no candidate: their gate runs again.
    A TreeCut re-admits the components of its recorded cut, a SingleCycle
    its recorded cycle (which must be an induced cycle of d), and a
    FoldedCycle its recorded cycle in the quotient by its recorded fibres.
    So every recorded branch must be the first branch that admits its
    component, and the assumptions must be the ones the step derives. A
    cut edge that d lacks or whose label is below 6, or fibres that make no
    valid folding, give False; InvariantViolated propagates.
    """
    if not verdict.applicable or verdict.certificate is None:
        return False
    cert = verdict.certificate
    if verdict.theorem == SPHERICAL_BASE:
        return gate_spherical(d) == verdict
    if verdict.theorem == FC_REDUCTION:
        return gate_fc_reduction(d) == verdict
    if verdict.theorem == TREE_CUT:
        try:
            return _tree_verdicts(d, cert["cut_edges"])[1] == verdict
        except ValueError:
            return False
    if verdict.theorem not in (SINGLE_CYCLE, FOLDED_CYCLE) or _reject(d, True):
        return False
    cycle = tuple(cert["cycle"])
    if verdict.theorem == SINGLE_CYCLE:
        return _is_induced_cycle(d, cycle) and _single_cycle(d, cycle)[0] == verdict
    fibers = [tuple(g) for g in cert["folding"]["fibers"]]
    try:
        f = dynkin.quotient_folding(d, fibers)
    except (InvalidFolding, SubgraphNotInDiagram, ValueError):
        return False
    return (_is_induced_cycle(f.target, cycle)
            and _folded_cycle(d, f, cycle)[0] == verdict)
