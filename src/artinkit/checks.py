"""Verifiers for combinatorial conditions on complex balls.

All verdicts are one-sided. A finite ball never refutes an existence claim:
missing fillers or midpoints only downgrade to UNRESOLVED, because the
witnessing cosets may have arbitrarily deep chambers. COUNTEREXAMPLE is
reserved for local axiom violations among inner vertices, where the fixed
margin guarantees the relevant structure is fully enumerated. `_verdict`
holds the one scope rule: no check says VERIFIED at inner radius below 1.

A filler or middle is adjacent to every corner, so it is searched among the
corners' common neighbours only: the chosen one is the least by (witness
size, vertex id) among those of an allowed type.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice

from . import dynkin
from .errors import InvariantViolated, NotAdmissible, NotATree

VERIFIED = "VERIFIED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
UNRESOLVED = "UNRESOLVED"

DEFAULT_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class CheckVerdict:
    check: str
    status: str
    parameters: tuple  # sorted (key, value) pairs
    witnesses: tuple
    truncated: bool = False

    def parameter(self, key):
        return dict(self.parameters)[key]

    def to_json(self):
        return {
            "check": self.check,
            "status": self.status,
            "parameters": {k: v for k, v in self.parameters},
            "witnesses": [list(w) if isinstance(w, tuple) else w
                          for w in self.witnesses],
            "truncated": self.truncated,
        }

    def render(self):
        params = " ".join(f"{k}={v}" for k, v in self.parameters)
        lines = [f"{self.check}: {self.status} ({params})"]
        if self.truncated:
            cap = "sample" if self.check == "order" else "cycle"
            lines.append(f"  note: enumeration truncated at the {cap} cap")
        for w in self.witnesses[:20]:
            lines.append(f"  witness: {w}")
        if len(self.witnesses) > 20:
            lines.append(f"  ... {len(self.witnesses) - 20} more")
        return "\n".join(lines)


def _verdict(check, ball, params, *, problems=(), unresolved=(), resolved=(),
             truncated=False):
    """The one scope rule of every check's status. COUNTEREXAMPLE with the
    problems, if there are any; otherwise UNRESOLVED with the unresolved
    instances, if there are any; otherwise UNRESOLVED with no witnesses if
    the scan was truncated or the ball is thin, its inner radius
    effective_bound - margin below 1 (its inner vertices are then at most
    one chamber's); otherwise VERIFIED with the resolved instances.
    `params` are the check's own parameters, beside the ball's."""
    if problems:
        status, witnesses = COUNTEREXAMPLE, problems
    elif unresolved:
        status, witnesses = UNRESOLVED, unresolved
    elif truncated or ball.effective_bound - ball.margin < 1:
        status, witnesses = UNRESOLVED, ()
    else:
        status, witnesses = VERIFIED, resolved
    params = {**params, "bound": ball.bound,
              "effective_bound": ball.effective_bound, "margin": ball.margin}
    return CheckVerdict(check=check, status=status,
                        parameters=tuple(sorted(params.items())),
                        witnesses=tuple(witnesses), truncated=truncated)


# -- girth ---------------------------------------------------------------------


def _girth(adj, nodes):
    """Length of the shortest cycle in the subgraph on `nodes`, or None."""
    nodes = sorted(nodes)
    nodeset = set(nodes)
    best = None
    for root in nodes:
        dist = {root: 0}
        parent = {root: None}
        q = deque([root])
        while q:
            x = q.popleft()
            if best is not None and 2 * dist[x] + 1 >= best:
                break
            for y in adj[x]:
                if y not in nodeset:
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y:
                    c = dist[x] + dist[y] + 1
                    if best is None or c < best:
                        best = c
    return best


def girth_report(ball, types=None):
    """(shortest all-inner cycle, upper bound from any cycle found).

    The upper bound is certified: a cycle in the ball is a cycle of the
    full complex. No lower bound is certified; boundary vertices may hide
    shorter cycles, which is why the first component ranges over inner
    vertices only.
    """
    if types is None:
        types = ball.types
    types = [s for s in ball.types if s in set(types)]
    if len(types) > 2:
        raise ValueError("girth_report wants at most two vertex types")
    if len(types) < 2:
        return (None, None)
    chosen = {v.id for v in ball.vertices if v.type in types}
    adj = {v: ball.neighbors(v) for v in chosen}
    inner = chosen & ball.inner
    shortest_inner = _girth(adj, inner)
    upper = shortest_inner
    if len(chosen) <= 4000:
        overall = _girth(adj, chosen)
        if overall is not None and (upper is None or overall < upper):
            upper = overall
    return (shortest_inner, upper)


# -- induced 4-cycles ----------------------------------------------------------


@dataclass(frozen=True)
class CycleScan:
    cycles: tuple  # of (x1, y1, x2, y2), cycle order, diagonals (x,x),(y,y)
    truncated: bool

    def __iter__(self):
        return iter(self.cycles)

    def __len__(self):
        return len(self.cycles)


def find_induced_4cycles(ball, max_cycles=DEFAULT_MAX_CYCLES):
    """All induced 4-cycles on inner vertices, canonically ordered.

    A tuple (x1, y1, x2, y2) walks the cycle; the diagonals (x1,x2) and
    (y1,y2) are non-edges. x1 is the least vertex and y1 < y2. Only
    all-inner cycles are reported: diagonal absence is truncation-robust
    there by the margin rule.
    """
    inner = sorted(ball.inner)
    nbrs = {v: set(ball.neighbors(v)) & ball.inner for v in inner}
    cycles = []
    truncated = False
    for x1 in inner:
        # candidate opposite vertices share two neighbors with x1
        seconds = {}
        for y in sorted(nbrs[x1]):
            if y <= x1:
                continue
            for x2 in sorted(nbrs[y]):
                if x2 > x1 and x2 not in nbrs[x1]:
                    seconds.setdefault(x2, []).append(y)
        for x2 in sorted(seconds):
            ys = seconds[x2]
            for i in range(len(ys)):
                for j in range(i + 1, len(ys)):
                    y1, y2 = ys[i], ys[j]
                    if y2 in nbrs[y1]:
                        continue  # diagonal present: not induced
                    cycles.append((x1, y1, x2, y2))
                    if len(cycles) >= max_cycles:
                        truncated = True
                        return CycleScan(tuple(cycles), truncated)
    return CycleScan(tuple(cycles), truncated)


# -- labeled 4-wheel -----------------------------------------------------------


def _filler(ball, corners, allowed):
    """The least common neighbour of the corners, by (witness size, id),
    whose type is in `allowed`; None if there is none. No corner is its own
    neighbour, so no corner is ever chosen."""
    common = set(ball.neighbors(corners[0]))
    for v in corners[1:]:
        common.intersection_update(ball.neighbors(v))
    return min((z for z in common if ball.vertex(z).type in allowed),
               key=lambda z: (ball.vertex(z).witness.size, z), default=None)


def check_labeled_4wheel(ball, tree=None, max_cycles=DEFAULT_MAX_CYCLES):
    """Every induced 4-cycle needs an all-adjacent vertex whose type lies
    in the smallest subtree of the type tree spanning the cycle's types."""
    if tree is None:
        tree = ball.type_diagram
    if not tree.is_tree():
        raise NotATree("the labeled 4-wheel condition is read over a tree")
    scan = find_induced_4cycles(ball, max_cycles)
    filled = []
    unfilled = []
    subtrees = {}  # a cycle's type set -> the types allowed to fill it
    for cyc in scan.cycles:
        types = frozenset(ball.vertex(v).type for v in cyc)
        if types not in subtrees:
            subtrees[types] = set(dynkin.smallest_subtree(tree, types).vertices)
        hit = _filler(ball, cyc, subtrees[types])
        if hit is None:
            unfilled.append(cyc)
        else:
            filled.append((cyc, hit))
    return _verdict("4wheel", ball,
                    {"cycles": len(scan.cycles), "unfilled": len(unfilled)},
                    unresolved=unfilled, resolved=filled,
                    truncated=scan.truncated)


# -- linear-type partial order ---------------------------------------------------


@dataclass(frozen=True)
class LinearOrderResult:
    orientation: tuple
    pairs: frozenset  # ordered (lower id, higher id) over inner vertices
    verdict: CheckVerdict


def _check_orientation(ball, orientation):
    if orientation is None:
        raise NotAdmissible(
            "orientation required: the type diagram is not a path")
    orientation = tuple(orientation)
    if len(set(orientation)) != len(orientation) or not orientation:
        raise NotAdmissible("orientation must list distinct types")
    if any(s not in ball.types for s in orientation):
        raise NotAdmissible("orientation must use the ball's vertex types")
    d = ball.type_diagram
    if d.induced(orientation).path_order() not in (list(orientation),
                                                   list(reversed(orientation))):
        raise NotAdmissible(
            f"types {','.join(orientation)} do not walk an induced path")
    if not dynkin.is_admissible(d, set(orientation)):
        raise NotAdmissible("type path is not an admissible subgraph")
    return orientation


def linear_order(ball, orientation, sample_cap=4000):
    """Order x < y iff x, y adjacent and the type of x precedes the type
    of y in the orientation. Restricted to inner vertices; the axioms are
    verified there: transitivity (x < y < z needs the edge x–z) and sampled
    gradedness. A missing edge or midpoint leaves the order UNRESOLVED."""
    orientation = _check_orientation(ball, orientation)
    rank = {s: i for i, s in enumerate(orientation)}
    inner = sorted(v for v in ball.inner
                   if ball.vertex(v).type in rank)
    innerset = set(inner)
    pairs = set()
    for i in inner:  # each edge from its end of lower rank
        ri = rank[ball.vertex(i).type]
        pairs.update((i, j) for j in ball.neighbors(i) if j in innerset
                     and rank[ball.vertex(j).type] > ri)
    problems, unresolved = [], []
    up = {}
    down = {}
    for x, y in pairs:
        up.setdefault(x, set()).add(y)
        down.setdefault(y, set()).add(x)
    # antisymmetry is structural (ranks strictly increase); verify anyway
    for x, y in pairs:
        if (y, x) in pairs:
            problems.append(("antisymmetry", x, y))
    for y in inner:  # x < y < z: x < z, an edge the ball may not reach
        for x in down.get(y, ()):
            for z in up.get(y, ()):
                if not ball.has_edge(x, z):
                    unresolved.append(("transitivity", x, y, z))
    # gradedness on rank gaps of 2: a midpoint exists below the margin
    gap_pairs = [(x, y) for (x, y) in sorted(pairs)
                 if rank[ball.vertex(y).type] - rank[ball.vertex(x).type] == 2]
    truncated = len(gap_pairs) > sample_cap
    if truncated:
        step = len(gap_pairs) // sample_cap + 1
        gap_pairs = gap_pairs[::step]
    for x, y in gap_pairs:
        mid_rank = rank[ball.vertex(x).type] + 1
        mids = [z for z in set(ball.neighbors(x)) & set(ball.neighbors(y))
                if ball.vertex(z).type in rank
                and rank[ball.vertex(z).type] == mid_rank]
        if not mids:
            unresolved.append(("gradedness", x, y))
    # a sampled gradedness check proves nothing about the unsampled pairs
    verdict = _verdict("order", ball,
                       {"orientation": "<".join(orientation),
                        "ordered_pairs": len(pairs),
                        "graded_samples": len(gap_pairs)},
                       problems=sorted(problems), unresolved=sorted(unresolved),
                       truncated=truncated)
    return LinearOrderResult(
        orientation=orientation, pairs=frozenset(pairs), verdict=verdict)


# -- bowtie-free ------------------------------------------------------------------


def check_bowtie_free(ball, orientation, max_bowties=DEFAULT_MAX_CYCLES):
    """Enumerate bowties {x1,x2} < {y1,y2} over inner vertices and search
    for a middle z with x_i <= z <= y_j for all i, j. The order's problems
    are the verdict's; its unresolved instances come before the bowties'."""
    order = linear_order(ball, orientation)
    if order.verdict.status == COUNTEREXAMPLE:
        return _verdict("bowtie", ball, dict(order.verdict.parameters),
                        problems=order.verdict.witnesses)
    pairs = order.pairs
    rank = {s: i for i, s in enumerate(order.orientation)}
    lower = {}
    for x, y in pairs:
        lower.setdefault(y, set()).add(x)
    ys = sorted(lower)
    quads = ((x1, x2, y1, y2) for y1, y2 in combinations(ys, 2)
             for x1, x2 in combinations(sorted(lower[y1] & lower[y2]), 2))
    bowties = list(islice(quads, max_bowties))
    truncated = len(bowties) >= max_bowties
    resolved = []
    unresolved = []
    nontrivial = 0
    for x1, x2, y1, y2 in bowties:
        quad = (x1, x2, y1, y2)
        # a comparable pair of corners makes one corner a middle already
        degenerate = None
        if (x1, x2) in pairs:
            degenerate = x2
        elif (x2, x1) in pairs:
            degenerate = x1
        elif (y1, y2) in pairs:
            degenerate = y1
        elif (y2, y1) in pairs:
            degenerate = y2
        if degenerate is not None:
            resolved.append((quad, degenerate))
            continue
        nontrivial += 1
        lo = max(rank[ball.vertex(x).type] for x in (x1, x2))
        hi = min(rank[ball.vertex(y).type] for y in (y1, y2))
        hit = _filler(ball, quad, order.orientation[lo + 1:hi])
        if hit is None:
            unresolved.append(quad)
        else:
            resolved.append((quad, hit))
    return _verdict("bowtie", ball,
                    {"orientation": "<".join(order.orientation),
                     "bowties": len(bowties), "nontrivial": nontrivial,
                     "unresolved": len(unresolved)},
                    unresolved=[*order.verdict.witnesses, *unresolved],
                    resolved=resolved, truncated=truncated)


def wheel_fillers_from_bowties(ball, orientation, bowtie_verdict):
    """Reinterpret bowtie middles as labeled-4-wheel fillers.

    For a linear type path, a 4-cycle alternating between the end types is
    a bowtie whose middle z is adjacent to all four corners with a type
    strictly between; that type lies on the tree path, so z fills the
    wheel. Returns the derived (cycle, filler) list.
    """
    if bowtie_verdict.status != VERIFIED:
        return []
    rank = {s: i for i, s in enumerate(orientation)}
    derived = []
    for quad, z in bowtie_verdict.witnesses:
        x1, x2, y1, y2 = quad
        if z in quad:
            continue
        # the bowtie is a 4-cycle exactly when its diagonals are absent
        if ball.has_edge(x1, x2) or ball.has_edge(y1, y2):
            continue
        lo = rank[ball.vertex(x1).type]
        hi = rank[ball.vertex(y1).type]
        zr = rank[ball.vertex(z).type]
        if not lo < zr < hi:
            raise InvariantViolated(
                "bowtie middle type must lie strictly between the end types")
        derived.append(((x1, y1, x2, y2), z))
    return derived
