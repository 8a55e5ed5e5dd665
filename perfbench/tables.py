"""tables: cold builds of the finite Coxeter and Garside tables.

One round builds, for each of A3, B3, H3, A4 and D4 under two declaration
orders (as listed and reversed), the Coxeter enumeration, the Garside table,
the Coxeter complex and the apartment. Vertex names are single letters drawn
from the seed, fresh for every build, so no build finds the program's
per-diagram caches warm. B4 (about 47 s) and F4 (does not finish) are left
out to keep a run short.
"""

import math
import random
from itertools import combinations

from artinkit import complexes, coxeter, dynkin
from artinkit import garside as ga

# name: (edges over declaration indices, degrees of the group)
TYPES = {
    "A3": (((0, 1, 3), (1, 2, 3)), (2, 3, 4)),
    "B3": (((0, 1, 4), (1, 2, 3)), (2, 4, 6)),
    "H3": (((0, 1, 5), (1, 2, 3)), (2, 6, 10)),
    "A4": (((0, 1, 3), (1, 2, 3), (2, 3, 3)), (2, 3, 4, 5)),
    "D4": (((0, 1, 3), (0, 2, 3), (0, 3, 3)), (2, 4, 4, 6)),
}
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# |W| of the connected diagrams of rank <= 3 that occur as parabolic
# subgroups here, keyed by (rank, sorted labels)
_PARABOLIC_ORDER = {(1, ()): 2, (3, (3, 3)): 24, (3, (3, 4)): 48,
                    (3, (3, 5)): 120}

PATCHES = ()


def setup(seed, root, out):
    return {"rng": random.Random(seed), "used": set()}


def _fresh_diagram(state, name, reverse):
    edges, degrees = TYPES[name]
    rank = len(degrees)
    while True:
        names = state["rng"].sample(LETTERS, rank)
        verts = names[::-1] if reverse else names
        key = (tuple(verts), name)
        if key not in state["used"]:
            state["used"].add(key)
            break
    return dynkin.diagram(verts, [(names[u], names[v], m)
                                  for u, v, m in edges])


def run_round(state, tr):
    builds = []
    for name in TYPES:
        for reverse in (False, True):
            d = _fresh_diagram(state, name, reverse)
            elems = tr.call(f"coxeter.enumerate.{name}",
                            coxeter.enumerate_group, d, ga.MAX_TABLE)
            table = tr.call(f"garside.table.{name}", ga.table, d)
            cc = tr.call("complexes.coxeter_complex",
                         complexes.build_coxeter_complex, d)
            ap = tr.call("complexes.apartment", complexes.apartment_cycle, d)
            tr.count("coxeter.elements", len(elems))
            builds.append((name, d, elems, table, cc, ap))
    return builds


def _order(d, verts):
    """|W_T| for T = verts, from the components' types."""
    sub = d.induced(verts)
    total = 1
    for comp in sub.components():
        labels = tuple(sorted(m for u, v, m in sub.edges if u in comp))
        if len(comp) == 2:
            total *= 2 * labels[0]
        else:
            total *= _PARABOLIC_ORDER[(len(comp), labels)]
    return total


def referee(state, builds, tally):
    for name, d, elems, table, cc, ap in builds:
        degrees = TYPES[name][1]
        size = math.prod(degrees)
        top = sum(k - 1 for k in degrees)
        # Poincaré series: sum over W of q^length = prod (1 + q + ... + q^(k-1))
        series = [1]
        for k in degrees:
            nxt = [0] * (len(series) + k - 1)
            for i, c in enumerate(series):
                for j in range(k):
                    nxt[i + j] += c
            series = nxt
        got = [0] * (top + 1)
        for x in elems:
            if x.length <= top:
                got[x.length] += 1
        tally.op(len(elems) == size and got == series
                 and len({x.word for x in elems}) == size,
                 f"enumerate {name}")
        tally.op(table.n == size and table.length[table.w0i] == top
                 and table.words == [x.word for x in elems], f"table {name}")
        gens = d.vertices
        per_type = {s: size // _order(d, set(gens) - {s}) for s in gens}
        got_types = {s: 0 for s in gens}
        for _, s, _ in cc.vertices:
            got_types[s] += 1
        chi = sum((-1) ** (len(K) - 1) * size // _order(d, set(gens) - set(K))
                  for r in range(1, len(gens) + 1)
                  for K in combinations(gens, r))
        sphere = 1 + (-1) ** (len(gens) - 1)
        tally.op(got_types == per_type and cc.chamber_count == size
                 and chi == sphere and cc.euler_characteristic == sphere,
                 f"coxeter complex {name}")
        tally.op(len(ap.vertices) == sum(per_type.values())
                 and len(ap.edges) == len(cc.edges), f"apartment {name}")
