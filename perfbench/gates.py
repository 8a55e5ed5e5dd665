"""gates: the `artinkit gate` command over a generated directory.

The directory holds every spherical family (A1-A8, B2-B8, D4-D8, E6-E8,
F4, H3, H4, I2(5), I2(6)) and every affine family of rank at most 8,
the 19 corpus files, and seeded random labeled trees and one-cycle diagrams
of rank 4 to 10 with labels 3/4/5/6/inf (see `_random_diagrams`).
Each diagram is written twice, under two seeded namings with different
declaration orders. One round is one in-process
`artinkit.cli.main(["gate", <dir>, "--format", "json"])`.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from artinkit import cli, dynkin, theorem_gate

INF = "inf"
RANKS = range(4, 11)
PER_SHAPE = 10  # finite-label trees, and one-cycle diagrams, of each rank
LABELS = (3, 3, 3, 3, 4, 4, 5, 6)

PATCHES = (
    (dynkin, "parse_diagram", "dynkin.parse"),
    (theorem_gate, "gate_all", "theorem_gate.gate_all"),
    (theorem_gate, "gate_spherical", "theorem_gate.gate_spherical"),
    (theorem_gate, "gate_tree", "theorem_gate.gate_tree"),
    (theorem_gate, "gate_cycle", "theorem_gate.gate_cycle"),
    (theorem_gate, "gate_folded", "theorem_gate.gate_folded"),
    (theorem_gate, "gate_fc_reduction", "theorem_gate.gate_fc_reduction"),
)


def _path(labels):
    return len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)]


def _tripod(a, b, c):
    """Star of three paths with a, b, c vertices around vertex 0."""
    edges, n = [], 1
    for leg in (a, b, c):
        prev = 0
        for _ in range(leg):
            edges.append((prev, n, 3))
            prev, n = n, n + 1
    return n, edges


def _forked(n, right):
    """Two leaves on a chain end; at the other end a 4 (right="4") or a
    second pair of leaves (right="fork"). n vertices in all."""
    chain = n - 2 if right == "4" else n - 4
    edges = [(0, 2, 3), (1, 2, 3)]
    edges += [(2 + i, 3 + i, 3) for i in range(chain - 1)]
    if right == "4":
        u, v, _ = edges[-1]
        edges[-1] = (u, v, 4)
    else:
        end = 1 + chain
        edges += [(end, n - 2, 3), (end, n - 1, 3)]
    return n, edges


def _families():
    """(name, kind, (vertex count, edges over vertex indices))."""
    out = []
    for n in range(1, 9):
        out.append((f"A{n}", "spherical", _path([3] * (n - 1))))
    for n in range(2, 9):
        out.append((f"B{n}", "spherical", _path([4] + [3] * (n - 2))))
    for n in range(4, 9):
        out.append((f"D{n}", "spherical", _tripod(1, 1, n - 3)))
    for name, legs in (("E6", (1, 2, 2)), ("E7", (1, 2, 3)),
                       ("E8", (1, 2, 4))):
        out.append((name, "spherical", _tripod(*legs)))
    out += [("F4", "spherical", _path([3, 4, 3])),
            ("H3", "spherical", _path([5, 3])),
            ("H4", "spherical", _path([5, 3, 3])),
            ("I2_5", "spherical", _path([5])),
            ("I2_6", "spherical", _path([6]))]
    out.append(("AffA1", "affine", _path([INF])))
    for n in range(2, 9):
        out.append((f"AffA{n}", "affine",
                    (n + 1, [(i, (i + 1) % (n + 1), 3) for i in range(n + 1)])))
    for n in range(3, 9):
        out.append((f"AffB{n}", "affine", _forked(n + 1, "4")))
    for n in range(2, 9):
        out.append((f"AffC{n}", "affine", _path([4] + [3] * (n - 2) + [4])))
    out.append(("AffD4", "affine", (5, [(0, i, 3) for i in range(1, 5)])))
    for n in range(5, 9):
        out.append((f"AffD{n}", "affine", _forked(n + 1, "fork")))
    out += [("AffE6", "affine", _tripod(2, 2, 2)),
            ("AffE7", "affine", _tripod(1, 3, 3)),
            ("AffE8", "affine", _tripod(1, 2, 5)),
            ("AffF4", "affine", _path([3, 3, 4, 3])),
            ("AffG2", "affine", _path([6, 3]))]
    return out


def _random_diagrams(rng):
    """PER_SHAPE finite-label trees and one-cycle diagrams of each rank, and
    one more of each with a single inf edge.

    Gating a diagram with an inf label stops at once, so a fixed number of
    them, rather than a random one, keeps the work of a round steady
    across seeds.
    """
    out = []
    for n in RANKS:
        for shape in ("tree", "cycle"):
            for k in range(PER_SHAPE + 1):
                if shape == "cycle":
                    c = rng.randint(3, n)
                    edges = [(i, (i + 1) % c, rng.choice(LABELS))
                             for i in range(c)]
                else:
                    c, edges = 1, []
                edges += [(rng.randrange(i), i, rng.choice(LABELS))
                          for i in range(c, n)]
                if k == PER_SHAPE:
                    u, v, _ = edges.pop(rng.randrange(len(edges)))
                    edges.append((u, v, INF))
                out.append((f"{shape}{n}_{k}", "random", (n, edges)))
    return out


def _corpus(root):
    """Corpus files as (name, kind, (vertex count, edges))."""
    out = []
    for path in sorted((root / "tests" / "corpus").glob("*.dyn")):
        names, edges = [], []
        for line in path.read_text(encoding="utf-8").splitlines():
            toks = line.split()
            if toks and toks[0] == "vertices":
                names = toks[1:]
            elif toks and toks[0] == "edge":
                m = toks[3] if toks[3] == INF else int(toks[3])
                edges.append((names.index(toks[1]), names.index(toks[2]), m))
        out.append((f"corpus_{path.stem}", "corpus", (len(names), edges)))
    return out


def _text(names, order, edges):
    lines = ["vertices " + " ".join(names[i] for i in order)]
    lines += [f"edge {names[u]} {names[v]} {m}" for u, v, m in edges]
    return "\n".join(lines) + "\n"


def setup(seed, root, out):
    rng = random.Random(seed)
    diagrams = _families() + _corpus(root) + _random_diagrams(rng)
    target = out / "gates"
    target.mkdir(parents=True, exist_ok=True)
    for old in target.glob("*.dyn"):
        old.unlink()
    files = {}
    for name, kind, (n, edges) in diagrams:
        pair = []
        for naming in "xy":
            names = [f"{naming}{k}" for k in rng.sample(range(100), n)]
            order = list(range(n))
            if naming == "y":
                rng.shuffle(order)
            path = target / f"{name}.{naming}.dyn"
            path.write_text(_text(names, order, edges), encoding="utf-8")
            pair.append(str(path))
        files[name] = (kind, pair)
    return {"dir": str(target), "files": files, "first": None}


def run_round(state, tr):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.gate", cli.main,
                       ["gate", state["dir"], "--format", "json"])
    return code, buf.getvalue()


def _verdict(row):
    return theorem_gate.GateVerdict(
        row["theorem"], row["applicable"], row["certificate"],
        tuple(row["conditional"]), row["reason"])


def _file_ok(kind, path, row, other):
    if row is None or other is None:
        return False
    hits = {v["theorem"] for v in row["verdicts"] if v["applicable"]}
    if (row["overall"] != other["overall"] or hits != {
            v["theorem"] for v in other["verdicts"] if v["applicable"]}):
        return False
    if kind == "spherical" and theorem_gate.SPHERICAL_BASE not in hits:
        return False
    if kind == "affine" and theorem_gate.SPHERICAL_BASE in hits:
        return False
    d = dynkin.parse_diagram(Path(path).read_text(encoding="utf-8"))
    return all(theorem_gate.revalidate(d, _verdict(v))
               for v in row["verdicts"] if v["applicable"])


def referee(state, out, tally):
    """One operation per file and one for the exit code. The first round is
    refereed in full; later rounds must repeat its output exactly."""
    if state["first"] is None:
        code, text = out
        rows = {row["path"]: row for row in json.loads(text)}
        exits = {"applicable": cli.EXIT_OK,
                 "conditional": cli.EXIT_UNRESOLVED,
                 "none": cli.EXIT_NO_GATE}
        oks = {"exit": code == max(exits[r["overall"]] for r in rows.values())}
        for name, (kind, (p, q)) in state["files"].items():
            oks[p] = _file_ok(kind, p, rows.get(p), rows.get(q))
            oks[q] = _file_ok(kind, q, rows.get(q), rows.get(p))
        state["first"] = (out, oks)
    first, oks = state["first"]
    for what, ok in oks.items():
        tally.op(ok and out == first, what)
