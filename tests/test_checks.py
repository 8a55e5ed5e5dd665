import hashlib
import json

import pytest

from artinkit import checks as ck
from artinkit import cli
from artinkit import complexes as cpx
from artinkit import dynkin
from artinkit.errors import NotAdmissible, NotATree


def path(names, labels):
    edges = tuple(
        (names[i], names[i + 1], labels[i]) for i in range(len(labels))
    )
    return dynkin.DynkinDiagram(tuple(names), edges)


A2 = path("ab", [3])
A3 = path("abc", [3, 3])
I24 = path("ab", [4])


def ball(d, types, L, **kw):
    return cpx.build_ball(d, types, L, **kw)


def test_girth_dihedral_frozen():
    b3 = ball(A2, ["a", "b"], 6)
    assert ck.girth_report(b3) == (6, 6)
    b4 = ball(I24, ["a", "b"], 5)
    assert ck.girth_report(b4) == (8, 8)


def test_girth_single_type_none():
    b = ball(A2, ["a"], 3)
    assert ck.girth_report(b) == (None, None)


def test_girth_type_restriction():
    b = ball(A3, ["a", "b", "c"], 4)
    # the a/c relative complex has 4-cycles, the full pair types do not
    assert ck.girth_report(b, ["a", "c"]) == (4, 4)
    assert ck.girth_report(b, ["a", "b"])[0] == 6
    with pytest.raises(ValueError):
        ck.girth_report(b, ["a", "b", "c"])


def test_no_4cycles_in_dihedral_balls():
    for m, L in [(3, 6), (4, 5)]:
        d = path("ab", [m])
        b = ball(d, ["a", "b"], L)
        assert len(ck.find_induced_4cycles(b)) == 0


def test_4cycle_scan_frozen_counts_and_shape():
    b = ball(A3, ["a", "b", "c"], 4)
    scan = ck.find_induced_4cycles(b)
    assert len(scan) == 177
    assert not scan.truncated
    for x1, y1, x2, y2 in scan:
        assert x1 == min(x1, y1, x2, y2) and y1 < y2
        assert all(v in b.inner for v in (x1, y1, x2, y2))
        for e in ((x1, y1), (y1, x2), (x2, y2), (y2, x1)):
            assert b.has_edge(*e)
        for diag in ((x1, x2), (y1, y2)):
            assert not b.has_edge(*diag)
        types = [b.vertex(v).type for v in (x1, y1, x2, y2)]
        assert sorted(types) == ["a", "a", "c", "c"]


def test_4cycle_cap_sets_truncated_flag():
    b = ball(A3, ["a", "b", "c"], 4)
    scan = ck.find_induced_4cycles(b, max_cycles=5)
    assert len(scan) == 5
    assert scan.truncated


def test_truncated_scans_are_unresolved():
    b = ball(A3, ["a", "b", "c"], 4)
    wheel = ck.check_labeled_4wheel(b, max_cycles=5)
    assert wheel.truncated and wheel.status == ck.UNRESOLVED
    assert wheel.witnesses == ()
    bowtie = ck.check_bowtie_free(b, ["a", "b", "c"], max_bowties=3)
    assert bowtie.truncated and bowtie.status == ck.UNRESOLVED
    assert "truncated at the cycle cap" in bowtie.render()


def test_4wheel_a3_all_cycles_get_b_fillers():
    b = ball(A3, ["a", "b", "c"], 4)
    v = ck.check_labeled_4wheel(b)
    assert v.status == ck.VERIFIED
    assert v.parameter("cycles") == 177
    assert v.parameter("unfilled") == 0
    for cyc, z in v.witnesses:
        assert b.vertex(z).type == "b"
        zn = set(b.neighbors(z))
        assert all(u in zn for u in cyc)


def test_4wheel_vacuous_on_dihedral():
    b = ball(A2, ["a", "b"], 6)
    v = ck.check_labeled_4wheel(b)
    assert v.status == ck.VERIFIED
    assert v.parameter("cycles") == 0


def test_4wheel_thin_ball_unresolved():
    b = ball(A3, ["a", "b", "c"], 2)
    v = ck.check_labeled_4wheel(b)
    assert v.status == ck.UNRESOLVED


def test_4wheel_requires_tree():
    b = ball(A3, ["a", "b", "c"], 3)
    square = dynkin.DynkinDiagram(
        ("a", "b", "c", "d"),
        (("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)),
    )
    with pytest.raises(NotATree):
        ck.check_labeled_4wheel(b, tree=square)


def test_linear_order_frozen_and_axioms():
    b = ball(A3, ["a", "b", "c"], 4)
    res = ck.linear_order(b, ["a", "b", "c"])
    assert res.verdict.status == ck.VERIFIED
    assert len(res.pairs) == 289
    rank = {"a": 0, "b": 1, "c": 2}
    for x, y in res.pairs:
        assert x in b.inner and y in b.inner
        assert rank[b.vertex(x).type] < rank[b.vertex(y).type]
        assert b.has_edge(x, y)
    # every inner triangle with three distinct types is a 3-chain
    chains = 0
    for x, y in res.pairs:
        if b.vertex(x).type == "a" and b.vertex(y).type == "c":
            mids = [z for z in set(b.neighbors(x)) & set(b.neighbors(y))
                    if b.vertex(z).type == "b"]
            assert mids
            chains += 1
    assert chains


def test_linear_order_sampled_gradedness_is_unresolved():
    b = ball(A3, ["a", "b", "c"], 5)
    full = ck.linear_order(b, ["a", "b", "c"]).verdict
    assert full.status == ck.VERIFIED and not full.truncated
    sampled = ck.linear_order(b, ["a", "b", "c"], sample_cap=1).verdict
    assert sampled.status == ck.UNRESOLVED and sampled.truncated
    assert sampled.parameter("graded_samples") == 1
    assert "truncated at the sample cap" in sampled.render()


def test_linear_order_rejects_bad_orientations():
    b = ball(A3, ["a", "b", "c"], 3)
    with pytest.raises(NotAdmissible):
        ck.linear_order(b, ["a", "c"])  # not adjacent
    with pytest.raises(NotAdmissible):
        ck.linear_order(b, ["a", "b", "b"])
    with pytest.raises(NotAdmissible):
        ck.linear_order(b, ["a", "b", "x"])
    d4 = dynkin.DynkinDiagram(
        ("a", "b", "c", "d"), (("a", "c", 3), ("b", "c", 3), ("c", "d", 3)))
    b4 = ball(d4, ["a", "b"], 2, max_chambers=50000)
    with pytest.raises(NotAdmissible):
        ck.linear_order(b4, ["a", "b"])  # two leaves of the star


def test_non_path_type_diagram_has_no_orientation():
    # D4 has no path order, so the checks that need one get None
    d4 = dynkin.DynkinDiagram(
        ("a", "b", "c", "d"), (("a", "c", 3), ("b", "c", 3), ("c", "d", 3)))
    b = ball(d4, list(d4.vertices), 2, max_chambers=10_000)
    assert d4.path_order() is None
    with pytest.raises(NotAdmissible):
        ck.linear_order(b, d4.path_order())
    with pytest.raises(NotAdmissible):
        ck.check_bowtie_free(b, d4.path_order())


def test_bowtie_a3_frozen():
    b = ball(A3, ["a", "b", "c"], 4)
    v = ck.check_bowtie_free(b, ["a", "b", "c"])
    assert v.status == ck.VERIFIED
    assert v.parameter("bowties") == 573
    assert v.parameter("nontrivial") == 177
    assert v.parameter("unresolved") == 0
    # every recorded middle really sits between the corners
    res = ck.linear_order(b, ["a", "b", "c"])
    for quad, z in v.witnesses:
        x1, x2, y1, y2 = quad
        if z in quad:
            continue
        zn = set(b.neighbors(z))
        assert all(u in zn for u in quad)
        rank = {"a": 0, "b": 1, "c": 2}
        zr = rank[b.vertex(z).type]
        assert all(rank[b.vertex(x).type] < zr for x in (x1, x2))
        assert all(zr < rank[b.vertex(y).type] for y in (y1, y2))


def test_bowtie_vacuous_on_dihedral():
    b = ball(A2, ["a", "b"], 6)
    v = ck.check_bowtie_free(b, ["a", "b"])
    assert v.status == ck.VERIFIED
    assert v.parameter("bowties") == 0


def test_bowtie_thin_ball_unresolved():
    b = ball(A3, ["a", "b", "c"], 2)
    v = ck.check_bowtie_free(b, ["a", "b", "c"])
    assert v.status == ck.UNRESOLVED


def test_bowtie_on_folded_ball():
    q = dynkin.quotient_folding(A3, [("a", "c")])
    fb = cpx.build_folded_ball(q, ["a+c", "b"], 4)
    v = ck.check_bowtie_free(fb, ["a+c", "b"])
    assert v.status == ck.VERIFIED
    assert ck.girth_report(fb) == (6, 6)


def test_wheel_fillers_derivable_from_bowtie_middles():
    b = ball(A3, ["a", "b", "c"], 4)
    bow = ck.check_bowtie_free(b, ["a", "b", "c"])
    derived = ck.wheel_fillers_from_bowties(b, ("a", "b", "c"), bow)
    scan = ck.find_induced_4cycles(b)

    def canon(cyc):
        x1, y1, x2, y2 = cyc
        corners, op = sorted((x1, x2)), sorted((y1, y2))
        if op[0] < corners[0]:
            corners, op = op, corners
        return (corners[0], op[0], corners[1], op[1])

    assert {canon(c) for c, _ in derived} == {canon(c) for c in scan}
    wheel = ck.check_labeled_4wheel(b)
    valid_fillers = {canon(c): z for c, z in wheel.witnesses}
    for cyc, z in derived:
        assert b.vertex(z).type == b.vertex(valid_fillers[canon(cyc)]).type


def test_verdict_monotone_in_bound():
    seen = []
    for L in (3, 4):
        b = ball(A3, ["a", "b", "c"], L)
        seen.append((ck.check_labeled_4wheel(b).status,
                     ck.check_bowtie_free(b, ["a", "b", "c"]).status))
    for earlier, later in zip(seen, seen[1:]):
        for s_early, s_late in zip(earlier, later):
            if s_early == ck.VERIFIED:
                assert s_late == ck.VERIFIED


def test_verdict_json_shape_and_determinism():
    b = ball(A3, ["a", "b", "c"], 3)
    v = ck.check_bowtie_free(b, ["a", "b", "c"])
    blob = v.to_json()
    assert set(blob) == {"check", "status", "parameters", "witnesses",
                         "truncated"}
    assert blob["check"] == "bowtie"
    json.loads(cli._dump_json(v.to_json()))
    again = ck.check_bowtie_free(b, ["a", "b", "c"])
    assert cli._dump_json(v.to_json()) == cli._dump_json(again.to_json())
    text = v.render()
    assert text.startswith("bowtie: VERIFIED")


# -- fillers against the all-vertex scan ------------------------------------------


B3 = path("abc", [4, 3])
H3 = path("abc", [5, 3])
D4 = dynkin.DynkinDiagram(("c", "a", "b", "d"),
                          (("c", "a", 3), ("c", "b", 3), ("c", "d", 3)))


def _filler_order(b):
    return sorted((v.id for v in b.vertices),
                  key=lambda v: (b.vertex(v).witness.size, v))


def _scan_filler(b, order, corners, allowed):
    """The reference: the first vertex of the whole ball, in (size, id)
    order, of an allowed type and adjacent to every corner."""
    for z in order:
        if z in corners or b.vertex(z).type not in allowed:
            continue
        if all(b.has_edge(z, c) for c in corners):
            return z
    return None


def _folded_a3(bound):
    q = dynkin.quotient_folding(A3, [("a", "c")])
    return cpx.build_folded_ball(q, ["a+c", "b"], bound)


def _remade(b, extra=(), margin=None):
    """b made by hand as a ComplexBall, with the `extra` edges and, given a
    margin, that margin and its inner set: witness size <= eff - margin."""
    inner = b.inner if margin is None else {
        v.id for v in b.vertices if v.witness.size <= b.effective_bound - margin}
    return cpx.ComplexBall(
        ambient=b.ambient, types=b.types, type_parabolic=b.type_parabolic,
        bound=b.bound, effective_bound=b.effective_bound,
        margin=b.margin if margin is None else margin,
        chamber_count=b.chamber_count, vertices=b.vertices,
        edges=sorted(set(b.edges) | set(extra)), inner=inner, edge_witness={},
        keys={}, shift=None)


def _with_rival_fillers(b):
    """b with the least and the greatest b-type vertex, by (size, id), joined
    to the corners of its first induced 4-cycle. In the other cases every
    filler and middle is the only candidate, so only here does the choice
    among several candidates show."""
    key = {v.id: (v.witness.size, v.id) for v in b.vertices}
    cyc = ck.find_induced_4cycles(b).cycles[0]
    bs = sorted((v.id for v in b.vertices if v.type == "b"), key=key.get)
    rivals = [z for z in (bs[0], bs[-1]) if not all(b.has_edge(z, c) for c in cyc)]
    return _remade(b, extra={(min(z, c), max(z, c)) for z in rivals for c in cyc})


# name -> (ball, orientation). Margin 1 where the fixed margin leaves nothing
# to fill: on H3 within 30,000 chambers (effective bound 2) and on D4 at bound
# 2 only the base chamber's vertices are inner. The folded ball has girth 6,
# so it has no bowties and no cycles: its searches must not happen.
FILLER_CASES = {
    "A3 rivals": lambda: (_with_rival_fillers(ball(A3, "abc", 4)), "abc"),
    "A3": lambda: (ball(A3, "abc", 5), "abc"),
    "B3": lambda: (ball(B3, "abc", 5), "abc"),
    "H3": lambda: (_remade(ball(H3, "abc", 5), margin=1), "abc"),
    "A3 a+c": lambda: (_folded_a3(5), ("a+c", "b")),
    "D4": lambda: (_remade(ball(D4, "abcd", 2), margin=1), "acb"),
}


@pytest.mark.parametrize("name", sorted(FILLER_CASES))
def test_fillers_match_the_all_vertex_scan(name, monkeypatch):
    b, orientation = FILLER_CASES[name]()
    orientation = list(orientation)
    order = _filler_order(b)
    searches = []
    search = ck._filler

    def recorded(b_, corners, allowed):
        hit = search(b_, corners, allowed)
        searches.append((tuple(corners), tuple(allowed), hit))
        return hit

    def candidates(corners, allowed):
        return sum(1 for z in b.vertices if z.type in allowed
                   and all(b.has_edge(z.id, c) for c in corners))

    monkeypatch.setattr(ck, "_filler", recorded)
    bow = ck.check_bowtie_free(b, orientation)
    wheel = ck.check_labeled_4wheel(b)
    capped = [
        ck.check_bowtie_free(b, orientation,
                             max_bowties=max(1, bow.parameter("bowties") // 2)),
        ck.check_labeled_4wheel(b,
                                max_cycles=max(1, wheel.parameter("cycles") // 2)),
    ]
    assert bool(searches) == (name != "A3 a+c")
    for corners, allowed, hit in searches:
        assert hit == _scan_filler(b, order, corners, allowed), name
    if name == "A3 rivals":
        assert max(candidates(c, a) for c, a, _ in searches) == 3
    # the verdicts themselves carry the reference choice
    rank = {s: i for i, s in enumerate(orientation)}
    for quad, z in bow.witnesses if bow.status == ck.VERIFIED else ():
        if z in quad:
            continue  # a corner below or above its pair already
        lo = max(rank[b.vertex(x).type] for x in quad[:2])
        hi = min(rank[b.vertex(y).type] for y in quad[2:])
        assert z == _scan_filler(b, order, quad, orientation[lo + 1:hi]), name
    tree = b.type_diagram
    for cyc, z in wheel.witnesses if wheel.status == ck.VERIFIED else ():
        types = {b.vertex(v).type for v in cyc}
        allowed = dynkin.smallest_subtree(tree, types).vertices
        assert z == _scan_filler(b, order, cyc, allowed), name
    assert all(v.truncated for v in capped) == bool(searches), name


# -- the scope rule ---------------------------------------------------------------


A4 = path("abcd", [3, 3, 3])
# check -> (verdict on a ball, a count its scan reports, that count on A4)
THIN_CHECKS = {
    "bowtie": (lambda b: ck.check_bowtie_free(b, "abcd"), "bowties", 1),
    "4wheel": (ck.check_labeled_4wheel, "cycles", 0),
    "order": (lambda b: ck.linear_order(b, "abcd").verdict, "ordered_pairs", 6),
}


@pytest.mark.parametrize("check", sorted(THIN_CHECKS))
def test_thin_ball_verdicts_are_unresolved(check):
    # A4 at bound 2: 3,771 chambers, but only the base chamber's 4 vertices
    # are inner. They are pairwise adjacent, so they make ordered pairs and
    # a degenerate bowtie, and these prove nothing beyond the one chamber.
    b = ball(A4, "abcd", 2)
    assert (b.chamber_count, len(b.inner)) == (3771, 4)
    assert b.effective_bound - b.margin < 1
    verdict, count, found = THIN_CHECKS[check]
    v = verdict(b)
    assert (v.status, v.witnesses, v.parameter(count)) == (ck.UNRESOLVED, (), found)
    assert v.parameter("margin") == cpx.MARGIN == 2


def test_the_margin_is_fixed():
    with pytest.raises(TypeError):
        cpx.build_ball(A3, "abc", 3, margin=1)
    with pytest.raises(TypeError):
        cpx.build_folded_ball(dynkin.quotient_folding(A3, [("a", "c")]),
                              ["a+c", "b"], 3, margin=1)


def test_a_loaded_ball_reports_the_fixed_margin():
    b = ball(A3, "abc", 3)
    back = cpx.ball_from_json(A3, b.to_json_str())
    assert back.margin == b.margin == cpx.MARGIN
    assert ck.linear_order(back, "abc").verdict == ck.linear_order(b, "abc").verdict


# -- pinned verdicts on the reference B3 ball -------------------------------------


# sha256 of each verdict's JSON, as `artinkit check --format json` prints it,
# on the B3 bound-5 ball with max_chambers=160,000 (157,045 chambers, the
# benchmark's ball)
VERDICT_SHA256 = {
    "bowtie": "2e0c894bf04795a5c2de915ea1fe3a249dbbee23c3e39a2695ee83e5377bf9bd",
    "4wheel": "75fb3ae4fd75ec029ab32d7a0f4aebd6083bcd067404839bf5af1678d20e99bc",
    "order": "daf80f689315be97d9249b12cbc941d791f083fc7731215a3c9f5a845fe7888c",
}


@pytest.fixture(scope="module")
def reference_b3():
    return ball(B3, "abc", 5, max_chambers=160_000)


def test_reference_ball_export_bytes(reference_b3):
    b = reference_b3
    blob = b.to_json_str().encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == (
        "2c3d75b3c7e2efcafc69d32afdb3f21f68a517ba27e04be717a45ae1833865b4")
    # every 997th edge's witness: the chamber ordinals and parent links
    witnesses = "".join(str(b.edge_witness(*b.edges[k]))
                        for k in range(0, len(b.edges), 997))
    assert hashlib.sha256(witnesses.encode("utf-8")).hexdigest() == (
        "6f9f829b2569bb16300b78a38dfc2eecbb4da835fbe7184c0498a86ae59e8114")


@pytest.mark.parametrize("check", sorted(VERDICT_SHA256))
def test_reference_ball_verdict_bytes(reference_b3, check):
    b = reference_b3
    verdict = {
        "bowtie": lambda: ck.check_bowtie_free(b, ["a", "b", "c"]),
        "4wheel": lambda: ck.check_labeled_4wheel(b),
        "order": lambda: ck.linear_order(b, ["a", "b", "c"]).verdict,
    }[check]()
    assert b.chamber_count == 157_045
    assert verdict.status == ck.VERIFIED
    blob = cli._dump_json(verdict.to_json()).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    assert digest == VERDICT_SHA256[check]
