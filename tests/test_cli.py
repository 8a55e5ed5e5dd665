"""End-to-end tests for the artinkit command line.

Invocations go through a real subprocess so the exit-code contract and
byte-level output stability are exercised exactly as a shell sees them. The
one exception calls `cli.main` in process, to patch in the internal fault
that its exit code reports.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

A2 = "vertices a b\nedge a b 3\n"
A3 = "vertices a b c\nedge a b 3\nedge b c 3\n"
I24 = "vertices a b\nedge a b 4\n"
AFFA2 = "vertices a b c\nedge a b 3; edge b c 3; edge a c 3\n"
AFFF4 = "vertices p q r s t\nedge p q 3; edge q r 3; edge r s 4; edge s t 3\n"
K4 = ("vertices p q r s\n"
      "edge p q 3; edge p r 3; edge p s 3\n"
      "edge q r 3; edge q s 3; edge r s 3\n")
D4 = "vertices c a b d\nedge c a 3; edge c b 3; edge c d 3\n"

GATE_A3_TEXT = """\
SphericalBase: applicable
TreeCut: applicable
SingleCycle: not applicable [NoInducedCycle]
FoldedCycle: not applicable [exhausted 2 candidate foldings; NoInducedCycle in any quotient]
FCReduction: not applicable [diagram is connected]
overall: applicable
"""

BALL_I24_TEXT = """\
types a,b
bound 3
effective_bound 3
chambers 145
vertices 106
edges 145
inner 10
"""


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "artinkit", *argv],
        capture_output=True, text=True,
    )


@pytest.fixture
def dyn(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_classify_text(dyn):
    a3 = dyn("A3.dyn", A3)
    aff = dyn("affA2.dyn", AFFA2)
    r = run("classify", a3, aff)
    assert r.returncode == 0
    assert r.stdout == (
        f"{a3}: Spherical A(3); locally_reducible=false\n"
        f"{aff}: Affine AffA(2); locally_reducible=true\n"
    )


def test_classify_json(dyn):
    p = dyn("I24.dyn", I24)
    r = run("classify", p, "--format", "json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    # rank 2 never contains a 3-vertex subdiagram, so the flag is vacuous
    assert rows == [{"path": p, "tag": "Spherical", "name": "B(2)",
                     "locally_reducible": True}]


def test_classify_missing_file_exit2(dyn):
    r = run("classify", "/nonexistent/zz.dyn")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_classify_bad_label_exit2(dyn):
    p = dyn("bad.dyn", "vertices a b\nedge a b zzz\n")
    r = run("classify", p)
    assert r.returncode == 2
    assert "line 2" in r.stderr


def test_word_delta_extraction(dyn):
    p = dyn("A2.dyn", A2)
    r = run("word", p, "a", "b", "a", "b")
    assert r.returncode == 0
    assert r.stdout == "Δ^1 · b\n"


def test_word_identity(dyn):
    p = dyn("A2.dyn", A2)
    r = run("word", p, "a", "a^-1")
    assert r.returncode == 0
    assert r.stdout == "Δ^0 ·\n"


def test_word_quoted_string_form(dyn):
    # letters may arrive as one shell-quoted argument
    p = dyn("A3.dyn", A3)
    r = run("word", p, "a b a b")
    assert r.stdout == "Δ^0 · aba | b\n"


def test_word_affine_exit3(dyn):
    p = dyn("affA2.dyn", AFFA2)
    r = run("word", p, "a", "b")
    assert r.returncode == 3
    assert "spherical" in r.stderr


def test_word_unknown_generator_exit2(dyn):
    p = dyn("A2.dyn", A2)
    r = run("word", p, "a", "q")
    assert r.returncode == 2


def test_ball_text_summary(dyn):
    p = dyn("I24.dyn", I24)
    r = run("ball", p, "--bound", "3")
    assert r.returncode == 0
    assert r.stdout == BALL_I24_TEXT


def test_ball_json_and_dot(dyn):
    p = dyn("I24.dyn", I24)
    r = run("ball", p, "--bound", "2", "--format", "json")
    blob = json.loads(r.stdout)
    assert blob["bound"] == 2
    assert len(blob["vertices"]) == 34
    r2 = run("ball", p, "--bound", "2", "--format", "dot")
    assert r2.stdout.startswith("graph ball {")


def test_table_cap_exit5_names_the_group_order(dyn):
    p = dyn("e7.dyn", "vertices a b c d e f g\n"
                      "edge a b 3; edge b c 3; edge c d 3; edge d e 3\n"
                      "edge e f 3; edge c g 3\n")
    r = run("word", p, "a")
    assert r.returncode == 5
    assert "2,903,040 > 60,000" in r.stderr
    assert r.stdout == ""


def test_ball_cap_exit5(dyn):
    p = dyn("I24.dyn", I24)
    r = run("ball", p, "--bound", "8", "--max-chambers", "5")
    assert r.returncode == 5
    assert "max_chambers" in r.stderr
    # the error names the smallest cap that fits radius 2: 1 + 8 + 32
    assert "radius 2 needs max_chambers=41" in r.stderr
    assert r.stdout == ""
    assert run("ball", p, "--bound", "8", "--max-chambers", "40").returncode == 5
    r = run("ball", p, "--bound", "8", "--max-chambers", "41")
    assert r.returncode == 0
    assert "effective_bound 2\nchambers 41\n" in r.stdout


def test_girth_found(dyn):
    p = dyn("I24.dyn", I24)
    r = run("check", "girth", p, "--bound", "8")
    assert r.returncode == 0
    assert r.stdout == "shortest cycle 8\n"


def test_girth_none_within_bound(dyn):
    p = dyn("A2.dyn", A2)
    r = run("check", "girth", p, "--bound", "2")
    assert r.returncode == 1
    assert r.stdout == "no cycle found within the bound\n"


def test_girth_needs_types_on_rank3(dyn):
    p = dyn("A3.dyn", A3)
    r = run("check", "girth", p, "--bound", "3")
    assert r.returncode == 2
    assert "--types" in r.stderr
    r2 = run("check", "girth", p, "--bound", "3", "--types", "a,c")
    assert r2.returncode in (0, 1)


def test_bowtie_small_bound_unresolved(dyn):
    p = dyn("A3.dyn", A3)
    r = run("check", "bowtie", p, "--bound", "2")
    assert r.returncode == 1
    assert r.stdout.startswith("bowtie: UNRESOLVED")
    assert "nontrivial=0" in r.stdout


def test_bowtie_truncated_scan_exits1():
    a3 = str(Path(__file__).parent / "corpus" / "a3.dyn")
    r = run("check", "bowtie", a3, "--bound", "5", "--max-cycles", "3")
    assert r.returncode == 1
    assert r.stdout.startswith("bowtie: UNRESOLVED")
    assert "truncated" in r.stdout


def test_order_thin_ball_unresolved():
    # B3 at bound 2: only the base chamber's 3 vertices are inner
    b3 = str(Path(__file__).parent / "corpus" / "b3.dyn")
    r = run("check", "order", b3, "--bound", "2")
    assert r.returncode == 1
    assert r.stdout.startswith("order: UNRESOLVED")
    assert "ordered_pairs=3" in r.stdout


def test_margin_is_not_an_option(dyn):
    p = dyn("A3.dyn", A3)
    r = run("check", "order", p, "--bound", "3", "--margin", "0")
    assert r.returncode == 2
    assert "unrecognized arguments: --margin 0" in r.stderr


def test_order_verified(dyn):
    p = dyn("A3.dyn", A3)
    r = run("check", "order", p, "--bound", "3")
    assert r.returncode == 0
    assert r.stdout.startswith("order: VERIFIED")
    assert "orientation=a<b<c" in r.stdout


def test_order_rejects_non_path(dyn):
    p = dyn("D4.dyn", D4)
    r = run("check", "order", p, "--bound", "2")
    assert r.returncode == 2
    assert "simple-path" in r.stderr


def test_check_json_format(dyn):
    p = dyn("A3.dyn", A3)
    r = run("check", "order", p, "--bound", "3", "--format", "json")
    blob = json.loads(r.stdout)
    assert blob["check"] == "order"
    assert blob["status"] == "VERIFIED"


def test_gate_text_and_exit0(dyn):
    p = dyn("A3.dyn", A3)
    r = run("gate", p)
    assert r.returncode == 0
    assert r.stdout == GATE_A3_TEXT


def test_gate_conditional_exit1(dyn):
    p = dyn("affF4.dyn", AFFF4)
    r = run("gate", p)
    assert r.returncode == 1
    assert "overall: conditional" in r.stdout
    assert "TreeCut: applicable (conditional, 2 assumptions)" in r.stdout


def test_gate_none_exit6(dyn):
    p = dyn("k4.dyn", K4)
    r = run("gate", p)
    assert r.returncode == 6
    assert "overall: none" in r.stdout


def test_gate_json_shape(dyn):
    p = dyn("affA2.dyn", AFFA2)
    r = run("gate", p, "--format", "json")
    assert r.returncode == 0
    blob = json.loads(r.stdout)
    assert blob["overall"] == "applicable"
    assert [v["theorem"] for v in blob["verdicts"]] == [
        "SphericalBase", "TreeCut", "SingleCycle", "FoldedCycle", "FCReduction",
    ]
    assert blob["verdicts"][2]["applicable"] is True


def test_gate_directory_table(dyn, tmp_path):
    dyn("A3.dyn", A3)
    dyn("affF4.dyn", AFFF4)
    dyn("k4.dyn", K4)
    r = run("gate", str(tmp_path))
    assert r.returncode == 6  # worst of {0, 1, 6}
    lines = r.stdout.splitlines()
    assert lines == [
        "A3.dyn     applicable   SphericalBase,TreeCut",
        "affF4.dyn  conditional  TreeCut",
        "k4.dyn     none         -",
    ]


def test_gate_rejects_plus_in_a_vertex_name_exit2(dyn):
    p = dyn("plus.dyn", "vertices o a b a+b\nedge o a 3\nedge o b 3\nedge o a+b 3\n")
    r = run("gate", p)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == ("error: line 1: vertex name 'a+b' contains '+',"
                        " which joins the vertices of a fiber\n")


# malformed diagrams that once reached the user as a traceback (exit 1, the
# code of UNRESOLVED), or were read and then failed inside a command
MALFORMED = {
    "edges not a list": ('{"vertices": ["a", "b"], "edges": 5}', ["gate", "{}"],
                         "'edges' must be a list"),
    "edge end not a string": ('{"vertices": ["a", "b"], "edges": [[["a"], "b", 3]]}',
                              ["check", "4wheel", "{}", "--bound", "3"],
                              "edge entry must be [u, v, label] with string ends,"
                              " got [['a'], 'b', 3]"),
    "JSON name with a space": ('{"vertices": ["a b", "c"], "edges": [["a b", "c", 3]]}',
                               ["fuzz", "{}"], "vertex name 'a b' is not one token"),
    "text name with a bar": ("vertices a|b c\n", ["classify", "{}"],
                             "vertex name 'a|b' contains '|',"
                             " which separates the factors of an element"),
    "text name with a caret": ("vertices a^-1 a\n", ["word", "{}", "a^-1"],
                               "vertex name 'a^-1' contains '^',"
                               " which marks an inverse letter"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_diagram_exit2_without_traceback(dyn, name):
    text, argv, reason = MALFORMED[name]
    p = dyn("f.dyn", text)
    r = run(*(a.format(p) for a in argv))  # {} is the file
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: line 1: {reason}\n"


def test_gate_directory_empty_exit2(tmp_path):
    r = run("gate", str(tmp_path))
    assert r.returncode == 2


def test_fuzz_deterministic(dyn):
    p = dyn("I24.dyn", I24)
    r1 = run("fuzz", p, "--seed", "9", "--count", "40", "--max-len", "6")
    r2 = run("fuzz", p, "--seed", "9", "--count", "40", "--max-len", "6")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout == "fuzz: 40 words over [a, b] ok (seed 9)\n"


# sha256 of `ball tests/corpus/<name>.dyn --bound 4 --format json`
BALL_JSON_SHA256 = {
    "a3": "012062f38086c4a26e5fcdcc3fd7280bc389349c381f38fa54213f50bf7baa8a",
    "b3": "d86e3b397fe2a087c570815767f65aff5ec8aa8fe49da180e265a0136fa27000",
    "h3": "bd07cda436f56a72d613b226144858356b7b5073e48e0223965409a2fb71a13e",
    "d4": "f40a4c37d98a743ec3f525d95bc25fc0e3eebc9210af885af8c3b5e61696939d",
}


@pytest.mark.parametrize("name", sorted(BALL_JSON_SHA256))
def test_ball_json_bytes_are_pinned(name):
    corpus = Path(__file__).parent / "corpus"
    r = run("ball", str(corpus / f"{name}.dyn"), "--bound", "4",
            "--format", "json")
    assert r.returncode == 0
    digest = hashlib.sha256(r.stdout.encode("utf-8")).hexdigest()
    assert digest == BALL_JSON_SHA256[name]


def test_jobs_is_not_an_option(dyn):
    r = run("ball", dyn("A3.dyn", A3), "--bound", "3", "--jobs", "2")
    assert r.returncode == 2
    assert "unrecognized arguments: --jobs 2" in r.stderr


def test_invariant_violation_has_its_own_exit_code(dyn, monkeypatch, capsys):
    # in process: a corrupted link helper trips the gate's invariant check
    from artinkit import cli, theorem_gate

    monkeypatch.setattr(theorem_gate, "_link_component",
                        lambda source, removed, anchor: source.induced([anchor]))
    assert cli.main(["gate", dyn("affA2.dyn", AFFA2)]) == cli.EXIT_INTERNAL == 7
    err = capsys.readouterr().err
    assert err == "internal error: link of a does not carry the rest of the cycle\n"
