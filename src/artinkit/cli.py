"""Command-line front end.

Subcommands: classify, word, ball, check {girth,4wheel,bowtie,order},
gate, fuzz. Outputs are deterministic for fixed inputs and flags; the only
randomness lives in `fuzz` behind an explicit seed.

Exit codes: 0 success/VERIFIED, 1 UNRESOLVED or conditional-only gates,
2 parse or usage error, 3 non-spherical input where sphericity is needed,
4 COUNTEREXAMPLE, 5 resource cap, 6 no gate applies, 7 internal invariant
violated (a fault in the program, never in the input).
"""

import argparse
import json
import random
import sys
from pathlib import Path

from . import checks, complexes, dynkin, garside, theorem_gate
from .errors import (
    ArtinKitError,
    BoundTooLarge,
    CapExceeded,
    InvariantViolated,
    NotAdmissible,
    NotSpherical,
    ParseError,
    SearchBudgetExceeded,
    UnknownGenerator,
)

EXIT_OK = 0
EXIT_UNRESOLVED = 1
EXIT_PARSE = 2
EXIT_NOT_SPHERICAL = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_RESOURCE = 5
EXIT_NO_GATE = 6
EXIT_INTERNAL = 7

_STATUS_EXIT = {
    checks.VERIFIED: EXIT_OK,
    checks.UNRESOLVED: EXIT_UNRESOLVED,
    checks.COUNTEREXAMPLE: EXIT_COUNTEREXAMPLE,
}


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _load(path):
    return dynkin.parse_diagram(Path(path).read_text(encoding="utf-8"))


def _dump_json(obj):
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)


def _types(args, d):
    """The --types given, all of d's vertices by default."""
    return args.types.split(",") if args.types else list(d.vertices)


def _build(d, args):
    return complexes.build_ball(d, _types(args, d), args.bound,
                                max_chambers=args.max_chambers)


def cmd_classify(args):
    rows = []
    for path in args.paths:
        d = _load(path)
        try:
            cls = dynkin.classify(d)
            tag, name, desc = cls.tag, cls.name, str(cls)
        except ArtinKitError as exc:
            tag, name, desc = "Unclassified", None, f"Unclassified ({exc})"
        flag = dynkin.is_locally_reducible(d)
        rows.append({"path": str(path), "tag": tag, "name": name,
                     "locally_reducible": flag, "text": desc})
    if args.format == "json":
        for row in rows:
            row.pop("text")
        print(_dump_json(rows))
    else:
        for row in rows:
            flag = "true" if row["locally_reducible"] else "false"
            print(f"{row['path']}: {row['text']}; locally_reducible={flag}")
    return EXIT_OK


def _parse_letters(tokens):
    out = []
    for tok in tokens:
        for piece in tok.split():
            if piece.endswith("^-1"):
                out.append((piece[:-3], -1))
            else:
                out.append((piece, 1))
    return out


def cmd_word(args):
    d = _load(args.diagram)
    g = garside.from_letters(d, _parse_letters(args.letters))
    print(garside.serialize(g))
    return EXIT_OK


def cmd_ball(args):
    d = _load(args.diagram)
    ball = _build(d, args)
    if args.format == "json":
        print(ball.to_json_str())
    elif args.format == "dot":
        print(ball.to_dot())
    else:
        print(f"types {','.join(ball.types)}")
        print(f"bound {ball.bound}")
        print(f"effective_bound {ball.effective_bound}")
        print(f"chambers {ball.chamber_count}")
        print(f"vertices {len(ball.vertices)}")
        print(f"edges {len(ball.edges)}")
        print(f"inner {len(ball.inner)}")
    return EXIT_OK


def _girth(args, d):
    types = _types(args, d)
    if len(set(types)) != 2:
        print("error: girth needs --types with exactly two types", file=sys.stderr)
        return EXIT_PARSE
    ball = _build(d, args)
    inner, upper = checks.girth_report(ball, types)
    if args.format == "json":
        print(_dump_json({
            "check": "girth",
            "types": types,
            "shortest_inner": inner,
            "upper_bound": upper,
            "parameters": {"bound": ball.bound,
                           "effective_bound": ball.effective_bound},
        }))
    elif inner is None:
        print("no cycle found within the bound")
    else:
        print(f"shortest cycle {inner}")
    return EXIT_OK if inner is not None else EXIT_UNRESOLVED


def cmd_check(args):
    d = _load(args.diagram)
    if args.check == "girth":
        return _girth(args, d)
    orientation = None
    if args.check in ("bowtie", "order"):
        orientation = d.induced(_types(args, d)).path_order()
        if orientation is None:
            print("error: this check needs a simple-path diagram", file=sys.stderr)
            return EXIT_PARSE
    ball = _build(d, args)
    if args.check == "4wheel":
        verdict = checks.check_labeled_4wheel(ball, max_cycles=args.max_cycles)
    elif args.check == "bowtie":
        verdict = checks.check_bowtie_free(
            ball, orientation, max_bowties=args.max_cycles
        )
    else:
        verdict = checks.linear_order(ball, orientation).verdict
    print(_dump_json(verdict.to_json()) if args.format == "json" else verdict.render())
    return _STATUS_EXIT[verdict.status]


def _gate_exit(verdicts):
    summary = theorem_gate.overall(verdicts)
    if summary == "applicable":
        return EXIT_OK
    if summary == "conditional":
        return EXIT_UNRESOLVED
    return EXIT_NO_GATE


def _gate_one(path):
    d = _load(path)
    verdicts = theorem_gate.gate_all(d)
    return verdicts, theorem_gate.overall(verdicts)


def cmd_gate(args):
    target = Path(args.target)
    if target.is_dir():
        files = sorted(target.glob("*.dyn"))
        if not files:
            print(f"error: no .dyn files in {target}", file=sys.stderr)
            return EXIT_PARSE
        results = [(p, *_gate_one(p)) for p in files]
        if args.format == "json":
            print(_dump_json([
                {"path": str(p), "overall": s,
                 "verdicts": [v.to_json() for v in vs]}
                for (p, vs, s) in results
            ]))
        else:
            width = max(len(p.name) for (p, _, _) in results)
            for (p, vs, s) in results:
                hits = ",".join(v.theorem for v in vs if v.applicable) or "-"
                print(f"{p.name:<{width}}  {s:<11}  {hits}")
        return max(_gate_exit(vs) for (_, vs, _) in results)
    verdicts, summary = _gate_one(target)
    if args.format == "json":
        print(_dump_json({"path": str(target), "overall": summary,
                          "verdicts": [v.to_json() for v in verdicts]}))
    else:
        for v in verdicts:
            print(v.render())
        print(f"overall: {summary}")
    return _gate_exit(verdicts)


def cmd_fuzz(args):
    d = _load(args.diagram)
    rng = random.Random(args.seed)
    gens = list(d.vertices)
    for i in range(args.count):
        w1 = [(rng.choice(gens), rng.choice((1, -1)))
              for _ in range(rng.randint(0, args.max_len))]
        w2 = [(rng.choice(gens), rng.choice((1, -1)))
              for _ in range(rng.randint(0, args.max_len))]
        g1 = garside.from_letters(d, w1)
        g2 = garside.from_letters(d, w2)
        checks_ = [
            garside.serialize(garside.multiply(g1, g2))
            == garside.serialize(garside.from_letters(d, w1 + w2)),
            garside.serialize(garside.multiply(g1, garside.inverse(g1)))
            == garside.serialize(garside.identity(d)),
            garside.serialize(garside.parse_element(d, garside.serialize(g1)))
            == garside.serialize(g1),
        ]
        if not all(checks_):
            word = " ".join(s if e > 0 else f"{s}^-1" for (s, e) in w1)
            print(f"property failure at case {i}: word '{word}'")
            return EXIT_COUNTEREXAMPLE
    print(f"fuzz: {args.count} words over [{', '.join(gens)}] ok"
          f" (seed {args.seed})")
    return EXIT_OK


def _parser():
    top = argparse.ArgumentParser(
        prog="artinkit",
        description="Coxeter/Garside computation, coset-complex balls,"
        " local curvature checks, and theorem applicability gates.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify diagram files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("word", help="normal form of a signed word")
    p.add_argument("diagram")
    p.add_argument("letters", nargs="+",
                   help="generators, with ^-1 for inverses")
    p.set_defaults(func=cmd_word)

    def _ball_flags(p, with_cycles=False):
        p.add_argument("--bound", type=_positive, required=True)
        p.add_argument("--max-chambers", type=_positive,
                       default=complexes.DEFAULT_MAX_CHAMBERS)
        if with_cycles:
            p.add_argument("--max-cycles", type=_positive,
                           default=checks.DEFAULT_MAX_CYCLES)

    p = sub.add_parser("ball", help="build a coset ball")
    p.add_argument("diagram")
    p.add_argument("--types", default=None,
                   help="comma-separated vertex types of the ball (default: all)")
    _ball_flags(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("check", help="run a local check on a ball")
    p.add_argument("check", choices=("girth", "4wheel", "bowtie", "order"))
    p.add_argument("diagram")
    p.add_argument("--types", default=None,
                   help="comma-separated vertex types of the ball the check reads"
                   " (default: all; girth needs exactly two)")
    _ball_flags(p, with_cycles=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gate", help="evaluate theorem gates")
    p.add_argument("target", help="diagram file or directory of .dyn files")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("fuzz", help="randomized word-arithmetic properties")
    p.add_argument("diagram")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive, default=200)
    p.add_argument("--max-len", type=_positive, default=12)
    p.set_defaults(func=cmd_fuzz)

    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, UnknownGenerator, NotAdmissible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotSpherical as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SPHERICAL
    except (BoundTooLarge, CapExceeded, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ArtinKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
