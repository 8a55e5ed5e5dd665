"""artinkit benchmark: one workload per run, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts the workload in fresh
serial child processes of this script. Untraced (--trace 0), SETUP_REPEATS
children only set up and one more also runs the timed rounds; the last line
of stdout is a JSON object with `setup_s` (median set-up over all of them),
`work_s` (median wall time of one round) and `peak_rss_mb` (ru_maxrss of the
timing child at the end of its first round), plus the operations attempted
and failed. Traced (--trace 1), one child runs the same rounds with spans
around every call into a layer and reports the per-layer metrics instead;
its spans are written to perfbench/out/spans-<workload>.tsv.

A child repeats whole rounds of identical work until the rounds add up to S
seconds, at least one. gc.collect() runs before each round; the referee
checks each round's outputs after the round, outside the timed phase.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ball_b3", "tables", "words", "gates")
SETUP_REPEATS = 4
DEADLINE_S = 170

TYPES = ("A3", "B3", "H3", "A4", "D4")
WORD_OPS = ("from_letters", "multiply", "inverse", "left_gcd", "left_lcm",
            "np_form", "in_parabolic")
GATES = ("gate_all", "gate_spherical", "gate_tree", "gate_cycle",
         "gate_folded", "gate_fc_reduction")


def _layer_table():
    """Per-layer metric -> (kind, span or counter name). Kind "s" sums the
    outermost spans of that name, "calls" counts them, "count" reads a
    counter the workload records."""
    table = {}
    for t in TYPES:
        table[f"coxeter.enumerate_s.{t}"] = ("s", f"coxeter.enumerate.{t}")
    table["coxeter.elements"] = ("count", "coxeter.elements")
    for t in TYPES:
        table[f"garside.table_s.{t}"] = ("s", f"garside.table.{t}")
    for op in WORD_OPS + ("coset_key",):
        table[f"garside.{op}_s"] = ("s", f"garside.{op}")
        table[f"garside.{op}_calls"] = ("calls", f"garside.{op}")
    table["garside.serialize_s"] = ("s", "garside.serialize")
    for name in ("build_ball", "to_json", "locate", "coxeter_complex",
                 "apartment"):
        table[f"complexes.{name}_s"] = ("s", f"complexes.{name}")
    for name in ("chambers", "vertices", "edges", "inner"):
        table[f"complexes.{name}"] = ("count", f"complexes.{name}")
    for name in ("bowtie", "4wheel", "order", "girth"):
        table[f"checks.{name}_s"] = ("s", f"checks.{name}")
    table["checks.bowties"] = ("count", "checks.bowties")
    table["checks.cycles"] = ("count", "checks.cycles")
    table["dynkin.parse_s"] = ("s", "dynkin.parse")
    for name in GATES:
        table[f"theorem_gate.{name}_s"] = ("s", f"theorem_gate.{name}")
    table["cli.gate_s"] = ("s", "cli.gate")
    table["theorem_gate.diagrams"] = ("calls", "cli.gate/theorem_gate.gate_all")
    table["trace.work_s"] = ("s", "round")
    return table


def _assembly_s(totals):
    """Ball build time not spent in coset_key."""
    build = totals.get("complexes.build_ball", (0.0, 0))[0]
    keys = totals.get("complexes.build_ball/garside.coset_key", (0.0, 0))[0]
    return build - keys


LAYER = _layer_table()
DERIVED = {"complexes.assembly_s": _assembly_s}
UNITS = {"s": "s", "calls": "count", "count": "count"}


class Tally:
    """Counts operations and the ones whose output the referee rejected.

    An operation marked `known_fault` fails because of a fault the README
    names; it counts in `failed` but does not make the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def op(self, ok, what, known_fault=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.wrong.append(what)


def child(args):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from spans import NullTracer, Tracer, layer_metrics

    mod = importlib.import_module(args.workload)
    OUT.mkdir(exist_ok=True)
    state = mod.setup(args.seed, ROOT, OUT)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tr = Tracer() if args.trace else NullTracer()
    tally = Tally()
    times = []
    while not times or sum(times) < args.seconds:
        gc.collect()
        for owner, attr, name in mod.PATCHES:
            tr.patch(owner, attr, name)
        start = time.perf_counter()
        out = tr.round(mod.run_round, state, tr)
        times.append(time.perf_counter() - start)
        tr.unpatch()
        if len(times) == 1:
            # later rounds repeat the work; in `tables` they also add fresh
            # diagrams to the program's caches, which is not work to charge
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        mod.referee(state, out, tally)
        del out
    result = {"setup_s": setup_s, "work_s": statistics.median(times),
              "peak_rss_mb": peak,
              "attempted": tally.attempted, "failed": tally.failed,
              "wrong": tally.wrong[:20]}
    if args.trace:
        tr.write(OUT / f"spans-{args.workload}.tsv")
        result["layers"] = layer_metrics(tr, LAYER, DERIVED)
    print(json.dumps(result))
    return 0


def _spawn(args, deadline, setup_only):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.perf_counter())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        return child(args)
    if not (ROOT / "src" / "artinkit").is_dir():
        raise SystemExit(f"no artinkit sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _spawn(args, deadline, True)["setup_s"]
            for _ in range(SETUP_REPEATS)]
        res = _spawn(args, deadline, False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload} did not finish in {DEADLINE_S} s")
    if res["wrong"]:
        sys.stderr.write("referee rejected: " + "; ".join(res["wrong"]) + "\n")
    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[LAYER[k][0]]
                       if k in LAYER else "s"}
                   for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [res["setup_s"]]),
                        "unit": "s"},
            "work_s": {"value": res["work_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not res["wrong"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
