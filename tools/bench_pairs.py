"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_16.json \
        --workloads words=10 ball_b3=3 tables=3 gates=3 \
        --seconds 15 --first-seed 1 --claim words/work_s

DIR is the root of a checkout. Pair i of a workload runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
both checkouts with seed S = first-seed + i, the parent first in odd pairs
and the change first in even ones, so a drift of the host falls on both
sides alike. The file records each run's last JSON line and a summary line
per metric: the median and quartiles on each side, the pairs the change
wins (every metric is better lower) and the median change/parent ratio.
The exit status is 1 unless every run says `correct` with `failed` 0.

Both checkouts are measured from source: every `__pycache__` under their
`src/` and `perfbench/` is removed before the first run, and the runs set
PYTHONDONTWRITEBYTECODE=1, because importing cached bytecode skips
compilation and lowers `peak_rss_mb` by a few percent. Standard library
only.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "work_s", "peak_rss_mb")


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def clear_bytecode(root):
    for sub in ("src", "perfbench"):
        for cache in sorted((root / sub).rglob("__pycache__")):
            shutil.rmtree(cache)


def revision(root):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    mem = ""
    try:
        with open("/proc/meminfo") as f:
            kb = int(f.readline().split()[1])
        mem = f", {kb / 2 ** 20:.0f} GB RAM"
    except (OSError, ValueError, IndexError):
        pass
    return (f"{os.cpu_count()}-core {platform.machine()}{mem}, "
            f"{platform.python_implementation()} {platform.python_version()}")


def _g(x):
    return f"{x:.4g}"


def _spread(values):
    """(median, lower quartile, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(pairs):
    lines = []
    for workload, runs in pairs.items():
        for m in METRICS:
            both = [(r["parent"]["metrics"][m]["value"],
                     r["change"]["metrics"][m]["value"]) for r in runs
                    if "metrics" in r["parent"] and "metrics" in r["change"]]
            if not both:
                continue
            par, chg = zip(*both)
            pm, pl, pu = _spread(list(par))
            cm, cl, cu = _spread(list(chg))
            wins = sum(c < p for p, c in both)
            ratio = statistics.median(c / p for p, c in both)
            lines.append(
                f"{workload} {m}: parent {_g(pm)} [{_g(pl)}-{_g(pu)}] change "
                f"{_g(cm)} [{_g(cl)}-{_g(cu)}] better {wins}/{len(both)} "
                f"ratio {ratio:.3f}")
        clean = all(r[side].get("correct") is True
                    and r[side].get("failed") == 0
                    for r in runs for side in ("parent", "change"))
        lines.append(f"{workload}: correct true and failed 0 in every run: "
                     f"{clean}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", required=True,
                   metavar="NAME=PAIRS")
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--claim", default=None, help="workload/metric claimed")
    args = p.parse_args(argv)
    plan = []
    for item in args.workloads:
        name, _, count = item.partition("=")
        plan.append((name, int(count or 1)))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        clear_bytecode(root)
    pairs = {}
    for workload, count in plan:
        runs = pairs[workload] = []
        for i in range(count):
            seed = args.first_seed + i
            entry = {"seed": seed}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                entry[side] = run_once(sides[side], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(entry[side])}", file=sys.stderr)
            runs.append(entry)
    summary = summarize(pairs)
    doc = {
        "parent": revision(sides["parent"]),
        "claim": args.claim,
        "machine": (f"{machine()}; alternating pairs, parent first in odd "
                    f"pairs; python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {args.seconds:g} --trace 0"),
        "pairs": pairs,
        "summary": summary,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary))
    return 0 if all(line.endswith(": True") for line in summary
                    if "correct true" in line) else 1


if __name__ == "__main__":
    raise SystemExit(main())
