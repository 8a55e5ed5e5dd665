"""In-memory spans for the traced run.

A span is (name, start, end, parent) with perf_counter times; parent is the
index of the enclosing span or -1. Spans come from two places, both in the
benchmark's own files: `call`, used at the benchmark's call sites into a
layer, and `patch`, which swaps a public function or method of the program
for a wrapper while a round runs (for layers the benchmark cannot call
directly, such as `GarsideTable.coset_key` inside `build_ball`). The spans
stay in memory and are written out once, when the run ends.
"""

import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []  # one {name: n} per round
        self._stack = [-1]
        self._patched = []

    def _run(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[sid] = (name, start, end, parent)

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        return self._run(name, fn, args, kwargs)

    def count(self, name, n):
        self.counts[-1][name] = self.counts[-1].get(name, 0) + n

    def patch(self, owner, attr, name):
        """Record a span `name` around every call of owner.attr until unpatch."""
        fn = getattr(owner, attr)
        run = self._run

        def traced(*args, **kwargs):
            return run(name, fn, args, kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def unpatch(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def round(self, fn, *args):
        """One timed round inside a top-level span named `round`."""
        self.counts.append({})
        return self._run("round", fn, args, {})

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def per_round(self):
        """[{key: (seconds, calls)}] per round, over the spans of the round.

        A span counts under its own name, and under "parent/name" for the
        name of its direct parent. Only outermost spans count, those with no
        ancestor of the same name, so a recursive call is not counted twice.
        """
        spans = self.spans
        rounds = []
        totals = None
        for name, start, end, parent in spans:
            if parent == -1:
                totals = {name: (end - start, 1)}
                rounds.append(totals)
                continue
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p >= 0:
                continue
            for key in (name, spans[parent][0] + "/" + name):
                s, n = totals.get(key, (0.0, 0))
                totals[key] = (s + end - start, n + 1)
        return rounds


def layer_metrics(tracer, names, derived):
    """Per-layer metric values: medians over rounds for times, and counts
    that must repeat exactly in every round.

    `names` maps a metric to ("s" | "calls" | "count", span or counter
    name); `derived` maps a metric to a function of one round's span totals
    (see per_round), returning seconds. Layers that never ran read 0.
    """
    rounds = tracer.per_round()
    out = {}
    for metric, (kind, key) in names.items():
        if kind == "count":
            vals = [c.get(key, 0) for c in tracer.counts]
        elif kind == "calls":
            vals = [r.get(key, (0.0, 0))[1] for r in rounds]
        else:
            vals = [r.get(key, (0.0, 0))[0] for r in rounds]
        if kind == "s":
            out[metric] = statistics.median(vals)
        elif len(set(vals)) == 1:
            out[metric] = vals[0]
        else:
            raise RuntimeError(f"{metric} differs between rounds: {vals}")
    for metric, fn in derived.items():
        out[metric] = statistics.median(fn(r) for r in rounds)
    return out


class NullTracer:
    """Stand-in for Tracer in untraced runs: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def round(fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, n):
        pass

    @staticmethod
    def patch(owner, attr, name):
        pass

    @staticmethod
    def unpatch():
        pass
