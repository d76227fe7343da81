"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and run id, plus optional
counts (tokens, token updates, ...). Spans stay in memory until the run
ends; self time is a span's duration minus the time its child spans cover.
The program is instrumented from outside: ``Instrumentation`` swaps a
wrapping function in at the attribute a caller looks up (a module global
such as ``trainer.adam_update`` or a class method such as
``AttentionRnnLm.step_dist``) and puts the original back afterwards.
"""

import functools
import gzip
import json
import math
import statistics
import time
from collections import defaultdict

# Span record fields, stored as lists for speed.
ID, PARENT, NAME, START, END, RUN, COUNTS = range(7)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run_id = None
        self._stack = []
        self.seen = set()  # per-run memory for repeat counting

    def start_run(self, run_id):
        self.run_id = run_id
        self.seen = set()

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, name, self.clock(), None, self.run_id, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def close(self, rec, counts=None):
        rec[END] = self.clock()
        rec[COUNTS] = counts
        popped = self._stack.pop()
        if popped != rec[ID]:
            raise RuntimeError(f"span {rec[NAME]} closed out of order")

    def run_spans(self, run_id):
        return [s for s in self.spans if s[RUN] == run_id]

    def write_jsonl_gz(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                                    "start": s[START], "end": s[END], "run": s[RUN],
                                    "counts": s[COUNTS]}) + "\n")


def self_times(spans):
    """Per span id, its duration minus the durations of its direct children.

    Children of one parent run one after another on one thread, so their
    durations never overlap and the covered time is their sum.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    return {s[ID]: (s[END] - s[START]) - child_time[s[ID]] for s in spans}


def aggregate(spans):
    """Per span name: total seconds, self seconds, calls and summed counts."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []})
    for s in spans:
        a = agg[s[NAME]]
        dur = s[END] - s[START]
        a["s"] += dur
        a["self_s"] += selfs[s[ID]]
        a["calls"] += 1
        a["durations"].append(dur)
        for k, v in (s[COUNTS] or {}).items():
            a[k] = a.get(k, 0) + v
    return agg


TAIL_LADDER_PERMILLE = (500, 900, 990, 999)


def tail_percentile(n, ladder=TAIL_LADDER_PERMILLE):
    """Highest percentile (in per mille) with at least 10 of n samples beyond it.

    Integer arithmetic, so n = 100 admits the 90th percentile exactly.
    Returns None when not even the median has 10 samples beyond it.
    """
    best = None
    for q in ladder:
        if n * (1000 - q) >= 10 * 1000:
            best = q
    return best


def nearest_rank(samples, permille):
    """Smallest sample with at least ``permille``/1000 of the samples at or below it."""
    ordered = sorted(samples)
    k = max(1, math.ceil(permille * len(ordered) / 1000))
    return ordered[k - 1]


def latency_summary(samples_s):
    """Median and 90th-percentile latency in ms, with the sample count.

    The 90th percentile is reported only when the tail rule admits it
    (at least 100 samples); with fewer samples ``p90_ms`` holds the largest
    sample, an upper bound on it.
    """
    n = len(samples_s)
    if n == 0:
        return {"p50_ms": 0.0, "p90_ms": 0.0, "n": 0}
    ms = [1e3 * s for s in samples_s]
    q = tail_percentile(n)
    p90 = nearest_rank(ms, 900) if q is not None and q >= 900 else max(ms)
    return {"p50_ms": statistics.median(ms), "p90_ms": p90, "n": n}


class Instrumentation:
    """Wrap attributes of modules and classes with spans; undo on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def wrap(self, owner, attr, name_of, counts_of=None):
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(rec, counts_of(tracer, args, kwargs) if counts_of else None)

        self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
