"""Span tracing of `ccenum` from the outside, for the per-layer metrics.

`Tracer.install` replaces public functions on their modules with wrappers
that record a span (name, start, end, parent) per call.  Callers inside
`ccenum` look these functions up through the module attribute (for
example `exclusion.run_battery_batch` or a bare name in the defining
module), so the program itself stays untouched.  `interval` and `boxops`
are too fine-grained to wrap; they show in their callers' self times.

Worker processes of a parallel search inherit the wrappers by fork.  Each
worker task writes its spans to a file in `spool`, and `collect_workers`
merges them into the parent's list.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name); the span name's prefix is the layer
WRAPPED = (
    ("search", "search", "search.search"),
    ("search", "_search_loop", "search.loop"),
    ("search", "make_solution", "search.make_solution"),
    ("exclusion", "run_battery_batch", "exclusion.battery"),
    ("exclusion", "cluster_test_excluded_single", "exclusion.cluster_box"),
    ("bounds", "check_apriori_batch", "bounds.apriori"),
    ("bounds", "compute_bounds", "bounds.setup"),
    ("model", "accel_arrays", "model.accel"),
    ("kernels", "bound_kernel_batch", "kernels.bound"),
    ("reduced", "jacobian_masked", "reduced.jacobian"),
    ("reduced", "residual_masked", "reduced.residual"),
    ("krawczyk", "iterate_batch", "krawczyk.iterate"),
    ("krawczyk", "midpoint_inverse", "krawczyk.inverse"),
    ("krawczyk", "contract", "krawczyk.contract"),
    ("classify", "classify_solutions", "classify"),
    ("classify", "same_solution", "classify.same_solution"),
    ("classify", "symmetry_check", "classify.symmetry"),
    ("verify", "verify_candidate", "verify.candidate"),
    ("report", "render_search_report", "report"),
    ("report", "render_verify_report", "report"),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self, spool: Path):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.spool = spool
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, measure=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if measure is not None:
                for key, value in measure(args, out).items():
                    counts[key] += value
            return out

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every function of WRAPPED; `modules` maps short names to modules."""
        measures = {
            "exclusion.battery": _battery_counts,
            "kernels.bound": lambda a, out: {"kernels.queries": len(a[0])},
            "krawczyk.iterate": _krawczyk_counts,
            "report": lambda a, out: {"report.bytes": len(out.encode())},
        }
        for mod_name, attr, name in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, measures.get(name)))
        search = modules["search"]
        task = search._subtree_task
        self._undo.append((search, "_subtree_task", task))
        setattr(search, "_subtree_task", self._worker_task(task))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    # -- worker processes ---------------------------------------------------

    def _worker_task(self, task):
        """Wrap the pool task: record the worker's spans and spool them."""
        tracer = self

        @functools.wraps(task)
        def wrapper(args):
            # a forked worker starts with a copy of the parent's spans
            start = len(tracer.spans)
            tracer.stack.clear()
            tracer.counts.clear()
            try:
                return task(args)
            finally:
                mine = tracer.spans[start:]
                for span in mine:
                    if span[3] >= 0:
                        span[3] -= start
                out = tracer.spool / f"worker-{os.getpid()}-{time.perf_counter_ns()}.json"
                out.write_text(json.dumps({"spans": mine, "counts": tracer.counts}))
                del tracer.spans[start:]

        return wrapper

    def collect_workers(self) -> None:
        for path in sorted(self.spool.glob("worker-*.json")):
            data = json.loads(path.read_text())
            base = len(self.spans)
            for name, t0, t1, parent in data["spans"]:
                self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1])
            for key, value in data["counts"].items():
                self.counts[key] += value
            path.unlink()

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, t0, t1, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[k]
        return out


def _battery_counts(args, out):
    from ccenum import exclusion  # loaded: tracing wraps it

    status = out[0]
    return {
        "exclusion.boxes": len(status),
        "exclusion.excluded": int((status < exclusion.SURVIVED).sum()),
    }


def _krawczyk_counts(args, out):
    decided = sum(1 for o in out if o.tag in ("unique_zero", "no_zero"))
    return {"krawczyk.boxes": len(out), "krawczyk.decided": decided}


def layer_metrics(tracer: Tracer, rounds: int, extra: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per round, as {name: (value, unit)}.

    `extra` carries what tracing does not see: the search counters, the
    verify retries and the rusage figures of the dispatch layer.
    """
    s = tracer.summary()
    c = tracer.counts
    r = float(rounds)

    def tot(name):
        return s[name]["s"] / r if name in s else 0.0

    def own(name):
        return s[name]["self_s"] / r if name in s else 0.0

    def calls(name):
        return s[name]["calls"] / r if name in s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    boxes = extra["search.boxes"]
    queries = c["kernels.queries"] / r
    cand = [t1 - t0 for name, t0, t1, _ in tracer.spans if name == "verify.candidate"]
    m = {
        "search.boxes": (boxes, "count"),
        "search.boxes_per_s": (ratio(boxes, tot("search.search")), "1/s"),
        "search.loop_self_s": (own("search.loop"), "s"),
        "search.core_use": (extra["search.core_use"], "ratio"),
        "exclusion.battery_s": (tot("exclusion.battery"), "s"),
        "exclusion.battery_self_s": (own("exclusion.battery"), "s"),
        "exclusion.boxes_per_call": (ratio(c["exclusion.boxes"] / r, calls("exclusion.battery")), "count"),
        "exclusion.excluded_share": (ratio(c["exclusion.excluded"], c["exclusion.boxes"]), "ratio"),
        "exclusion.cluster_box_s": (tot("exclusion.cluster_box"), "s"),
        "exclusion.cluster_box_calls": (calls("exclusion.cluster_box"), "count"),
        "model.accel_self_s": (own("model.accel"), "s"),
        "kernels.bound_s": (tot("kernels.bound"), "s"),
        "kernels.queries": (queries, "count"),
        "kernels.ns_per_query": (ratio(tot("kernels.bound") * 1e9, queries), "ns"),
        "kernels.queries_per_call": (ratio(queries, calls("kernels.bound")), "count"),
        "reduced.jacobian_self_s": (own("reduced.jacobian"), "s"),
        "reduced.residual_self_s": (own("reduced.residual"), "s"),
        "krawczyk.iterate_s": (tot("krawczyk.iterate"), "s"),
        "krawczyk.iterate_self_s": (own("krawczyk.iterate"), "s"),
        "krawczyk.boxes": (c["krawczyk.boxes"] / r, "count"),
        "krawczyk.decided_share": (ratio(c["krawczyk.decided"], c["krawczyk.boxes"]), "ratio"),
        "krawczyk.inverse_s": (tot("krawczyk.inverse"), "s"),
        "krawczyk.inverse_calls": (calls("krawczyk.inverse"), "count"),
        "krawczyk.contract_s": (tot("krawczyk.contract"), "s"),
        "bounds.setup_s": (tot("bounds.setup"), "s"),
        "classify.s": (tot("classify"), "s"),
        "classify.same_solution_s": (tot("classify.same_solution"), "s"),
        "classify.same_solution_calls": (calls("classify.same_solution"), "count"),
        "classify.symmetry_s": (tot("classify.symmetry"), "s"),
        "classify.symmetry_self_s": (own("classify.symmetry"), "s"),
        "verify.candidate_s": (statistics.median(cand) if cand else 0.0, "s"),
        "verify.retries": (extra["verify.retries"], "count"),
        "report.s": (tot("report"), "s"),
        "report.bytes": (c["report.bytes"] / r, "count"),
    }
    for key, value in extra["counters"].items():
        m[key] = (value, "count")
    return m
