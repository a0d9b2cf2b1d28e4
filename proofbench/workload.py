"""One run of one workload in a fresh process: set up, time whole rounds,
check every round with the independent checker, print one JSON line.

    python3 proofbench/workload.py --workload prove-n4 --seed 1 --seconds 20 --trace 0
    python3 proofbench/workload.py --workload prove-n4 --seed 1 --probe

`--probe` only times the set-up (`import ccenum` plus the problem
objects) and exits.  `--reference` only makes sure the serial counters
that a parallel workload is compared with are cached, so the timed
process stays free of that search.  `proofbench/run.py` starts this
script; it expects `src/ccenum` and `tests/data` under the working
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import n5part  # noqa: E402
import published  # noqa: E402

# name -> n of a search (with `part` for the n = 5 sub-boxes and `threads`),
# or the body counts of the candidates to verify (with `limit` per file)
WORKLOADS = {
    "prove-n4": {"n": 4},
    "prove-n5-part": {"n": 5, "part": True},
    "verify-n6-10": {"verify": (6, 7, 8, 9, 10)},
    "prove-n4-2proc": {"n": 4, "threads": 2},
    # short runs for the benchmark's own tests
    "prove-n3": {"n": 3},
    "verify-n6-pair": {"verify": (6,), "limit": 2},
}
MODULES = (
    "bounds",
    "classify",
    "exclusion",
    "kernels",
    "krawczyk",
    "model",
    "reduced",
    "report",
    "search",
    "verify",
)
# SearchStats.usage keys, printed as exclusion.<test> and krawczyk.<outcome>
COUNTER_KEYS = (
    "checkAprioriBounds",
    "checkUEqI",
    "clusterTest",
    "distanceTest",
    "checkZero",
    "krawczyk.zeroInside",
    "krawczyk.noZeroInSet",
    "krawczyk.methodFailed",
)
J_SLACK = 1e-12  # float rounding of the checker's own J
DELTA = 1e-6  # the verify command's default seed half-width


@dataclass
class Op:
    """One search of a domain or sub-box, or one candidate verified.

    `failed` says why the op failed: the program gave no proof for it
    (undecided boxes, a gauge failure, no certificate) or a check of its
    output failed.  `wrong` marks the second kind."""

    label: str
    failed: str = ""
    wrong: bool = False

    def fail(self, why: str, wrong: bool = True) -> None:
        self.failed = self.failed or why
        self.wrong = self.wrong or wrong


@dataclass
class Round:
    ops: list
    wall: float
    cpu: float
    out: dict = field(default_factory=dict)


def cpu_now() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# inputs made by the benchmark (not timed, no ccenum)


def polished_listed(data: Path, n: int):
    out = []
    for name, pts in published.listed(data, n):
        pol = checker.polish(pts)
        if pol is None:
            raise RuntimeError(f"listed configuration {name} (n={n}) does not polish")
        out.append((name, pol))
    return out


def make_inputs(workload: str, seed: int, data: Path) -> dict:
    """A complete proof has no free input; the seed draws the n = 5 sample
    of empty sub-boxes and the order of the verify candidates."""
    spec = WORKLOADS[workload]
    if "verify" in spec:
        cands = [
            (n, k, name)
            for n in spec["verify"]
            for k, (name, _) in enumerate(published.listed(data, n)[: spec.get("limit")])
        ]
        random.Random(seed).shuffle(cands)
        return {"candidates": cands, "listed": {n: polished_listed(data, n) for n in spec["verify"]}}
    n = spec["n"]
    inputs = {"n": n, "threads": spec.get("threads", 1), "listed": polished_listed(data, n)}
    if spec.get("part"):
        configs = n5part.listed_configurations(data)
        inputs["paths"] = [p for p, _ in n5part.PIECES]
        inputs["paths"] += n5part.sample_paths(seed, n5part.occupied_paths(configs))
        inputs["gauge_points"] = [z for _, pts in configs for z in pts]
    else:
        inputs["classes"] = published.DISTINCT[n]
    return inputs


# ---------------------------------------------------------------------------
# set-up (timed as setup_s): import ccenum and build the problem objects


def setup(inputs: dict, data: Path):
    t0 = time.perf_counter()
    import importlib

    import numpy as np

    st = {name: importlib.import_module(f"ccenum.{name}") for name in MODULES}
    if "candidates" in inputs:
        parsed = {}
        for n in sorted({c[0] for c in inputs["candidates"]}):
            text = (data / f"cc_n{n}.txt").read_text()
            parsed[n] = (st["verify"].parse_candidates(text), st["model"].Masses.equal(n))
        st["candidates"] = [
            (n, k, name, parsed[n][0][k], parsed[n][1]) for n, k, name in inputs["candidates"]
        ]
    else:
        n = inputs["n"]
        search = st["search"]
        st["cfg"] = search.SearchConfig(n=n, threads=inputs["threads"])
        st["masses"] = st["model"].Masses.equal(n)
        st["domain"] = search.initial_domain(st["cfg"])
        st["reduced"].reduced_ctx(st["masses"])
        st["bounds"].compute_bounds(n, st["masses"])
        if "paths" in inputs:
            boxes = [n5part.box(path) for path in inputs["paths"]]
            st["boxes"] = [
                st["reduced"].ReducedBox.from_arrays(np.array(lo), np.array(hi)) for lo, hi in boxes
            ]
        else:
            st["boxes"] = [st["domain"]]
    return st, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# rounds (timed as wall_s and cpu_s)


def run_round(st: dict, inputs: dict) -> Round:
    """One whole proof: the searches, classify and the report, or every
    candidate verified and the report."""
    search, classify, report = st["search"], st["classify"], st["report"]
    c0 = cpu_now()
    t0 = time.perf_counter()
    if "candidates" in st:
        results = [
            st["verify"].verify_candidate(k, pts, masses, delta=DELTA)
            for n, k, name, pts, masses in st["candidates"]
        ]
        report.render_verify_report(results, DELTA)
        out = {"results": results}
        ops = [Op(f"n{n}/{name}") for n, k, name, _, _ in st["candidates"]]
    else:
        per_box = [search.search(b, st["cfg"], st["masses"]) for b in st["boxes"]]
        records = classify.classify_solutions([s for p in per_box for s in p[0]], st["masses"])
        stats = search.SearchStats()
        for p in per_box:
            stats.merge(p[1])
        minutes = (time.perf_counter() - t0) / 60.0
        report.render_search_report(
            st["cfg"], st["masses"], st["domain"], stats, records, minutes
        )
        out = {"per_box": per_box, "records": records, "stats": stats}
        ops = [Op(label) for label in inputs.get("paths", ["domain"])]
    wall = time.perf_counter() - t0
    return Round(ops, wall, cpu_now() - c0, out)


# ---------------------------------------------------------------------------
# checks (not timed)


def box_lists(sol):
    lo, hi = sol.reduced.arrays()
    return lo.tolist(), hi.tolist()


def check_box(sol, listed, op: Op):
    """The polished zero of a certified box and the listed configuration it
    is, or None; failures go on the op."""
    lo, hi = box_lists(sol)
    if not sol.gauge_valid:
        op.fail("gauge not valid", wrong=False)
    elif not checker.gauge_valid(lo, hi):
        op.fail("gauge reported valid, but the x ranges of bodies n-2 and n-1 meet")
    z = checker.newton([(a + b) / 2 for a, b in zip(lo, hi)])
    if z is None or not checker.box_contains(lo, hi, z):
        op.fail("box does not contain the zero polished from its midpoint")
        return None
    pts = checker.bodies_from_reduced(z)
    for name, pol in listed:
        if checker.same_configuration(pts, pol):
            return name, z
    op.fail("certified zero is no listed configuration")
    return None


def symmetry_problems(sym, z, expect_symmetric: bool) -> list:
    """The verdict agrees with the float axes, and a claimed axis and
    permutation map the polished configuration onto itself."""
    if sym is None:
        return ["no symmetry verdict"]
    pts = checker.bodies_from_reduced(z)
    axes = checker.symmetry_axes(pts)
    out = []
    if expect_symmetric and not sym.symmetric:
        out.append(f"verdict {sym.verdict}, expected a certified symmetry")
    if not expect_symmetric and sym.verdict != "ProvedAsymmetric":
        out.append(f"verdict {sym.verdict}, expected ProvedAsymmetric")
    if sym.symmetric != bool(axes):
        out.append(f"verdict {sym.verdict}, but the float check finds {len(axes)} axes")
    if sym.ox_permutation is not None and not checker.axis_holds(
        pts, sym.ox_permutation, axis=(1.0, 0.0)
    ):
        out.append("the OX permutation does not map the configuration onto itself")
    # the stored line axis is only the bisector that was tried (the proof
    # re-gauges the reflected copy), so only its permutation is checked
    if sym.line is not None and not checker.axis_holds(pts, sym.line.permutation):
        out.append("the line permutation is carried by no symmetry axis")
    return out


def j_contains(J, value: float, slack: float = J_SLACK) -> bool:
    return J.lo - slack <= value <= J.hi + slack


def check_search_round(rnd: Round, inputs: dict) -> list:
    """Per-op failures go on the ops; returns the problems of the round as
    a whole (classes, symmetry, J)."""
    listed = inputs["listed"]
    n = inputs["n"]
    zeros = {}  # id(certified box) -> (name, polished zero)
    for op, (sols, stats, undec) in zip(rnd.ops, rnd.out["per_box"]):
        if stats.undecided or undec:
            op.fail(f"{stats.undecided} undecided boxes", wrong=False)
        for sol in sols:
            hit = check_box(sol, listed, op)
            if hit is not None:
                zeros[id(sol)] = hit
        if "gauge_points" in inputs:
            lo, hi = n5part.box(op.label)
            boxes = [box_lists(s) for s in sols]
            for z in inputs["gauge_points"]:
                if checker.box_contains(lo, hi, z) and not any(
                    checker.box_contains(a, b, z) for a, b in boxes
                ):
                    op.fail("a listed configuration in the sub-box lies in no certified box")
    problems = []
    names = []
    for rec in rnd.out["records"]:
        member = {zeros[id(m)][0] if id(m) in zeros else None for m in rec.members}
        if len(member) != 1 or None in member:
            problems.append(f"a class mixes {sorted(map(str, member))}")
            continue
        name = member.pop()
        names.append(name)
        z = zeros[id(rec.representative)][1]
        J = rec.representative.scalars.J
        if not j_contains(J, checker.scalars(checker.bodies_from_reduced(z))[2]):
            problems.append(f"{name}: the J enclosure misses the float J")
        problems += [f"{name}: {p}" for p in symmetry_problems(rec.symmetry, z, True)]
        if n == 4 and name == "square" and not j_contains(J, published.SQUARE_J, 0.0):
            problems.append("square: the J enclosure misses (1/4)(1/4 + 1/sqrt 2)")
        if n == 5:
            lo, hi = published.N5_J[name]
            if J.hi < lo or J.lo > hi:
                problems.append(f"{name}: J misses the published interval [{lo}, {hi}]")
    held = {name for name, _ in zeros.values()}
    if len(set(names)) != len(names) or set(names) != held:
        problems.append(f"classes {sorted(names)}, certified boxes hold {sorted(held)}")
    if "classes" in inputs and len(names) != inputs["classes"]:
        problems.append(f"{len(names)} classes for n = {n}, expected {inputs['classes']}")
    return problems


def check_verify_round(rnd: Round, st: dict, inputs: dict) -> list:
    """Per-candidate checks; every failure goes on its op, so the round as a
    whole has no problems of its own."""
    for op, res, (n, k, name, _, _) in zip(rnd.ops, rnd.out["results"], st["candidates"]):
        if not res.certified:
            op.fail(f"not certified: {res.message}", wrong=False)
            continue
        listed = [(nm, pol) for nm, pol in inputs["listed"][n] if nm == name]
        hit = check_box(res.solution, listed, op)
        if hit is None:
            continue
        J = res.solution.scalars.J
        probs = symmetry_problems(res.symmetry, hit[1], n <= 7)
        if not j_contains(J, checker.scalars(checker.bodies_from_reduced(hit[1]))[2]):
            probs.append("the J enclosure misses the float J")
        if n >= 8 and not j_contains(J, published.ASYM_J[n][k], published.ASYM_J_TOL):
            probs.append(f"J is not within 1e-6 of the published {published.ASYM_J[n][k]}")
        for p in probs:
            op.fail(p)
    return []


# ---------------------------------------------------------------------------
# the two-process tree must equal the serial one


def counters_of(stats) -> dict:
    out = {"boxes": stats.calls, "zeros": stats.zeros_found, "undecided": stats.undecided}
    out.update(stats.usage)
    return out


def serial_cache(root: Path, n: int) -> Path:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ccenum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return root / ".proofbench" / f"serial-n{n}-{h.hexdigest()[:16]}.json"


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def serial_reference(st: dict, root: Path) -> dict:
    """Counters of a serial search of the same domain and source tree,
    cached per source digest (a serial complete proof writes the same file)."""
    n = st["cfg"].n
    cache = serial_cache(root, n)
    if not cache.exists():
        search = st["search"]
        _, stats, _ = search.search(st["domain"], search.SearchConfig(n=n), st["masses"])
        write_atomic(cache, json.dumps(counters_of(stats), sort_keys=True))
    return json.loads(cache.read_text())


# ---------------------------------------------------------------------------


def traced_metrics(tracer, rounds, st) -> dict:
    import spans

    wall = sum(r.wall for r in rounds)
    cpu = sum(r.cpu for r in rounds)
    workers = st["cfg"].threads if "cfg" in st else 1
    counters = rounds[-1].out.get("counters", {})
    retries = sum(
        round(math.log2(res.delta_used / DELTA))
        for r in rounds
        for res in r.out.get("results", [])
        if res.certified
    )
    extra = {
        "search.boxes": counters.get("boxes", 0),
        "search.core_use": cpu / (wall * workers),
        "verify.retries": retries / len(rounds),
        "counters": {
            (k if k.startswith("krawczyk") else "exclusion." + k): counters.get(k, 0)
            for k in COUNTER_KEYS
        },
    }
    metrics = spans.layer_metrics(tracer, len(rounds), extra)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    data = root / "tests" / "data"
    inputs = make_inputs(args.workload, args.seed, data)
    st, setup_s = setup(inputs, data)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.reference:
        print(json.dumps(serial_reference(st, root)))
        return 0

    threads = inputs.get("threads", 1)
    reference = None
    if threads > 1:
        reference = json.loads(serial_cache(root, inputs["n"]).read_text())
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(root / ".proofbench" / f"spool-{os.getpid()}")
        tracer.spool.mkdir(parents=True, exist_ok=True)
        tracer.install(st)

    rounds: list[Round] = []
    problems: list[str] = []
    t_start = time.perf_counter()
    while True:
        rnd = run_round(st, inputs)
        if tracer is not None:
            tracer.collect_workers()
        if "candidates" in st:
            round_problems = check_verify_round(rnd, st, inputs)
        else:
            round_problems = check_search_round(rnd, inputs)
            counters = rnd.out["counters"] = counters_of(rnd.out["stats"])
            cache = serial_cache(root, inputs["n"])
            if threads == 1 and "classes" in inputs and not cache.exists():
                write_atomic(cache, json.dumps(counters, sort_keys=True))
            if reference is not None and counters != reference:
                round_problems.append(f"two-process tree {counters} != serial {reference}")
        problems += round_problems
        for op in rnd.ops:
            if round_problems:
                op.fail("a check of the whole round failed")
            if op.failed:
                problems.append(f"{op.label}: {op.failed}")
        rnd.out.pop("per_box", None)  # let the boxes of finished rounds go
        rnd.out.pop("records", None)
        rounds.append(rnd)
        if time.perf_counter() - t_start + rnd.wall > args.seconds:
            break

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "workload": args.workload,
        "correct": not any(op.wrong for r in rounds for op in r.ops),
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(1 for r in rounds for op in r.ops if op.failed),
        "problems": problems[:20],
        "rounds": len(rounds),
        "wall_s": statistics.median(r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": (me.ru_maxrss + kids.ru_maxrss) / 1024.0,
        "child_setup_s": setup_s,
        "counters": rounds[-1].out.get("counters", {}),
    }
    if tracer is not None:
        tracer.remove()
        result["layers"] = traced_metrics(tracer, rounds, st)
        tracer.spool.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
