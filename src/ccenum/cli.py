"""Command line driver.

Three subcommands: `search` enumerates and certifies every central
configuration for n equal masses, `verify` certifies candidate point
configurations from a file, `bench` times searches over a parameter grid.
Every flag can also be set through an environment variable with the
CCENUM_ prefix (e.g. CCENUM_BIAS for --bias).  The exit code is 0 only
for complete proofs / fully verified runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import report as report_mod
from .classify import classify_solutions
from .model import Masses
from .search import ORDERINGS, SearchConfig, initial_domain, search
from .verify import parse_candidates, verify_candidate


def _env(name: str, default):
    return os.environ.get(f"CCENUM_{name.upper()}", default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ccenum", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("search", help="enumerate all central configurations for n equal masses")
    ps.add_argument("--n", type=int, default=int(_env("n", 3)))
    ps.add_argument("--eps", type=float, default=float(_env("eps", 1e-5)))
    ps.add_argument("--bias", type=float, default=float(_env("bias", 1e-2)))
    ps.add_argument("--overlap", type=float, default=float(_env("overlap", 1e-3)))
    ps.add_argument("--ordering", choices=ORDERINGS, default=_env("ordering", "decreasing"))
    ps.add_argument("--threads", type=int, default=int(_env("threads", 1)))
    ps.add_argument("--report", type=Path, default=_env("report", None))
    ps.add_argument("--solutions", type=Path, default=_env("solutions", None))
    ps.add_argument("--svg-dir", type=Path, default=_env("svg_dir", None))
    ps.add_argument(
        "--allow-large",
        action="store_true",
        default=_env("allow_large", "").strip().lower() not in ("", "0", "false", "no"),
        help="permit n outside 3..7 (expect astronomical runtimes)",
    )

    pv = sub.add_parser("verify", help="certify candidate configurations from a file")
    pv.add_argument("--candidates", type=Path, required=True, help='file of "x y" lines, blank-line separated')
    pv.add_argument("--delta", type=float, default=float(_env("delta", 1e-6)))
    pv.add_argument("--report", type=Path, default=_env("report", None))
    pv.add_argument("--svg-dir", type=Path, default=_env("svg_dir", None))

    pb = sub.add_parser("bench", help="time searches over an (n, bias, ordering) grid")
    pb.add_argument("--n-list", default=_env("n_list", "4"))
    pb.add_argument("--bias-list", default=_env("bias_list", "1e-2"))
    pb.add_argument("--ordering-list", default=_env("ordering_list", "decreasing"))
    pb.add_argument("--eps", type=float, default=float(_env("eps", 1e-5)))
    pb.add_argument("--out", type=Path, default=_env("out", None))
    return p


def _emit(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_search(args) -> int:
    if not (3 <= args.n <= 7) and not args.allow_large:
        print(f"n={args.n} outside 3..7; pass --allow-large to insist", file=sys.stderr)
        return 2
    cfg = SearchConfig(
        n=args.n,
        eps=args.eps,
        bias=args.bias,
        overlap=args.overlap,
        ordering=args.ordering,
        threads=args.threads,
    )
    masses = Masses.equal(args.n)
    domain = initial_domain(cfg)
    t0 = time.perf_counter()
    solutions, stats, undecided = search(domain, cfg, masses)
    records = classify_solutions(solutions, masses)
    minutes = (time.perf_counter() - t0) / 60.0
    text = report_mod.render_search_report(cfg, masses, domain, stats, records, minutes)
    _emit(args.report, text)
    if args.solutions is not None:
        Path(args.solutions).write_text(report_mod.dump_solutions(solutions, masses))
    if args.svg_dir is not None:
        outdir = Path(args.svg_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for k, rec in enumerate(records):
            (outdir / f"cc_n{args.n}_{k}.svg").write_text(report_mod.render_svg(rec, masses))
    proof = stats.undecided == 0 and all(r.representative.gauge_valid for r in records)
    if not proof:
        print("NOT A PROOF: undecided cubes or gauge failures remain", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    text = Path(args.candidates).read_text()
    configs = parse_candidates(text)
    results = []
    for k, pts in enumerate(configs):
        masses = Masses.equal(len(pts))
        results.append(verify_candidate(k, pts, masses, delta=args.delta))
    out = report_mod.render_verify_report(results, args.delta)
    _emit(args.report, out)
    if args.svg_dir is not None:
        from .classify import CCRecord

        outdir = Path(args.svg_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for res in results:
            if res.certified:
                rec = CCRecord(
                    representative=res.solution,
                    members=[res.solution],
                    symmetry=res.symmetry,
                    collinear=res.collinear,
                )
                (outdir / f"candidate_{res.index}.svg").write_text(
                    report_mod.render_svg(rec, res.masses)
                )
    proof = all(r.certified and r.solution.gauge_valid for r in results)
    return 0 if proof else 1


def cmd_bench(args) -> int:
    ns = [int(v) for v in str(args.n_list).split(",") if v.strip()]
    biases = [float(v) for v in str(args.bias_list).split(",") if v.strip()]
    orderings = [v.strip() for v in str(args.ordering_list).split(",") if v.strip()]
    rows = []
    for n in ns:
        masses = Masses.equal(n)
        for bias in biases:
            for ordering in orderings:
                cfg = SearchConfig(n=n, eps=args.eps, bias=bias, ordering=ordering)
                t0 = time.perf_counter()
                _, stats, undec = search(initial_domain(cfg), cfg, masses)
                dt = time.perf_counter() - t0
                rows.append(
                    {
                        "n": n,
                        "bias": bias,
                        "ordering": ordering,
                        "seconds": dt,
                        "calls": stats.calls,
                        "zeros": stats.zeros_found,
                        "undecided": stats.undecided,
                        "excluded_total": sum(
                            v for k, v in stats.usage.items() if not k.startswith("krawczyk")
                        ),
                    }
                )
    _emit(args.out, report_mod.render_bench_csv(rows))
    if any(r["undecided"] for r in rows):
        print("NOT A PROOF: undecided cubes remain in the grid", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "search":
        return cmd_search(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
