"""Command line driver.

Three subcommands: `search` enumerates and certifies every central
configuration for n equal masses, `verify` certifies candidate point
configurations from a file, `bench` times searches over a parameter grid.
Flags are the only settings.  A refused setting (n outside 3..7 without
`--allow-large` among them), an unreadable candidates file, an output
file that names a directory or lies in a missing one, or an `--svg-dir`
that cannot be created exits with code 2 before any work; otherwise the
exit code is 0 only for complete proofs / fully verified runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import report as report_mod
from .classify import classify_solutions
from .model import Masses
from .search import ORDERINGS, SearchConfig, initial_domain, search
from .verify import DELTA, parse_candidates, verify_candidate


ALLOW_LARGE_HELP = "permit n outside 3..7 (expect astronomical runtimes)"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ccenum", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("search", help="enumerate all central configurations for n equal masses")
    ps.add_argument("--n", type=int, default=3)
    ps.add_argument("--eps", type=float, default=SearchConfig.eps)
    ps.add_argument("--bias", type=float, default=SearchConfig.bias)
    ps.add_argument("--ordering", choices=ORDERINGS, default=SearchConfig.ordering)
    ps.add_argument("--threads", type=int, default=SearchConfig.threads)
    ps.add_argument("--report", type=Path)
    ps.add_argument("--solutions", type=Path)
    ps.add_argument("--svg-dir", type=Path)
    ps.add_argument("--allow-large", action="store_true", help=ALLOW_LARGE_HELP)

    pv = sub.add_parser("verify", help="certify candidate configurations from a file")
    pv.add_argument("--candidates", type=Path, required=True, help='file of "x y" lines, blank-line separated')
    pv.add_argument("--delta", type=float, default=DELTA)
    pv.add_argument("--report", type=Path)
    pv.add_argument("--svg-dir", type=Path)

    pb = sub.add_parser("bench", help="time searches over an (n, bias, ordering) grid")
    pb.add_argument("--n-list", default="4")
    pb.add_argument("--bias-list", default=str(SearchConfig.bias))
    pb.add_argument("--ordering-list", default=SearchConfig.ordering)
    pb.add_argument("--eps", type=float, default=SearchConfig.eps)
    pb.add_argument("--out", type=Path)
    pb.add_argument("--allow-large", action="store_true", help=ALLOW_LARGE_HELP)
    return p


def _check_outputs(*paths: Path | None) -> None:
    """Refuse, before any work, an output file that names a directory or
    whose directory is missing."""
    for path in paths:
        if path is None:
            continue
        if path.is_dir():
            raise ValueError(f"output file {path} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"no directory {path.parent} to write {path.name} in")


def _check_n(n: int, allow_large: bool) -> None:
    if not (3 <= n <= 7) and not allow_large:
        raise ValueError(f"n={n} outside 3..7; pass --allow-large to insist")


def _make_svg_dir(path: Path | None) -> None:
    """Create the figure directory before any work, or refuse it."""
    if path is not None:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot create the figure directory {path}: {exc}") from exc


def _emit(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_search(args) -> int:
    try:
        _check_n(args.n, args.allow_large)
        cfg = SearchConfig(
            n=args.n,
            eps=args.eps,
            bias=args.bias,
            ordering=args.ordering,
            threads=args.threads,
        )
        _check_outputs(args.report, args.solutions)
        _make_svg_dir(args.svg_dir)
    except ValueError as exc:
        print(f"ccenum search: {exc}", file=sys.stderr)
        return 2
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
        for k, rec in enumerate(records):
            svg = report_mod.render_svg(rec.representative, rec.symmetry)
            (args.svg_dir / f"cc_n{args.n}_{k}.svg").write_text(svg)
    proof = stats.undecided == 0 and all(r.representative.gauge_valid for r in records)
    if not proof:
        print("NOT A PROOF: undecided cubes or gauge failures remain", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    try:
        _check_outputs(args.report)
        try:
            text = args.candidates.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read the candidates: {exc}") from exc
        candidates = parse_candidates(text)
        if not candidates:
            raise ValueError(f"no candidate in {args.candidates}")
        _make_svg_dir(args.svg_dir)
        results = [
            verify_candidate(k, pts, Masses.equal(len(pts)), delta=args.delta)
            for k, pts in enumerate(candidates)
        ]
    except ValueError as exc:
        print(f"ccenum verify: {exc}", file=sys.stderr)
        return 2
    out = report_mod.render_verify_report(results, args.delta)
    _emit(args.report, out)
    if args.svg_dir is not None:
        for res in results:
            if res.certified:
                svg = report_mod.render_svg(res.solution, res.symmetry)
                (args.svg_dir / f"candidate_{res.index}.svg").write_text(svg)
    proof = all(r.certified and r.solution.gauge_valid for r in results)
    return 0 if proof else 1


def cmd_bench(args) -> int:
    try:
        grid = [
            SearchConfig(n=int(n), eps=args.eps, bias=float(bias), ordering=ordering.strip())
            for n in str(args.n_list).split(",")
            if n.strip()
            for bias in str(args.bias_list).split(",")
            if bias.strip()
            for ordering in str(args.ordering_list).split(",")
            if ordering.strip()
        ]
        for cfg in grid:
            _check_n(cfg.n, args.allow_large)
        _check_outputs(args.out)
    except ValueError as exc:
        print(f"ccenum bench: {exc}", file=sys.stderr)
        return 2
    rows = []
    for cfg in grid:
        t0 = time.perf_counter()
        _, stats, undec = search(initial_domain(cfg), cfg, Masses.equal(cfg.n))
        dt = time.perf_counter() - t0
        rows.append(
            {
                "n": cfg.n,
                "bias": cfg.bias,
                "ordering": cfg.ordering,
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
