"""Report emission, solution-file round trip and SVG figures.

The text report mirrors the established layout: input-data block, undecided
and zero counts, per-test usage counters, then one block per distinct
configuration with body intervals, the scalar enclosures and the symmetry
lines.  The solutions file is line-delimited JSON with hexadecimal float
bounds so a round trip is bit exact.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from . import reduced as reduced_mod
from .classify import CCRecord, SymmetryResult, full_bodies
from .interval import Interval
from .model import Masses
from .reduced import ReducedBox
from .search import SearchConfig, SearchStats, SolutionBox, make_solution


def g10(x: float) -> str:
    return f"{x:.10g}"


def fmt_iv(lo: float, hi: float) -> str:
    return f"[{g10(lo)}, {g10(hi)}]"


USAGE_ORDER = (
    ("checkAprioriBounds", "checkAprioriBounds"),
    ("clusterTest", "clusterTest"),
    ("distanceTest", "distanceTest"),
    ("checkZero", "checkZero"),
    ("krawczyk: methodFailed ", "krawczyk.methodFailed"),
    ("krawczyk: zeroIside", "krawczyk.zeroInside"),
    ("krawczyk: no zero inside", "krawczyk.noZeroInSet"),
    ("U = I", "checkUEqI"),
)


def render_search_report(
    cfg: SearchConfig,
    masses: Masses,
    domain: ReducedBox,
    stats: SearchStats,
    records: list[CCRecord],
    minutes: float,
) -> str:
    n = cfg.n
    out: list[str] = []
    out.append(f"Number of bodies = {n}")
    out.append(f"Accuracy eps = {cfg.eps:g}, bias = {cfg.bias:g}")
    out.append("")
    out.append("Input data:")
    mass = fmt_iv(masses.m.lo, masses.m.hi)
    for body in _body_lines(domain):
        out.append(f"{body} mass: {mass}")
    out.append("")
    out.append("")
    out.append(f"The number of undecided cubes: {stats.undecided}")
    out.append(f"The number of zeros in the method: {stats.zeros_found}")
    out.append(f"The number of calls the main search function: {stats.calls}")
    out.append("")
    out.append(f"Program computed {g10(minutes)} minutes")
    out.append("")
    out.append("Tests usage:")
    for label, key in USAGE_ORDER:
        out.append(f"{label} -- {stats.usage.get(key, 0)}")
    out.append("")
    if stats.undecided > 0:
        out.append("*** NOT A PROOF: undecided cubes remain ***")
        out.append("")
    out.append("Different CC:")
    tally = Counter()
    for pos, rec in enumerate(records):
        out.append("---------------------")
        out.append(f"position {pos}")
        out.extend(_solution_lines(rec.representative, rec.symmetry, tally))
        out.append("")
    out.append(f"Number of different cc = {len(records)}")
    out.append("")
    return "\n".join(out)


def _body_lines(box: ReducedBox) -> list[str]:
    lo, hi = full_bodies(box)
    return [
        f"i: {i} X: {fmt_iv(xlo, xhi)} Y: {fmt_iv(ylo, yhi)}"
        for i, ((xlo, ylo), (xhi, yhi)) in enumerate(zip(lo.tolist(), hi.tolist()))
    ]


def _solution_lines(s: SolutionBox, sym: SymmetryResult, tally: Counter | None = None) -> list[str]:
    """The bodies, the scalars, the gauge warning and the collinear, OX and
    line verdicts of one configuration.  A search report numbers each
    verdict across its records in `tally`; a verify report numbers none."""

    def numbered(text: str, key: str, sep: str = " no ") -> str:
        if tally is None:
            return text
        tally[key] += 1
        return f"{text}{sep}{tally[key]}"

    def permutation(perm) -> str:
        return "permutation: " + "".join(f"{p}, " for p in perm).rstrip()

    sc = s.scalars
    U, I, J, P = (fmt_iv(v.lo, v.hi) for v in (sc.U, sc.I, sc.J, sc.P_moeckel))
    out = _body_lines(s.reduced) + [
        "",
        f"U = {U}, I = {I},",
        f"U*(I)^(1/2)/(M)^(5/2) = {J}",
        f"Moeckel's potential = {P}",
        "",
    ]
    if not s.gauge_valid:
        out.append("NOT PROVEN: the pinned and derived bodies may share x")
    if sym.collinear:
        out.append(numbered("collinear solution", "collinear"))
    if sym.ox_permutation is not None:
        out.append(permutation(sym.ox_permutation))
        out.append(numbered("symmetric with respect to OX", "ox"))
    else:
        out.append("there is no symmetry with respect to OX")
    if sym.line is not None:
        out.append(permutation(sym.line.permutation))
        out.append(numbered("reflectional symmetry with respect to other line", "line", " "))
    return out


def render_verify_report(results, delta: float) -> str:
    out = []
    out.append(f"Verification of {len(results)} candidate configurations")
    out.append(f"initial half-width delta = {delta:g}")
    out.append("")
    certified = 0
    for res in results:
        out.append("---------------------")
        out.append(f"candidate {res.index}")
        if not res.certified:
            out.append(f"NOT CERTIFIED: {res.message}")
            out.append("")
            continue
        certified += 1
        out.append(f"unique zero certified (delta = {res.delta_used:g})")
        sym = res.symmetry
        out.extend(_solution_lines(res.solution, sym))
        if sym.verdict == "ProvedAsymmetric":
            out.append("no reflectional symmetry exists (certified)")
        elif not sym.symmetric:
            out.append("symmetry undetermined")
        out.append("")
    out.append(f"Certified candidates: {certified} / {len(results)}")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# machine-readable solutions file (bit-exact round trip)


def _iv_hex(iv: Interval) -> list[str]:
    return [float.hex(iv.lo), float.hex(iv.hi)]


def dump_solutions(solutions: Iterable[SolutionBox], masses: Masses) -> str:
    lines = []
    for s in solutions:
        lo, hi = s.reduced.arrays()
        rec = {
            "n": masses.n,
            "reduced": [[a.hex(), b.hex()] for a, b in zip(lo.tolist(), hi.tolist())],
            "scalars": {
                "U": _iv_hex(s.scalars.U),
                "I": _iv_hex(s.scalars.I),
                "J": _iv_hex(s.scalars.J),
                "P": _iv_hex(s.scalars.P_moeckel),
            },
            "gauge_valid": s.gauge_valid,
        }
        lines.append(json.dumps(rec))
    return "\n".join(lines) + ("\n" if lines else "")


def load_solutions(text: str, masses: Masses) -> list[SolutionBox]:
    """Solutions from `dump_solutions` text, re-derived from their boxes;
    raises ValueError on a line of another n than `masses` or a box
    `ReducedBox.from_arrays` refuses."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        pairs = rec["reduced"]
        if rec["n"] != masses.n or len(pairs) != reduced_mod.dim_for(masses.n):
            raise ValueError(f"line for n = {rec['n']}, {len(pairs)} bounds, not n = {masses.n}")
        lo = [float.fromhex(a) for a, _ in pairs]
        hi = [float.fromhex(b) for _, b in pairs]
        out.append(make_solution(lo, hi, masses))
    return out


# ---------------------------------------------------------------------------
# SVG figures


# width and height of the SVG figures, in pixels
SVG_SIZE = 360


def render_svg(solution: SolutionBox, symmetry: SymmetryResult) -> str:
    """One figure per configuration: bodies as dots, certified symmetry
    lines in red, the derived body included (non-normative styling)."""
    size = SVG_SIZE
    lo, hi = full_bodies(solution.reduced)
    pts = (0.5 * (lo + hi)).tolist()
    span = max(max(abs(px), abs(py)) for px, py in pts) * 1.25 + 1e-9
    scale = size / (2 * span)

    def sx(v):
        return size / 2 + v * scale

    def sy(v):
        return size / 2 - v * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" stroke="#ccc"/>',
        f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" stroke="#ccc"/>',
    ]
    axes = []
    if symmetry.ox_permutation is not None:
        axes.append((1.0, 0.0))
    if symmetry.line is not None:
        axes.append((symmetry.line.axis_x.mid, symmetry.line.axis_y.mid))
    for cx, cy in axes:
        parts.append(
            f'<line x1="{sx(-span * cx):.2f}" y1="{sy(-span * cy):.2f}" '
            f'x2="{sx(span * cx):.2f}" y2="{sy(span * cy):.2f}" '
            'stroke="red" stroke-width="1.2"/>'
        )
    for i, (px, py) in enumerate(pts):
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="4" fill="black"/>')
        parts.append(
            f'<text x="{sx(px) + 6:.1f}" y="{sy(py) - 6:.1f}" font-size="11">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def render_bench_csv(rows: list[dict]) -> str:
    header = "n,bias,ordering,seconds,calls,zeros,undecided,excluded_total"
    lines = [header]
    for r in rows:
        lines.append(
            f'{r["n"]},{r["bias"]:g},{r["ordering"]},{r["seconds"]:.3f},'
            f'{r["calls"]},{r["zeros"]},{r["undecided"]},{r["excluded_total"]}'
        )
    return "\n".join(lines) + "\n"
