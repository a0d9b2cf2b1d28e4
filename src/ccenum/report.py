"""Report emission, solution-file round trip and SVG figures.

The text report mirrors the established layout: input-data block, undecided
and zero counts, per-test usage counters, then one block per distinct
configuration with body intervals, the scalar enclosures and the symmetry
lines.  The solutions file is line-delimited JSON with hexadecimal float
bounds so a round trip is bit exact.
"""

from __future__ import annotations

import json
from typing import Iterable

from . import reduced as reduced_mod
from .classify import CCRecord, full_bodies
from .interval import Interval
from .model import Masses
from .reduced import ReducedBox
from .search import SearchConfig, SearchStats, SolutionBox, make_solution


def g10(x: float) -> str:
    return f"{x:.10g}"


def fmt_iv(iv: Interval) -> str:
    return f"[{g10(iv.lo)}, {g10(iv.hi)}]"


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
    bodies = full_bodies(domain, masses)
    for i, (x, y) in enumerate(bodies):
        m = masses.values[i]
        out.append(f"i: {i} X: {fmt_iv(x)} Y: {fmt_iv(y)} mass: {fmt_iv(m)}")
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
    collinear_no = 0
    ox_no = 0
    line_no = 0
    for pos, rec in enumerate(records):
        out.append("---------------------")
        out.append(f"position {pos}")
        out.extend(_render_record_block(rec, masses))
        if not rec.representative.gauge_valid:
            out.append("NOT PROVEN: the pinned and derived bodies may share x")
        if rec.collinear:
            collinear_no += 1
            out.append(f"collinear solution no {collinear_no}")
        sym = rec.symmetry
        if sym is not None and sym.ox_permutation is not None:
            ox_no += 1
            out.append("permutation: " + "".join(f"{p}, " for p in sym.ox_permutation).rstrip())
            out.append(f"symmetric with respect to OX no {ox_no}")
        else:
            out.append("there is no symmetry with respect to OX")
        if sym is not None and sym.line is not None:
            line_no += 1
            out.append("permutation: " + "".join(f"{p}, " for p in sym.line.permutation).rstrip())
            out.append(f"reflectional symmetry with respect to other line {line_no}")
        out.append("")
    out.append(f"Number of different cc = {len(records)}")
    out.append("")
    return "\n".join(out)


def _render_record_block(rec: CCRecord, masses: Masses) -> list[str]:
    s = rec.representative
    bodies = full_bodies(s.reduced, masses)
    lines = []
    for i, (x, y) in enumerate(bodies):
        lines.append(f"i: {i} X: {fmt_iv(x)} Y: {fmt_iv(y)}")
    lines.append("")
    sc = s.scalars
    lines.append(f"U = {fmt_iv(sc.U)}, I = {fmt_iv(sc.I)},")
    lines.append(f"U*(I)^(1/2)/(M)^(5/2) = {fmt_iv(sc.J)}")
    lines.append(f"Moeckel's potential = {fmt_iv(sc.P_moeckel)}")
    lines.append("")
    return lines


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
        out.extend(
            _render_record_block(
                CCRecord(representative=res.solution, members=[res.solution]), res.masses
            )
        )
        if not res.solution.gauge_valid:
            out.append("NOT PROVEN: the pinned and derived bodies may share x")
        if res.collinear:
            out.append("collinear solution")
        sym = res.symmetry
        if sym.ox_permutation is not None:
            out.append("permutation: " + "".join(f"{p}, " for p in sym.ox_permutation).rstrip())
            out.append("symmetric with respect to OX")
        else:
            out.append("there is no symmetry with respect to OX")
        if sym.line is not None:
            out.append("permutation: " + "".join(f"{p}, " for p in sym.line.permutation).rstrip())
            out.append("reflectional symmetry with respect to other line")
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
    raises ValueError on a box `ReducedBox.from_arrays` refuses."""
    rctx = reduced_mod.reduced_ctx(masses)
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        pairs = json.loads(line)["reduced"]
        lo = [float.fromhex(a) for a, _ in pairs]
        hi = [float.fromhex(b) for _, b in pairs]
        out.append(make_solution(rctx, lo, hi, masses))
    return out


# ---------------------------------------------------------------------------
# SVG figures


def render_svg(rec: CCRecord, masses: Masses, size: int = 360) -> str:
    """One figure per configuration: bodies as dots, certified symmetry
    lines in red, the derived body included (non-normative styling)."""
    bodies = full_bodies(rec.representative.reduced, masses)
    pts = [(x.mid, y.mid) for x, y in bodies]
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
    sym = rec.symmetry
    axes = []
    if sym is not None and sym.ox_permutation is not None:
        axes.append((1.0, 0.0))
    if sym is not None and sym.line is not None:
        axes.append((sym.line.axis_x.mid, sym.line.axis_y.mid))
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
