"""Verification mode: certify candidate configurations given as points.

Each candidate is re-gauged (center of mass to the origin, furthest body
rotated onto the positive x axis and moved to slot n-2), seeded as a box
of half-width delta and certified with the operator iteration, doubling
delta on failure.  Certified solutions are contracted to tight enclosures
before the scalars and the symmetry verdict are computed; the contraction
stops at the first operator step that does not halve the widest edge
(`krawczyk.contract`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classify, krawczyk
from . import reduced as reduced_mod
from .classify import SymmetryResult
from .model import Masses
from .search import SolutionBox, make_solution

# the seed half-width tried first, and the largest tried before a candidate
# counts as uncertified
DELTA = 1e-6
DELTA_MAX = 1e-3


@dataclass
class VerifyResult:
    index: int
    certified: bool
    delta_used: float | None
    solution: SolutionBox | None
    symmetry: SymmetryResult | None
    message: str = ""


def parse_candidates(text: str) -> list[list[tuple[float, float]]]:
    """Point configurations: one body per line "x y", blank line separated.
    Raises ValueError on a line that is not two finite coordinates."""
    configs: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                configs.append(current)
                current = []
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"candidate line needs two coordinates: {raw!r}")
        point = (float(parts[0]), float(parts[1]))
        if not all(map(math.isfinite, point)):
            raise ValueError(f"candidate coordinates must be finite: {raw!r}")
        current.append(point)
    if current:
        configs.append(current)
    return configs


def gauge_candidate(points: list[tuple[float, float]], masses: Masses) -> np.ndarray:
    """Reduced-coordinate seed: center of mass out, furthest body on +x at
    slot n-2 (plain float preprocessing; rigor comes from certification)."""
    n = len(points)
    if n < 3:
        raise ValueError(f"a candidate needs at least 3 bodies, got {n}")
    if masses.n != n:
        raise ValueError("candidate body count does not match the masses")
    pts = np.array(points, dtype=float)
    pts -= pts.mean(axis=0)
    far = int(np.argmax((pts**2).sum(axis=1)))
    rho = float(np.hypot(*pts[far]))
    if rho == 0.0:
        raise ValueError("degenerate candidate: furthest body at the origin")
    c, s = pts[far, 0] / rho, pts[far, 1] / rho
    rot = np.empty_like(pts)
    rot[:, 0] = pts[:, 0] * c + pts[:, 1] * s
    rot[:, 1] = -pts[:, 0] * s + pts[:, 1] * c
    order = [i for i in range(n) if i != far]
    order.insert(n - 2, far)
    free = rot[order[: n - 1]]
    return reduced_mod.free_to_box(free[:, 0], free[:, 1])


def verify_candidate(
    index: int,
    points: list[tuple[float, float]],
    masses: Masses,
    delta: float = DELTA,
) -> VerifyResult:
    """Certify one candidate from seed boxes of half-width delta, doubled on
    failure up to DELTA_MAX; raises ValueError unless 0 < delta <= DELTA_MAX."""
    if not (math.isfinite(delta) and 0.0 < delta <= DELTA_MAX):
        raise ValueError(f"delta must be finite with 0 < delta <= {DELTA_MAX:g}, got {delta!r}")
    try:
        z = gauge_candidate(points, masses)
    except ValueError as exc:
        return VerifyResult(index, False, None, None, None, message=str(exc))
    rctx = reduced_mod.reduced_ctx(masses)
    d = delta
    while d <= DELTA_MAX * (1 + 1e-12):
        outcome = krawczyk.iterate_arrays(rctx, z - d, z + d)
        if outcome.tag == "unique_zero":
            tight = krawczyk.contract(rctx, outcome.lo, outcome.hi)
            sol = make_solution(tight[0], tight[1], masses)
            sym = classify.symmetry_check(sol, masses)
            return VerifyResult(index, True, d, sol, sym)
        d *= 2.0
    message = f"no certification up to delta = {DELTA_MAX:g}"
    return VerifyResult(index, False, None, None, None, message=message)
