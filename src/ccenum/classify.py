"""Testing stage: merge equivalent certified solutions and settle their
reflection symmetries.

Two certified boxes describe the same central configuration when the
interval hull of one and a permuted, re-gauged copy of the other can be
certified to hold exactly one zero (inflating the hull a few times when
it is too tight for the operator).  A symmetry is proved the same way
against the configuration's own reflected image; asymmetry is proved by
showing every candidate axis admits no body pairing whose reflected boxes
all meet the certified solution box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxops as bxo
from . import krawczyk, model
from . import reduced as reduced_mod
from .interval import Interval
from .model import Masses
from .reduced import ReducedBox
from .search import SolutionBox

MAX_PAIRINGS = 40320  # 8!; beyond this the enumeration reports incompleteness


@dataclass(frozen=True)
class LineSymmetry:
    """A certified reflection line t*(axis_x, axis_y) with its body permutation."""

    axis_x: Interval
    axis_y: Interval
    permutation: tuple[int, ...]
    through_body: int  # the body whose bisector with body n-2 was tried


@dataclass(frozen=True)
class SymmetryResult:
    ox_permutation: tuple[int, ...] | None
    line: LineSymmetry | None
    asymmetric: bool

    @property
    def verdict(self) -> str:
        if self.ox_permutation is not None:
            return "OXSymmetric"
        if self.line is not None:
            return "LineSymmetric"
        if self.asymmetric:
            return "ProvedAsymmetric"
        return "Undetermined"

    @property
    def symmetric(self) -> bool:
        return self.ox_permutation is not None or self.line is not None


@dataclass
class CCRecord:
    """A deduplicated equivalence class of certified solutions."""

    representative: SolutionBox
    members: list[SolutionBox]
    symmetry: SymmetryResult | None = None
    collinear: bool = False


# ---------------------------------------------------------------------------
# geometry on full configurations (lists of (Interval, Interval) per body)


def full_bodies(box: ReducedBox, masses: Masses) -> list[tuple[Interval, Interval]]:
    """Positions of all n bodies of a reduced box, the derived last body
    included and body n-2 pinned to y = 0."""
    free = reduced_mod.box_to_free_arrays(box.lo, box.hi, masses.n)
    bxlo, bxhi, bylo, byhi = model.all_body_arrays(model.nbody_ctx(masses), *free)
    return list(zip(bxo.unpack(bxlo, bxhi), bxo.unpack(bylo, byhi)))


def _radius(b: tuple[Interval, Interval]) -> Interval:
    return (b[0].sqr() + b[1].sqr()).sqrt()


def reflect_ox(bodies):
    return [(x, -y) for x, y in bodies]


def reflect_line(bodies, cx: Interval, cy: Interval):
    """Reflect about the line t*(cx, cy); (cx, cy) encloses a unit vector."""
    rxx = cx.sqr() - cy.sqr()
    rxy = Interval(2.0) * cx * cy
    out = []
    for x, y in bodies:
        out.append((rxx * x + rxy * y, rxy * x - rxx * y))
    return out


def bisector_direction(a, b):
    """Enclosure of the internal bisector of the rays through a and b.

    Contains every possible true bisector of configurations in the boxes,
    as the asymmetry refutation requires.  Returns None when the rays may
    be opposite and the enclosure degenerates (then nothing can be refuted
    about this axis).
    """
    ra = _radius(a)
    rb = _radius(b)
    if ra.lo <= 0.0 or rb.lo <= 0.0:
        return None
    ux, uy = a[0] / ra, a[1] / ra
    vx, vy = b[0] / rb, b[1] / rb
    wx = ux + vx
    wy = uy + vy
    norm2 = wx.sqr() + wy.sqr()
    if norm2.lo <= 0.0:
        return None
    norm = norm2.sqrt()
    return (wx / norm, wy / norm)


def approx_axis(a, b):
    """A thin axis enclosure guaranteed to contain one exact unit vector.

    Built from the float bisector of the midpoint rays (perpendicular when
    they are nearly opposite).  Sound for proving a symmetry: the
    certification only needs some exact reflection inside the enclosure.
    """
    ax, ay = _mid(a)
    bx, by = _mid(b)
    na = np.hypot(ax, ay)
    nb = np.hypot(bx, by)
    if na == 0.0 or nb == 0.0:
        return None
    wx = ax / na + bx / nb
    wy = ay / na + by / nb
    if np.hypot(wx, wy) < 1e-9:
        wx, wy = -ay / na, ax / na
    nx = Interval(wx)
    ny = Interval(wy)
    norm = (nx.sqr() + ny.sqr()).sqrt()
    return (nx / norm, ny / norm)


def reflection_axis(bodies, sigma):
    """Enclosure of the unit axis of the reflection that maps each body k to
    body sigma(k), or None.

    The axis runs along q_k + q_sigma(k); when every such sum may vanish it
    is perpendicular to q_k - q_sigma(k).  The k whose vector enclosure lies
    furthest from 0 is used; None when none excludes 0.
    """
    sums = [(x + bodies[j][0], y + bodies[j][1]) for (x, y), j in zip(bodies, sigma)]
    perps = [(bodies[j][1] - y, x - bodies[j][0]) for (x, y), j in zip(bodies, sigma)]
    for cands in (sums, perps):
        norm2, wx, wy = max(
            ((wx.sqr() + wy.sqr(), wx, wy) for wx, wy in cands), key=lambda t: t[0].lo
        )
        if norm2.lo > 0.0:
            norm = norm2.sqrt()
            return (wx / norm, wy / norm)
    return None


def regauge_to_reduced(bodies, masses: Masses):
    """Rotate the slot n-2 body onto the positive x axis and drop the gauge
    coordinates, giving reduced-box arrays enclosing the rotated zero."""
    n = masses.n
    px, py = bodies[n - 2]
    rho = _radius(bodies[n - 2])
    if rho.lo <= 0.0 or px.lo <= 0.0:
        return None
    c = px / rho
    s = py / rho
    rot = []
    for x, y in bodies[: n - 1]:
        rot.append((x * c + y * s, -(x * s) + y * c))
    entries = []
    for x, y in rot[: n - 2]:
        entries += [x, y]
    entries.append(rot[n - 2][0])
    return bxo.pack(entries)


def _mid(b):
    return (b[0].mid, b[1].mid)


def candidate_pairings(image, orig, fixed: dict[int, int] | None = None, cap: int = 512):
    """Permutations sigma with image body i matching orig body sigma(i).

    Pruned by radius compatibility (a reflection or relabeling preserves
    |q|), nearest-match first.  `fixed` pins selected assignments.
    """
    n = len(image)
    rad_im = [_radius(b) for b in image]
    rad_or = [_radius(b) for b in orig]
    allowed = [
        [j for j in range(n) if not rad_im[i].disjoint(rad_or[j])] for i in range(n)
    ]
    if fixed:
        for i, j in fixed.items():
            allowed[i] = [j] if j in allowed[i] else []
    # nearest-match candidate
    mids_im = [_mid(b) for b in image]
    mids_or = [_mid(b) for b in orig]
    nearest = []
    for i in range(n):
        best = min(
            allowed[i],
            key=lambda j: (mids_im[i][0] - mids_or[j][0]) ** 2
            + (mids_im[i][1] - mids_or[j][1]) ** 2,
            default=None,
        )
        nearest.append(best)
    emitted = 0
    if None not in nearest and len(set(nearest)) == n:
        yield tuple(nearest)
        emitted += 1

    def dfs(i, used, acc):
        nonlocal emitted
        if emitted >= cap:
            return
        if i == n:
            sig = tuple(acc)
            if sig != tuple(nearest):
                yield sig
            return
        for j in allowed[i]:
            if j not in used:
                acc.append(j)
                used.add(j)
                yield from dfs(i + 1, used, acc)
                used.remove(j)
                acc.pop()

    for sig in dfs(0, set(), []):
        yield sig
        emitted += 1
        if emitted >= cap:
            return


def all_pairings(image, orig, fixed=None, cap: int = MAX_PAIRINGS):
    """Complete list of radius-compatible pairings, or (None, False) if capped."""
    out = []
    for sig in candidate_pairings(image, orig, fixed=fixed, cap=cap + 1):
        out.append(sig)
        if len(out) > cap:
            return None, False
    return out, True


# ---------------------------------------------------------------------------
# hull certification


def blow_up(rctx, zlo, zhi, max_rounds: int = 8) -> str:
    """Certify a unique zero in the hull [zlo, zhi], inflating it up to
    max_rounds times.

    Returns "UniqueZero" or "GiveUp".  Width grows by 1.5 per round about
    the fixed center.
    """
    lo, hi = zlo, zhi
    for _ in range(max_rounds + 1):
        out = krawczyk.iterate_arrays(rctx, lo, hi)
        if out.tag == "unique_zero":
            return "UniqueZero"
        mid = lo + 0.5 * (hi - lo)
        half = np.maximum(hi - mid, mid - lo)
        grown = np.maximum(half * 1.5, 1e-12)
        lo = mid - grown
        hi = mid + grown
    return "GiveUp"


def _hull_certifies(rctx, za, zb) -> bool:
    # za holds a zero and zb encloses its image under a relabeling,
    # reflection or re-gauging, which is a zero as well.  Disjoint boxes
    # hold two distinct zeros, and so does the hull and every box blow_up
    # grows from it (each contains the hull), so no Krawczyk step can find
    # exactly one zero there.  Returning False early changes no verdict, and
    # False only ever withholds a proof.
    if np.any(za[1] < zb[0]) or np.any(zb[1] < za[0]):
        return False
    hlo = np.minimum(za[0], zb[0])
    hhi = np.maximum(za[1], zb[1])
    return blow_up(rctx, hlo, hhi) == "UniqueZero"


# ---------------------------------------------------------------------------
# public operations


def same_solution(a: SolutionBox, b: SolutionBox, masses: Masses, max_tries: int = 24) -> bool:
    """True iff a and b provably enclose the same configuration (mod relabeling)."""
    if a is b:
        return True
    rctx = reduced_mod.reduced_ctx(masses)
    za = a.reduced.arrays()
    bodies_a = full_bodies(a.reduced, masses)
    bodies_b = full_bodies(b.reduced, masses)
    tried = 0
    for sigma in candidate_pairings(bodies_b, bodies_a, cap=max_tries):
        inv = [0] * len(sigma)
        for i, j in enumerate(sigma):
            inv[j] = i
        permuted = [bodies_b[inv[k]] for k in range(len(sigma))]
        zb = regauge_to_reduced(permuted, masses)
        if zb is None:
            continue
        if _hull_certifies(rctx, za, zb):
            return True
        tried += 1
        if tried >= max_tries:
            break
    return False


def _try_axis(rctx, s: SolutionBox, masses: Masses, reflected, bodies, max_tries: int = 12):
    """Certify that the reflected configuration is the same zero; returns the
    permutation on success."""
    za = s.reduced.arrays()
    tried = 0
    for sigma in candidate_pairings(reflected, bodies, cap=max_tries):
        inv = [0] * len(sigma)
        for i, j in enumerate(sigma):
            inv[j] = i
        permuted = [reflected[inv[k]] for k in range(len(sigma))]
        zr = regauge_to_reduced(permuted, masses)
        if zr is None:
            continue
        if _hull_certifies(rctx, za, zr):
            return sigma
        tried += 1
        if tried >= max_tries:
            break
    return None


def _axis_refuted(bodies, reflected, fixed) -> bool | None:
    """True if every compatible pairing leaves some body pair disjoint;
    None when the pairing enumeration is incomplete."""
    pairings, complete = all_pairings(reflected, bodies, fixed=fixed)
    if not complete:
        return None
    for sigma in pairings:
        ok = True
        for k, j in enumerate(sigma):
            rx, ry = reflected[k]
            ox, oy = bodies[j]
            if rx.disjoint(ox) or ry.disjoint(oy):
                ok = False
                break
        if ok:
            return False  # this pairing is not refuted
    return True


def symmetry_check(s: SolutionBox, masses: Masses) -> SymmetryResult:
    """Prove a reflection symmetry (axis plus body permutation) or certified
    asymmetry for a certified solution."""
    rctx = reduced_mod.reduced_ctx(masses)
    n = masses.n
    bodies = full_bodies(s.reduced, masses)
    ox_perm = _try_axis(rctx, s, masses, reflect_ox(bodies), bodies)
    line = None
    for i in range(n):
        if i == n - 2:
            continue
        axis = approx_axis(bodies[n - 2], bodies[i])
        if axis is None:
            continue
        reflected = reflect_line(bodies, axis[0], axis[1])
        sigma = _try_axis(rctx, s, masses, reflected, bodies)
        if sigma is None:
            continue
        # the certified map is the reflection about `axis` followed by the
        # re-gauging rotation: a reflection about another line, whose axis
        # is enclosed from the bodies and sigma
        certified = reflection_axis(bodies, sigma)
        if certified is not None:
            line = LineSymmetry(certified[0], certified[1], sigma, i)
            break
    if ox_perm is not None or line is not None:
        return SymmetryResult(ox_perm, line, asymmetric=False)

    # attempt certified asymmetry: every admissible axis must be refuted
    pin_rad = _radius(bodies[n - 2])
    refuted = _axis_refuted(bodies, reflect_ox(bodies), fixed={n - 2: n - 2})
    if refuted is not True:
        return SymmetryResult(None, None, asymmetric=False)
    for i in range(n):
        if i == n - 2:
            continue
        if _radius(bodies[i]).disjoint(pin_rad):
            continue  # no body could be the image of body n-2 along this ray
        axis = bisector_direction(bodies[n - 2], bodies[i])
        if axis is None:
            return SymmetryResult(None, None, asymmetric=False)
        reflected = reflect_line(bodies, axis[0], axis[1])
        refuted = _axis_refuted(bodies, reflected, fixed=None)
        if refuted is not True:
            return SymmetryResult(None, None, asymmetric=False)
    return SymmetryResult(None, None, asymmetric=True)


def detect_collinear(s: SolutionBox, masses: Masses) -> bool:
    """True iff all bodies provably lie on the x axis.

    Every y enclosure must contain 0 and the reflection about the x axis
    with the identity permutation must certify as the same zero, forcing
    each y to vanish exactly.
    """
    bodies = full_bodies(s.reduced, masses)
    if any(not y.contains_zero() for _, y in bodies):
        return False
    rctx = reduced_mod.reduced_ctx(masses)
    za = s.reduced.arrays()
    reflected = reflect_ox(bodies)
    zr = regauge_to_reduced(reflected, masses)
    if zr is None:
        return False
    return _hull_certifies(rctx, za, zr)


def classify_solutions(solutions: list[SolutionBox], masses: Masses) -> list[CCRecord]:
    """Merge raw certified solutions into distinct records and settle the
    symmetry and collinearity of each."""
    records: list[CCRecord] = []
    for sol in solutions:
        placed = False
        for rec in records:
            if any(same_solution(sol, mem, masses) for mem in rec.members):
                rec.members.append(sol)
                placed = True
                break
        if placed:
            continue
        records.append(CCRecord(representative=sol, members=[sol]))
    for rec in records:
        rec.collinear = detect_collinear(rec.representative, masses)
        rec.symmetry = symmetry_check(rec.representative, masses)
    return records
