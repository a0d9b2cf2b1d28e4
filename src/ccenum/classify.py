"""Testing stage: merge equivalent certified solutions and settle their
reflection symmetries.

Two certified boxes describe the same central configuration when the
interval hull of one and a permuted, re-gauged copy of the other can be
certified to hold exactly one zero (inflating the hull a few times when
it is too tight for the operator).  A symmetry is proved the same way
against the configuration's own reflected image; asymmetry is proved by
showing every candidate axis admits no body pairing whose reflected boxes
all meet the certified solution box, which is a bipartite matching question.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import boxops as bxo
from . import krawczyk, model
from . import reduced as reduced_mod
from .interval import Interval
from .model import Masses
from .reduced import ReducedBox
from .search import SolutionBox

# hulls tried per question before giving up: same configuration, symmetry
SAME_TRIES = 24
SYMMETRY_TRIES = 12
# times blow_up inflates a hull before giving up
BLOW_UP_ROUNDS = 8


@dataclass(frozen=True)
class LineSymmetry:
    """A certified reflection line t*(axis_x, axis_y) with its body permutation."""

    axis_x: Interval
    axis_y: Interval
    permutation: tuple[int, ...]


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

    @property
    def collinear(self) -> bool:
        """True iff all bodies provably lie on the x axis, read from the OX
        certificate: the reflection about the x axis certified with the
        identity permutation.

        Then the unique zero of the certified hull is both the solution and
        its own mirror image with every body fixed, so every y is 0.  When
        every y enclosure contains 0, the identity is the nearest-match
        pairing and `symmetry_check` tries it first; if that hull does not
        certify, collinearity has no proof.
        """
        perm = self.ox_permutation
        return perm is not None and perm == tuple(range(len(perm)))


@dataclass
class CCRecord:
    """A deduplicated equivalence class of certified solutions."""

    representative: SolutionBox
    members: list[SolutionBox]
    symmetry: SymmetryResult


# ---------------------------------------------------------------------------
# geometry on full configurations: bodies are a (lo, hi) pair of float64
# arrays of shape (n, 2), x in column 0 and y in column 1; a single body or
# an axis is a (lo, hi) pair of shape (2,)


def full_bodies(box: ReducedBox) -> tuple[np.ndarray, np.ndarray]:
    """Positions of all n bodies of a reduced box, the derived last body
    included and body n-2 pinned to y = 0."""
    free = reduced_mod.box_to_free_arrays(box.lo, box.hi)
    bxlo, bxhi, bylo, byhi = model.all_body_arrays(*free)
    return np.stack([bxlo, bylo], axis=-1), np.stack([bxhi, byhi], axis=-1)


def _xy(bodies):
    """The x and the y enclosures of bodies, each a (lo, hi) pair."""
    lo, hi = bodies
    return (lo[..., 0], hi[..., 0]), (lo[..., 1], hi[..., 1])


def _bodies(x, y):
    """Bodies from their x and y enclosures: the inverse of `_xy`."""
    return np.stack([x[0], y[0]], axis=-1), np.stack([x[1], y[1]], axis=-1)


def _norm2(bodies):
    x, y = _xy(bodies)
    return bxo.iadd(*bxo.isqr(*x), *bxo.isqr(*y))


def _radius(bodies):
    return bxo.isqrt(*_norm2(bodies))


def _unit(v):
    """Each vector of v divided by its length, or None when a length may vanish."""
    rlo, rhi = _radius(v)
    if np.any(rlo <= 0.0):
        return None
    return bxo.idiv_pos(*v, rlo[..., None], rhi[..., None])


def _may_meet(a, b):
    """Boolean (n, n) matrix: box i of a and box j of b may share a point."""
    (alo, ahi), (blo, bhi) = a, b
    meet = (alo[:, None] <= bhi[None, :]) & (blo[None, :] <= ahi[:, None])
    return meet.reshape(meet.shape[:2] + (-1,)).all(axis=-1)


def _mid(bodies):
    return 0.5 * (bodies[0] + bodies[1])


def reflect_ox(bodies):
    x, (ylo, yhi) = _xy(bodies)
    return _bodies(x, (-yhi, -ylo))


def reflect_line(bodies, axis):
    """Reflect about the line t*axis; the axis encloses a unit vector."""
    (cx, cy), (x, y) = _xy(axis), _xy(bodies)
    rxx = bxo.isub(*bxo.isqr(*cx), *bxo.isqr(*cy))
    rxy = bxo.iscale(*bxo.imul(*cx, *cy), 2.0)
    rx = bxo.iadd(*bxo.imul(*rxx, *x), *bxo.imul(*rxy, *y))
    ry = bxo.isub(*bxo.imul(*rxy, *x), *bxo.imul(*rxx, *y))
    return _bodies(rx, ry)


def bisector_direction(a, b):
    """Enclosure of the internal bisector of the rays through bodies a and b.

    Contains every possible true bisector of configurations in the boxes,
    as the asymmetry refutation requires.  Returns None when the rays may
    be opposite and the enclosure degenerates (then nothing can be refuted
    about this axis).
    """
    u = _unit((np.stack([a[0], b[0]]), np.stack([a[1], b[1]])))
    if u is None:
        return None
    return _unit(bxo.iadd(u[0][0], u[1][0], u[0][1], u[1][1]))


def approx_axis(a, b):
    """A thin axis enclosure guaranteed to contain one exact unit vector.

    Built from the float bisector of the midpoint rays (perpendicular when
    they are nearly opposite).  Sound for proving a symmetry: the
    certification only needs some exact reflection inside the enclosure.
    """
    (ax, ay), (bx, by) = _mid(a), _mid(b)
    na, nb = np.hypot(ax, ay), np.hypot(bx, by)
    if na == 0.0 or nb == 0.0:
        return None
    wx = ax / na + bx / nb
    wy = ay / na + by / nb
    if np.hypot(wx, wy) < 1e-9:
        wx, wy = -ay / na, ax / na
    w = np.array([wx, wy])
    return _unit((w, w))


def reflection_axis(bodies, sigma):
    """Enclosure of the unit axis of the reflection that maps each body k to
    body sigma(k), or None.

    The axis runs along q_k + q_sigma(k); when every such sum may vanish it
    is perpendicular to q_k - q_sigma(k).  The k whose vector enclosure lies
    furthest from 0 is used; None when none excludes 0.
    """
    lo, hi = bodies
    j = list(sigma)
    sums = bxo.iadd(lo, hi, lo[j], hi[j])
    dx, (dylo, dyhi) = _xy(bxo.isub(lo, hi, lo[j], hi[j]))
    for w in (sums, _bodies((-dyhi, -dylo), dx)):
        k = int(np.argmax(_norm2(w)[0]))
        axis = _unit((w[0][k], w[1][k]))
        if axis is not None:
            return axis
    return None


def regauge_to_reduced(bodies, masses: Masses):
    """Rotate the slot n-2 body onto the positive x axis and drop the gauge
    coordinates, giving reduced-box arrays enclosing the rotated zero."""
    n = masses.n
    lo, hi = bodies
    cs = _unit((lo[n - 2], hi[n - 2]))
    if cs is None or lo[n - 2, 0] <= 0.0:
        return None
    (c, s), (x, y) = _xy(cs), _xy((lo[: n - 1], hi[: n - 1]))
    rx = bxo.iadd(*bxo.imul(*x, *c), *bxo.imul(*y, *s))
    ry = bxo.isub(*bxo.imul(*y, *c), *bxo.imul(*x, *s))
    return reduced_mod.free_to_box(rx[0], ry[0]), reduced_mod.free_to_box(rx[1], ry[1])


def _same_radius(image, orig):
    """Boolean (n, n) matrix: image body i and orig body j may lie at the
    same distance from the origin, as a reflection or relabeling requires."""
    n = len(image[0])
    rlo, rhi = _radius(tuple(np.concatenate(pair) for pair in zip(image, orig)))
    return _may_meet((rlo[:n], rhi[:n]), (rlo[n:], rhi[n:]))


def candidate_pairings(image, orig, target: int | None = None):
    """Permutations sigma with image body i matching orig body sigma(i),
    pruned by radius compatibility, nearest-match first; with `target`
    given, only those with sigma(n-2) = target."""
    n = len(image[0])
    meet = _same_radius(image, orig)
    if target is not None:
        meet[n - 2] &= np.arange(n) == target
    allowed = [np.flatnonzero(row).tolist() for row in meet]
    # nearest-match candidate, ties to the lowest j
    (mx, my), (ox, oy) = _mid(image).T, _mid(orig).T
    dist = np.where(meet, (mx[:, None] - ox) ** 2 + (my[:, None] - oy) ** 2, np.inf)
    nearest = tuple(int(j) if meet[i, j] else None for i, j in enumerate(np.argmin(dist, axis=1)))
    if None not in nearest and len(set(nearest)) == n:
        yield nearest

    def dfs(i, acc):
        if i == n:
            if acc != nearest:
                yield acc
            return
        for j in allowed[i]:
            if j not in acc:
                yield from dfs(i + 1, acc + (j,))

    yield from dfs(0, ())


def has_perfect_matching(edges: np.ndarray) -> bool:
    """True iff the boolean (n, n) matrix admits a permutation sigma with
    every edges[i, sigma(i)] set.  Kuhn's augmenting paths: row i is matched
    by re-matching the rows along an alternating path, and a row no path
    reaches leaves the matching imperfect for good."""
    n = len(edges)
    adj = [np.flatnonzero(row).tolist() for row in edges]
    row_of = [-1] * n  # the row matched to each column, -1 when free

    def augment(i, seen):
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


# ---------------------------------------------------------------------------
# hull certification


def blow_up(rctx, zlo, zhi) -> bool:
    """True once a unique zero is certified in the hull [zlo, zhi], inflated
    up to BLOW_UP_ROUNDS times; width grows by 1.5 per round about the
    fixed center."""
    lo, hi = zlo, zhi
    for _ in range(BLOW_UP_ROUNDS + 1):
        out = krawczyk.iterate_arrays(rctx, lo, hi)
        if out.tag == "unique_zero":
            return True
        mid = lo + 0.5 * (hi - lo)
        half = np.maximum(hi - mid, mid - lo)
        grown = np.maximum(half * 1.5, 1e-12)
        lo, hi = mid - grown, mid + grown
    return False


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
    return blow_up(rctx, hlo, hhi)


def _certified_pairing(rctx, za, image, orig, masses: Masses, max_tries: int, target=None):
    """The first candidate pairing sigma (image body i is orig body sigma(i),
    sigma(n-2) = `target` when given) under which the permuted, re-gauged
    image certifies as the zero in za; None when none of the first
    max_tries candidates does."""
    for sigma in islice(candidate_pairings(image, orig, target), max_tries):
        inv = np.argsort(sigma)
        zb = regauge_to_reduced((image[0][inv], image[1][inv]), masses)
        if zb is not None and _hull_certifies(rctx, za, zb):
            return sigma
    return None


# ---------------------------------------------------------------------------
# public operations


def same_solution(a: SolutionBox, b: SolutionBox, masses: Masses) -> bool:
    """True iff a and b provably enclose the same configuration (mod relabeling)."""
    if a is b:
        return True
    rctx = reduced_mod.reduced_ctx(masses)
    image, orig = full_bodies(b.reduced), full_bodies(a.reduced)
    return _certified_pairing(rctx, a.reduced.arrays(), image, orig, masses, SAME_TRIES) is not None


def _axis_refuted(bodies, reflected, pinned: int | None = None) -> bool:
    """True iff no pairing maps each reflected body onto a body of the same
    radius whose box it may meet, the body `pinned` onto itself."""
    edges = _same_radius(reflected, bodies) & _may_meet(reflected, bodies)
    if pinned is not None:
        edges[pinned] = np.arange(len(edges)) == pinned
    return not has_perfect_matching(edges)


def symmetry_check(s: SolutionBox, masses: Masses) -> SymmetryResult:
    """Prove a reflection symmetry (axis plus body permutation) or certified
    asymmetry for a certified solution.

    Re-gauging rotates the image back, so a certified sigma proves the
    reflection sending body n-2 to body sigma(n-2), whatever axis was tried:
    the OX question accepts only sigma(n-2) = n-2, that for body i only i.
    """
    rctx = reduced_mod.reduced_ctx(masses)
    n = masses.n
    za = s.reduced.arrays()
    bodies = full_bodies(s.reduced)
    lo, hi = bodies
    ox_perm = _certified_pairing(
        rctx, za, reflect_ox(bodies), bodies, masses, SYMMETRY_TRIES, target=n - 2
    )
    same_radius = _same_radius(bodies, bodies)[n - 2]
    line = None
    for i in range(n):
        if i == n - 2 or not same_radius[i]:
            continue  # no reflection sends body n-2 to body i
        axis = approx_axis((lo[n - 2], hi[n - 2]), (lo[i], hi[i]))
        if axis is None:
            continue
        sigma = _certified_pairing(
            rctx, za, reflect_line(bodies, axis), bodies, masses, SYMMETRY_TRIES, target=i
        )
        if sigma is None:
            continue
        # the certified map is the reflection about `axis` followed by the
        # re-gauging rotation: a reflection about another line, whose axis
        # is enclosed from the bodies and sigma
        certified = reflection_axis(bodies, sigma)
        if certified is not None:
            (xlo, ylo), (xhi, yhi) = certified
            line = LineSymmetry(Interval(xlo, xhi), Interval(ylo, yhi), sigma)
            break
    if ox_perm is not None or line is not None:
        return SymmetryResult(ox_perm, line, asymmetric=False)

    # attempt certified asymmetry: every admissible axis must be refuted
    if not _axis_refuted(bodies, reflect_ox(bodies), pinned=n - 2):
        return SymmetryResult(None, None, asymmetric=False)
    for i in range(n):
        if i == n - 2 or not same_radius[i]:
            continue  # no body could be the image of body n-2 along this ray
        axis = bisector_direction((lo[n - 2], hi[n - 2]), (lo[i], hi[i]))
        if axis is None or not _axis_refuted(bodies, reflect_line(bodies, axis)):
            return SymmetryResult(None, None, asymmetric=False)
    return SymmetryResult(None, None, asymmetric=True)


def classify_solutions(solutions: list[SolutionBox], masses: Masses) -> list[CCRecord]:
    """Merge raw certified solutions into distinct records and settle the
    symmetry of each."""
    classes: list[list[SolutionBox]] = []
    for sol in solutions:
        for members in classes:
            if any(same_solution(sol, mem, masses) for mem in members):
                members.append(sol)
                break
        else:
            classes.append([sol])
    return [CCRecord(m[0], m, symmetry_check(m[0], masses)) for m in classes]
