"""Tight interval bounds for the singular kernels t^a / r^b over 2-D boxes.

The naive interval evaluation of x^a/(x^2+y^2)^(b/2) overestimates badly
because x appears twice.  The kernel has no interior critical points on a
box excluding the origin, so its exact range is attained on the border at
finitely many candidate points: the four corners, the axis crossings
x=0 / y=0, and the crossings of the critical lines y = +-x*sqrt((b-a)/a)
and x = +-y*sqrt((b-a)/a) with the edges.  The corners are evaluated
densely; the 20 edge candidates are clipped to their edge (line crossings
as thin interval points) and only the ones that lie on the box are
evaluated.  The result is intersected with the naive evaluation, so it
both contains the true range and never exceeds the naive bound.

A thin row, whose sides are both at most `THIN` * inf r wide, keeps the
naive evaluation alone.

Every enclosure comes from one evaluator, `_evaluate`, which bounds several
kernels over boxes or points from squares and r-powers computed once.
`bound_kernel_batch` bounds one kernel.  `bound_pair_kernels` bounds
several kernels of the same pair boxes at once, and a row evaluates its
edge candidates only when a cheap float test cannot rule them all off the
box.  Both give bit-identical bounds, and a row's bound does not depend on
the rows it shares a batch with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import boxops as bx
from .errors import DomainError
from .interval import Interval


class SingularBox(DomainError):
    """The query box may contain the origin, where the kernel is singular."""


@lru_cache(maxsize=None)
def _slope(a: int, b: int) -> Interval:
    # sqrt((b-a)/a), the critical-line slope for exponent pair (a, b)
    return (Interval(float(b - a)) / Interval(float(a))).sqrt()


def _r_power(pw, b):
    """r^b for an integer b >= 1, from and stored into the dict `pw` of powers
    computed so far (it holds at least r^2); r = sqrt(r^2) is the odd factor."""
    if b not in pw:
        r2 = pw[2]
        if b == 1:
            pw[1] = bx.isqrt(*r2)
        elif b % 2 == 0:
            pw[b] = bx.imul(*_r_power(pw, b - 2), *r2)
        elif b == 3:
            pw[3] = bx.imul(*r2, *_r_power(pw, 1))
        else:
            pw[b] = bx.imul(*_r_power(pw, b - 1), *_r_power(pw, 1))
    return pw[b]


def _r_powers(r2lo, r2hi, bs):
    """{b: ((r^b)_lo, (r^b)_hi)} for each b in `bs`, every power computed once."""
    pw = {2: (r2lo, r2hi)}
    return {b: _r_power(pw, b) for b in bs}


def _evaluate(xlo, xhi, ylo, yhi, kinds):
    """Naive enclosures of every kernel in `kinds` over boxes or points
    [x] x [y] of one broadcast shape S: lo and hi of shape (len(kinds),) + S,
    and inf r^2 of shape S.

    A kind (a, b, axis) is the kernel t^a / r^b, with t the displacement
    along `axis` ("X" for x, "Y" for y), a in {0, 1, 2} and an integer
    b > a; anything else raises ValueError.  The squares, r^2 and the
    r-powers are computed once for all kinds.  Raises SingularBox, before
    any division, if some inf r^2 <= 0.
    """
    for a, b, axis in kinds:
        integer = isinstance(b, (int, np.integer))
        if a not in (0, 1, 2) or axis not in ("X", "Y") or not integer or b <= a:
            raise ValueError(f"no kernel t^a / r^b for the kind (a, b, axis) = {(a, b, axis)}")
    x2, y2 = bx.isqr(xlo, xhi), bx.isqr(ylo, yhi)
    r2lo, r2hi = bx.iadd(*x2, *y2)
    if np.any(r2lo <= 0.0):
        raise SingularBox("kernel box may contain the origin")
    pw = _r_powers(r2lo, r2hi, {b for _, b, _ in kinds})
    num = {("X", 1): (xlo, xhi), ("Y", 1): (ylo, yhi), ("X", 2): x2, ("Y", 2): y2}
    lo = np.empty((len(kinds),) + r2lo.shape)
    hi = np.empty_like(lo)
    for k, (a, b, axis) in enumerate(kinds):
        lo[k], hi[k] = bx.irecip_pos(*pw[b]) if a == 0 else bx.idiv_pos(*num[axis, a], *pw[b])
    return lo, hi, r2lo


def bound_kernel_batch(dxlo, dxhi, dylo, dyhi, a, b):
    """Vectorized range enclosure of dx^a/r^b, a in {1, 2}, over boxes [dx] x [dy].

    Raises SingularBox if a box may contain the origin.  For the Y-axis
    kernel swap the dx and dy arguments (the candidate set is
    swap-symmetric).  Thin rows, point boxes among them, keep the naive
    evaluation.
    """
    if a not in (1, 2):
        raise ValueError(f"the numerator exponent must be 1 or 2, not {a}")
    # never worse than the naive evaluation, and it certifies the precondition
    nlo, nhi, r2lo = _naive(dxlo, dxhi, dylo, dyhi, a, b)
    rows = np.flatnonzero(~_thin_rows(dxlo, dxhi, dylo, dyhi, r2lo))
    if not rows.size:
        return nlo, nhi
    dxlo, dxhi, dylo, dyhi = dxlo[rows], dxhi[rows], dylo[rows], dyhi[rows]
    cx = np.stack([dxlo, dxlo, dxhi, dxhi], axis=1)
    cy = np.stack([dylo, dyhi, dylo, dyhi], axis=1)
    clo, chi, _ = _evaluate(cx, cx, cy, cy, ((a, b, "X"),))
    elo, ehi = _edge_bounds(dxlo, dxhi, dylo, dyhi, ((a, b),), rows.size)
    nlo[rows] = np.maximum(np.minimum(clo[0].min(axis=1), elo), nlo[rows])
    nhi[rows] = np.minimum(np.maximum(chi[0].max(axis=1), ehi), nhi[rows])
    return nlo, nhi


def _edge_bounds(dxlo, dxhi, dylo, dyhi, ab, k):
    """Smallest lower and largest upper kernel enclosure over the 20 edge
    candidates that lie on the box, +inf and -inf where none does.

    The rows come kind-major: k rows of dx^a / r^b for each (a, b) of `ab`.
    The candidates are the axis crossings x = 0 and y = 0 and the crossings
    of the lines y = +-m x, m in {s, 1/s}, with the four edges, where s is
    the critical slope of the row's own (a, b).
    """
    # the critical slope of each row's own (a, b), as two (len(ab) * k, 1) columns
    s = np.repeat([(_slope(a, b).lo, _slope(a, b).hi) for a, b in ab], k, axis=0)
    s = s[:, :1], s[:, 1:]
    ex = np.stack([dxlo, dxhi], axis=1)  # abscissae of the vertical edges
    ey = np.stack([dylo, dyhi], axis=1)  # ordinates of the horizontal edges
    h1, h2 = bx.idiv_pos(ey, ey, *s), bx.imul(ey, ey, *s)  # y = c meets the lines at x = +-c/m
    v1, v2 = bx.imul(ex, ex, *s), bx.idiv_pos(ex, ex, *s)  # x = c meets them at y = +-m c
    zero = np.zeros_like(ex)
    cat = np.concatenate
    cxlo = cat([zero, ex, h1[0], h2[0], -h1[1], -h2[1], ex, ex, ex, ex], axis=1)
    cxhi = cat([zero, ex, h1[1], h2[1], -h1[0], -h2[0], ex, ex, ex, ex], axis=1)
    cylo = cat([ey, zero, ey, ey, ey, ey, v1[0], v2[0], -v1[1], -v2[1]], axis=1)
    cyhi = cat([ey, zero, ey, ey, ey, ey, v1[1], v2[1], -v1[0], -v2[0]], axis=1)
    # clip every candidate to the box and evaluate the nonempty ones only
    np.maximum(cxlo, dxlo[:, None], out=cxlo)
    np.minimum(cxhi, dxhi[:, None], out=cxhi)
    np.maximum(cylo, dylo[:, None], out=cylo)
    np.minimum(cyhi, dyhi[:, None], out=cyhi)
    valid = (cxlo <= cxhi) & (cylo <= cyhi)
    # each candidate under every distinct (a, b), then its own row's value
    pairs = sorted(set(ab))
    own = np.repeat([pairs.index(p) for p in ab], k)[np.nonzero(valid)[0]]
    vlo, vhi, _ = _evaluate(
        cxlo[valid], cxhi[valid], cylo[valid], cyhi[valid], tuple((a, b, "X") for a, b in pairs)
    )
    lo = np.full(valid.shape, np.inf)
    hi = np.full(valid.shape, -np.inf)
    lo[valid] = np.choose(own, vlo)
    hi[valid] = np.choose(own, vhi)
    return lo.min(axis=1), hi.max(axis=1)


# A row is thin when both side widths are at most THIN * inf r.  Its naive
# enclosure then overestimates the range by only O(width / r), so the
# candidates cost more than they gain.  Search boxes are never that thin;
# the midpoint residual of a Krawczyk step and a contracted box are.
THIN = 2.0**-30


def _thin_rows(dxlo, dxhi, dylo, dyhi, r2lo):
    """Rows that keep the naive evaluation, from inf r^2 of each row.  NaN rows
    are not thin."""
    return np.maximum(dxhi - dxlo, dyhi - dylo) <= THIN * np.sqrt(r2lo)


# A row is plain when every |side| lies in [_SIDE_MIN, _SIDE_MAX] and the
# |dy| range keeps a relative _MARGIN from m |dx| for every critical slope
# m.  The edge candidates carry a rounding error of a few ulps (~1e-15), far
# below the margin, so on a plain row every one of them clips to empty and
# the corners alone give the bit-identical bound.
_SIDE_MIN = 1e-150
_SIDE_MAX = 1e150
_MARGIN = 1e-9

# `bound_pair_kernels` evaluates the edge candidates of at most this many
# pair rows at a time, so its working set does not grow with the batch
EDGE_ROWS = 256


@lru_cache(maxsize=None)
def _margin_slopes(kinds) -> tuple:
    """(m / (1 + margin), m * (1 + margin)) for each critical slope m in
    {s, 1/s} of the kernels in `kinds`."""
    ms = set()
    for a, b, _ in kinds:
        s = float(np.sqrt((b - a) / a))
        ms |= {s, 1.0 / s}
    return tuple((m / (1.0 + _MARGIN), m * (1.0 + _MARGIN)) for m in sorted(ms))


def _plain_rows(dxlo, dxhi, dylo, dyhi, kinds):
    """Rows whose edge candidates all lie off the box, for every kernel in
    `kinds`: both sides exclude 0 and are not reversed, every magnitude is in
    range and no critical line comes near the box.  NaN rows are not plain."""
    xpos = dxlo > 0.0
    ax_lo, ax_hi = np.where(xpos, dxlo, -dxhi), np.where(xpos, dxhi, -dxlo)
    ypos = dylo > 0.0
    ay_lo, ay_hi = np.where(ypos, dylo, -dyhi), np.where(ypos, dyhi, -dylo)
    # ax_lo >= _SIDE_MIN also excludes 0: either dxlo > 0 or dxhi < 0
    plain = (ax_lo >= _SIDE_MIN) & (ax_lo <= ax_hi) & (ax_hi <= _SIDE_MAX)
    plain &= (ay_lo >= _SIDE_MIN) & (ay_lo <= ay_hi) & (ay_hi <= _SIDE_MAX)
    for m_dn, m_up in _margin_slopes(kinds):
        plain &= (ay_lo > m_up * ax_hi) | (ay_hi < m_dn * ax_lo)
    return plain


def bound_pair_kernels(dxlo, dxhi, dylo, dyhi, kinds):
    """Range enclosures of several kernels over one batch of pair boxes.

    `kinds` is a tuple of (a, b, axis) as `_evaluate` takes them; a = 0 is
    1/r^b, whose naive enclosure is already tight.  Returns lo, hi of shape
    (len(kinds), B), bit-identical to one `bound_kernel_batch` call per
    kernel (with dx and dy swapped for "Y"; `boxops.irecip_pos` of r^b for
    a = 0).  Raises SingularBox if a box may contain the origin.

    Thin rows keep the naive enclosure; of the others, only rows that are
    not plain evaluate their 20 edge candidates, `EDGE_ROWS` rows at a time.
    """
    lo, hi, r2lo = _evaluate(dxlo, dxhi, dylo, dyhi, kinds)
    shaped = [k for k, kind in enumerate(kinds) if kind[0] != 0]
    rows = np.flatnonzero(~_thin_rows(dxlo, dxhi, dylo, dyhi, r2lo))
    if not shaped or not rows.size:
        return lo, hi
    at = np.ix_(shaped, rows)
    clo, chi = _candidate_bounds(
        dxlo[rows], dxhi[rows], dylo[rows], dyhi[rows], tuple(kinds[k] for k in shaped)
    )
    lo[at] = np.maximum(clo, lo[at])
    hi[at] = np.minimum(chi, hi[at])
    return lo, hi


def _candidate_bounds(dxlo, dxhi, dylo, dyhi, kinds):
    """Smallest lower and largest upper enclosure over the corners and edge
    candidates of each row, shape (len(kinds), B), for kinds with a > 0."""
    # the four corners of every row as (B, 2, 2): x varies on axis 1, y on axis 2
    cx = np.stack([dxlo, dxhi], axis=1)[:, :, None]
    cy = np.stack([dylo, dyhi], axis=1)[:, None, :]
    clo, chi, _ = _evaluate(cx, cx, cy, cy, kinds)
    clo, chi = clo.min(axis=(2, 3)), chi.max(axis=(2, 3))
    ab = tuple((a, b) for a, b, _ in kinds)
    rows = np.flatnonzero(~_plain_rows(dxlo, dxhi, dylo, dyhi, kinds))
    for at in range(0, rows.size, EDGE_ROWS):
        part = rows[at : at + EDGE_ROWS]
        xr = (dxlo[part], dxhi[part])
        yr = (dylo[part], dyhi[part])
        # all kinds in one kind-major batch, numerator axis first as in bound_kernel_batch
        args = [xr + yr if axis == "X" else yr + xr for _, _, axis in kinds]
        elo, ehi = _edge_bounds(*(np.concatenate(c) for c in zip(*args)), ab, part.size)
        clo[:, part] = np.minimum(clo[:, part], elo.reshape(len(kinds), -1))
        chi[:, part] = np.maximum(chi[:, part], ehi.reshape(len(kinds), -1))
    return clo, chi


def _naive(dxlo, dxhi, dylo, dyhi, a, b):
    """The naive enclosure of dx^a / r^b, and inf r^2."""
    lo, hi, r2lo = _evaluate(dxlo, dxhi, dylo, dyhi, ((a, b, "X"),))
    return lo[0], hi[0], r2lo
