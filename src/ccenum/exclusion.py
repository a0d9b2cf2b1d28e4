"""Exclusion battery: sound procedures proving a box holds no central
configuration, or shrinking it.

Execution order matches the search driver: a priori bounds, potential vs
moment of inertia of the whole set (U = I), proper-cluster tests,
body-order (domain normalization) test, then the residual zero check with
refinement; each box is counted under the first test that fires.  The battery is vectorized
over a batch of boxes (leading axis B) so the driver can amortize array
overhead across the tree.  The cluster tests run only on near-collision
boxes: their epsilon partitions come from a boolean transitive closure
over all those boxes at once, and the tests run over the flat list of
(box, proper group) pairs.  Every test stays collision tolerant where
documented; a verdict of Excluded is a proof.
"""

from __future__ import annotations

import numpy as np

from . import boxops as bxo
from . import bounds as bounds_mod
from . import model
from . import reduced as reduced_mod

TEST_NAMES = ("checkAprioriBounds", "checkUEqI", "clusterTest", "distanceTest", "checkZero")
SURVIVED = len(TEST_NAMES)


class _BatchFrame:
    """Derived interval arrays for a batch of boxes, leading axis B."""

    __slots__ = (
        "n",
        "bxlo",
        "bxhi",
        "bylo",
        "byhi",
        "dxlo",
        "dxhi",
        "dylo",
        "dyhi",
        "r2lo",
        "r2hi",
        "rlo",
        "rhi",
        "q2lo",
        "q2hi",
        "mq2lo",
        "mq2hi",
        "pair_ok",
        "_cluster_pairs",
    )

    def __init__(self, ctx, xlo, xhi, ylo, yhi):
        self.n = ctx.n
        free = (xlo, xhi, ylo, yhi)
        self.bxlo, self.bxhi, self.bylo, self.byhi = model.all_body_arrays(ctx, *free)
        self.dxlo, self.dxhi, self.dylo, self.dyhi = model.pair_disp_arrays(ctx, *free)
        self.r2lo, self.r2hi = model.pair_r2_arrays(self.dxlo, self.dxhi, self.dylo, self.dyhi)
        self.rlo, self.rhi = bxo.isqrt(self.r2lo, self.r2hi)
        self.q2lo, self.q2hi = bxo.iadd(
            *bxo.isqr(self.bxlo, self.bxhi), *bxo.isqr(self.bylo, self.byhi)
        )
        # m_i |q_i|^2, the terms of the moment of inertia I
        self.mq2lo, self.mq2hi = bxo.imul(ctx.mlo, ctx.mhi, self.q2lo, self.q2hi)
        self.pair_ok = self.r2lo > 0.0
        self._cluster_pairs = None

    def cluster_pair_terms(self, ctx):
        """Per-pair cross terms shared by the cluster tests (computed lazily).

        g = (m_i m_j / r^3)(q_i - q_j) oriented i < j, and the dot products
        (q_i - q_j | q_i), (q_j - q_i | q_j) scaled the same way.  Entries
        of colliding pairs are garbage and must stay masked by callers.
        """
        if self._cluster_pairs is None:
            safe_r2lo = np.where(self.pair_ok, self.r2lo, 1.0)
            safe_rlo = np.where(self.pair_ok, self.rlo, 1.0)
            r3 = bxo.imul(safe_r2lo, self.r2hi, safe_rlo, self.rhi)
            mmr3 = bxo.idiv_pos(ctx.mmlo, ctx.mmhi, np.maximum(r3[0], 1e-300), r3[1])
            gx = bxo.imul(*mmr3, self.dxlo, self.dxhi)
            gy = bxo.imul(*mmr3, self.dylo, self.dyhi)
            ii, jj = ctx.ii, ctx.jj
            di = bxo.iadd(
                *bxo.imul(self.dxlo, self.dxhi, self.bxlo[..., ii], self.bxhi[..., ii]),
                *bxo.imul(self.dylo, self.dyhi, self.bylo[..., ii], self.byhi[..., ii]),
            )
            dj = bxo.iadd(
                *bxo.imul(-self.dxhi, -self.dxlo, self.bxlo[..., jj], self.bxhi[..., jj]),
                *bxo.imul(-self.dyhi, -self.dylo, self.bylo[..., jj], self.byhi[..., jj]),
            )
            hi_ = bxo.imul(*mmr3, *di)
            hj_ = bxo.imul(*mmr3, *dj)
            self._cluster_pairs = (gx, gy, hi_, hj_)
        return self._cluster_pairs

    def take(self, b) -> "_BatchFrame":
        """The frame of box `b` (an int) or of the sub-batch `b` (an index array)."""
        out = object.__new__(_BatchFrame)
        out.n = self.n
        for name in self.__slots__[1:-1]:
            val = getattr(self, name)
            setattr(out, name, val[b] if isinstance(val, np.ndarray) else val)
        out._cluster_pairs = None
        return out


# ---------------------------------------------------------------------------
# batched tests


def _u_lo(ctx, rhi: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """inf U over the pairs set in the mask `pairs` (..., P), from sup r; valid
    when a distance may vanish, as that only grows U.  A zero or tiny sup r
    gives a term of the largest float; a sum past it comes out NaN or -inf,
    which fires no test."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, _ = bxo.idiv_pos(ctx.mmlo, ctx.mmhi, rhi, rhi)
        return bxo.isum(lo, lo, axis=-1, where=pairs)[0]


def _u_hi(ctx, rlo: np.ndarray, rhi: np.ndarray) -> np.ndarray:
    """sup U over all pairs of collision-free boxes (rlo > 0); +inf when a
    term overflows."""
    with np.errstate(over="ignore"):
        return bxo.isum(*bxo.idiv_pos(ctx.mmlo, ctx.mmhi, rlo, rhi), axis=-1)[1]


def u_eq_i_excluded_batch(ctx, fr: _BatchFrame) -> np.ndarray:
    """Disjoint U and I enclosures contradict U = I.  Collision tolerant:
    inf U stays valid when a distance may vanish (the potential only
    grows), and sup U is used only on collision-free boxes."""
    I_lo, I_hi = bxo.isum(fr.mq2lo, fr.mq2hi, axis=-1)
    fired = I_hi < _u_lo(ctx, fr.rhi, np.ones(ctx.P, dtype=bool))
    apart = np.flatnonzero(np.all(fr.pair_ok, axis=-1))
    if len(apart):
        fired[apart] |= I_lo[apart] > _u_hi(ctx, fr.rlo[apart], fr.rhi[apart])
    return fired


def cluster_candidates_needed(fr: _BatchFrame, max_diam: np.ndarray) -> np.ndarray:
    """Boxes whose epsilon partitions could yield a proper cluster."""
    return np.any(fr.rlo <= max_diam[..., None], axis=-1)


def distance_order_excluded_batch(fr: _BatchFrame, ordering: str) -> np.ndarray:
    """Domain-normalization constraints; valid for equal masses only."""
    n = fr.n
    hi = float(n - 1)
    xlo, xhi, ylo, yhi = fr.bxlo, fr.bxhi, fr.bylo, fr.byhi
    pin = n - 2
    out = (xhi[..., pin] < 0.5) | (xlo[..., pin] > hi)
    out |= (xlo[..., 0] >= 0.0) | (xhi[..., 0] < -hi)
    out |= np.any(xhi < xlo[..., 0:1], axis=-1) | np.any(xlo > xhi[..., pin : pin + 1], axis=-1)
    out |= yhi[..., 0] < 0.0
    if n >= 4:
        out |= (ylo[..., 1] > 0.0) | (yhi[..., 1] < -hi)
        out |= np.any(yhi < ylo[..., 1:2], axis=-1) | np.any(ylo > hi, axis=-1)
    # furthest-body condition |q_i| <= |x_{n-2}|
    _, x2pin_hi = bxo.isqr(xlo[..., pin], xhi[..., pin])
    out |= np.any(fr.q2lo > x2pin_hi[..., None], axis=-1)
    # index ordering of the middle bodies, ending at the derived body
    chain = list(range(2, n - 2)) + [n - 1]
    if len(chain) >= 2 and n >= 4:
        a = np.array(chain[:-1])
        b = np.array(chain[1:])
        if ordering == "increasing":
            out |= np.any(xhi[..., b] < xlo[..., a], axis=-1)
        else:
            out |= np.any(xhi[..., a] < xlo[..., b], axis=-1)
    return out


def check_zero_batch(ctx, fr: _BatchFrame, zlo, zhi):
    """Vectorized residual zero check with refinement.

    Returns (excluded (B,), new_lo, new_hi, changed (B,)).
    """
    body_ok = ~np.any(~fr.pair_ok[..., None, :] & ctx.incidence, axis=-1)
    axlo, axhi, aylo, ayhi = model.accel_arrays(
        ctx, fr.dxlo, fr.dxhi, fr.dylo, fr.dyhi, pair_mask=fr.pair_ok
    )
    miss = (axhi < fr.bxlo) | (axlo > fr.bxhi) | (ayhi < fr.bylo) | (aylo > fr.byhi)
    excluded = np.any(miss & body_ok, axis=-1)
    # the derived last body has no coordinate of its own
    ref_lo = reduced_mod.free_to_box(axlo[..., :-1], aylo[..., :-1])
    ref_hi = reduced_mod.free_to_box(axhi[..., :-1], ayhi[..., :-1])
    coord_ok = reduced_mod.free_to_box(body_ok[..., :-1], body_ok[..., :-1])
    new_lo = np.where(coord_ok, np.maximum(zlo, ref_lo), zlo)
    new_hi = np.where(coord_ok, np.minimum(zhi, ref_hi), zhi)
    changed = np.any(new_lo > zlo, axis=-1) | np.any(new_hi < zhi, axis=-1)
    return excluded, new_lo, new_hi, changed


# ---------------------------------------------------------------------------
# cluster analysis (near-collision boxes only): per box, and the batch the
# battery runs


def cluster_partition_from_frame(ctx, fr: _BatchFrame, epsilon: float) -> list[frozenset[int]]:
    n = fr.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rlo = fr.rlo
    for p in range(ctx.P):
        if rlo[p] <= epsilon:
            ra, rb = find(int(ctx.ii[p])), find(int(ctx.jj[p]))
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


def _member_mask(n: int, members: frozenset[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def _cluster_zero_excluded(ctx, fr: _BatchFrame, members: frozenset[int]) -> bool:
    """(0,0) must lie in sum_C m_i q_i - sum_{i in C, j out} (m_i m_j/r^3)(q_i - q_j)."""
    n = fr.n
    if len(members) == n:
        return False  # reduces to the center-of-mass identity, true by construction
    mask = _member_mask(n, members)
    in_i = mask[ctx.ii]
    in_j = mask[ctx.jj]
    cross = in_i != in_j
    if np.any(cross & ~fr.pair_ok):
        return False
    mxlo, mxhi = bxo.imul(ctx.mlo, ctx.mhi, fr.bxlo, fr.bxhi)
    mylo, myhi = bxo.imul(ctx.mlo, ctx.mhi, fr.bylo, fr.byhi)
    sxlo, sxhi = bxo.isum(mxlo, mxhi, axis=-1, where=mask)
    sylo, syhi = bxo.isum(mylo, myhi, axis=-1, where=mask)
    gx, gy, _, _ = fr.cluster_pair_terms(ctx)
    # the stored g is oriented i -> j; flip the sign when the j side is inside
    tx_lo = np.where(in_i, gx[0], -gx[1])
    tx_hi = np.where(in_i, gx[1], -gx[0])
    ty_lo = np.where(in_i, gy[0], -gy[1])
    ty_hi = np.where(in_i, gy[1], -gy[0])
    cxlo, cxhi = bxo.isum(tx_lo, tx_hi, axis=-1, where=cross)
    cylo, cyhi = bxo.isum(ty_lo, ty_hi, axis=-1, where=cross)
    exlo, exhi = bxo.isub(sxlo, sxhi, cxlo, cxhi)
    eylo, eyhi = bxo.isub(sylo, syhi, cylo, cyhi)
    return not (exlo <= 0.0 <= exhi and eylo <= 0.0 <= eyhi)


def _cluster_fui_excluded(ctx, fr: _BatchFrame, members: frozenset[int]) -> bool:
    """Moment/potential balance of a proper group: no CC when
    sup I_C < inf U_C + inf F_C; needs the cross pairs collision free."""
    mask = _member_mask(fr.n, members)
    in_i = mask[ctx.ii]
    in_j = mask[ctx.jj]
    intra = in_i & in_j
    cross = in_i != in_j
    if np.any(cross & ~fr.pair_ok):
        return False
    if np.any(intra & (fr.rhi <= 0.0)):
        return True  # exact collision of two point bodies cannot be a CC
    # inf U_C stays valid under intra-cluster collisions: zero distance only grows it
    U_lo = _u_lo(ctx, fr.rhi, intra)
    _, I_hi = bxo.isum(fr.mq2lo, fr.mq2hi, axis=-1, where=mask)
    _, _, hi_, hj_ = fr.cluster_pair_terms(ctx)
    t_lo = np.where(in_i, hi_[0], hj_[0])
    t_hi = np.where(in_i, hi_[1], hj_[1])
    F_lo, _ = bxo.isum(t_lo, t_hi, axis=-1, where=cross)
    return bool(I_hi < bxo.add_down(U_lo, F_lo))


def cluster_test_excluded_single(ctx, fr: _BatchFrame, max_diam: float) -> bool:
    """Proper-cluster tests for one box over the two epsilon partitions."""
    seen: set[frozenset[int]] = set()
    for eps in (0.0, max_diam):
        for grp in cluster_partition_from_frame(ctx, fr, eps):
            if 2 <= len(grp) < fr.n and grp not in seen:
                seen.add(grp)
                if _cluster_zero_excluded(ctx, fr, grp):
                    return True
                if _cluster_fui_excluded(ctx, fr, grp):
                    return True
    return False


def _closure(ctx, rlo: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(B, n, n) masks: row i holds the members of body i's eps-cluster."""
    n = ctx.n
    link = rlo <= eps[:, None]
    R = np.zeros((len(rlo), n, n), dtype=bool)
    R[:, ctx.ii, ctx.jj] = link
    R[:, ctx.jj, ctx.ii] = link
    R[:, np.arange(n), np.arange(n)] = True
    # each squaring doubles the path length covered; n - 1 links suffice
    for _ in range((n - 2).bit_length()):
        R = R @ R
    return R


def cluster_groups(ctx, fr: _BatchFrame, max_diam: np.ndarray):
    """Distinct proper groups of each box's two epsilon partitions.

    Returns (box index (K,), member mask (K, n)) over all the batch's
    boxes, each group listed once per box.
    """
    n = fr.n
    bits = 1 << np.arange(n)
    codes = []
    for eps in (np.zeros_like(max_diam), max_diam):
        R = _closure(ctx, fr.rlo, eps)
        size = np.count_nonzero(R, axis=-1)
        codes.append(np.where((size >= 2) & (size < n), R.astype(np.int64) @ bits, 0))
    codes = np.sort(np.concatenate(codes, axis=-1), axis=-1)
    keep = codes > 0
    keep[:, 1:] &= codes[:, 1:] != codes[:, :-1]
    box, slot = np.nonzero(keep)
    return box, (codes[box, slot][:, None] & bits) != 0


def cluster_groups_excluded(ctx, fr: _BatchFrame, box: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`_cluster_zero_excluded` or the proper-group `_cluster_fui_excluded`
    for each (box, group) row; groups must be proper subsets."""
    in_i = mask[:, ctx.ii]
    in_j = mask[:, ctx.jj]
    intra = in_i & in_j
    cross = in_i != in_j
    blocked = np.any(cross & ~fr.pair_ok[box], axis=-1)
    gx, gy, hi_, hj_ = (tuple(a[box] for a in t) for t in fr.cluster_pair_terms(ctx))

    # zero test: (0,0) in sum_C m_i q_i - sum_cross g, g flipped when j is inside
    mxlo, mxhi = bxo.imul(ctx.mlo, ctx.mhi, fr.bxlo[box], fr.bxhi[box])
    mylo, myhi = bxo.imul(ctx.mlo, ctx.mhi, fr.bylo[box], fr.byhi[box])
    sxlo, sxhi = bxo.isum(mxlo, mxhi, axis=-1, where=mask)
    sylo, syhi = bxo.isum(mylo, myhi, axis=-1, where=mask)
    cxlo, cxhi = bxo.isum(
        np.where(in_i, gx[0], -gx[1]), np.where(in_i, gx[1], -gx[0]), axis=-1, where=cross
    )
    cylo, cyhi = bxo.isum(
        np.where(in_i, gy[0], -gy[1]), np.where(in_i, gy[1], -gy[0]), axis=-1, where=cross
    )
    exlo, exhi = bxo.isub(sxlo, sxhi, cxlo, cxhi)
    eylo, eyhi = bxo.isub(sylo, syhi, cylo, cyhi)
    zero = ~((exlo <= 0.0) & (0.0 <= exhi) & (eylo <= 0.0) & (0.0 <= eyhi))

    # moment/potential test: sup I_C < inf U_C + inf F_C
    collided = np.any(intra & (fr.rhi[box] <= 0.0), axis=-1)
    U_lo = _u_lo(ctx, fr.rhi[box], intra)
    _, I_hi = bxo.isum(fr.mq2lo[box], fr.mq2hi[box], axis=-1, where=mask)
    F_lo, _ = bxo.isum(
        np.where(in_i, hi_[0], hj_[0]), np.where(in_i, hi_[1], hj_[1]), axis=-1, where=cross
    )
    fui = collided | (I_hi < bxo.add_down(U_lo, F_lo))
    return ~blocked & (zero | fui)


def cluster_test_excluded_batch(ctx, fr: _BatchFrame, max_diam: np.ndarray) -> np.ndarray:
    """`cluster_test_excluded_single` for every box of the frame at once:
    a box is excluded when any of its proper groups is."""
    box, mask = cluster_groups(ctx, fr, max_diam)
    out = np.zeros(len(max_diam), dtype=bool)
    out[box[cluster_groups_excluded(ctx, fr, box, mask)]] = True
    return out


# ---------------------------------------------------------------------------
# the battery


def run_battery_batch(ctx, bset: bounds_mod.BoundSet, zlo, zhi, ordering: str):
    """Battery over a batch of boxes in the canonical order.

    zlo, zhi have shape (B, d).  Returns (status, out_lo, out_hi) where
    status[b] is the index into TEST_NAMES of the firing test or SURVIVED,
    and out_lo/out_hi carry the (possibly checkZero-refined) boxes of the
    survivors.
    """
    B = zlo.shape[0]
    fr = _BatchFrame(ctx, *reduced_mod.box_to_free_arrays(zlo, zhi))
    status = np.full(B, SURVIVED, dtype=np.int8)

    fired = bounds_mod.check_apriori_batch(bset, fr.q2lo, fr.q2hi, fr.rhi)
    status[fired] = 0

    live = status == SURVIVED
    if np.any(live):
        fired = u_eq_i_excluded_batch(ctx, fr)
        status[fired & live] = 1

    live = status == SURVIVED
    if np.any(live):
        max_diam = np.max(zhi - zlo, axis=-1)
        idx = np.nonzero(cluster_candidates_needed(fr, max_diam) & live)[0]
        if len(idx):
            fired = cluster_test_excluded_batch(ctx, fr.take(idx), max_diam[idx])
            status[idx[fired]] = 2

    live = status == SURVIVED
    if np.any(live):
        fired = distance_order_excluded_batch(fr, ordering)
        status[fired & live] = 3

    out_lo = zlo
    out_hi = zhi
    live = status == SURVIVED
    if np.any(live):
        idx = np.nonzero(live)[0]
        sub = fr if len(idx) == B else fr.take(idx)
        excluded, new_lo, new_hi, changed = check_zero_batch(ctx, sub, zlo[idx], zhi[idx])
        status[idx[excluded]] = 4
        keep = ~excluded
        if np.any(changed & keep):
            out_lo = zlo.copy()
            out_hi = zhi.copy()
            out_lo[idx] = new_lo
            out_hi[idx] = new_hi
    return status, out_lo, out_hi
