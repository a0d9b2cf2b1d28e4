"""Plain floating-point reference implementations used as independent
oracles by the test suite.  Nothing here touches the interval machinery."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def disjoint(a, b) -> bool:
    """Two enclosures with `lo` and `hi` bounds share no point."""
    return a.hi < b.lo or b.hi < a.lo


def reduced_point_to_bodies(z, n):
    """Bodies (n, 2) from reduced coordinates, equal masses."""
    q = np.zeros((n, 2))
    for i in range(n - 2):
        q[i] = z[2 * i], z[2 * i + 1]
    q[n - 2] = z[-1], 0.0
    q[n - 1] = -q[: n - 1].sum(axis=0)
    return q


def bodies_to_reduced_point(q):
    n = len(q)
    z = np.empty(2 * (n - 1) - 1)
    for i in range(n - 2):
        z[2 * i] = q[i][0]
        z[2 * i + 1] = q[i][1]
    z[-1] = q[n - 2][0]
    return z


def full_residual(q, m):
    n = len(q)
    F = np.zeros((n, 2))
    for i in range(n):
        acc = np.zeros(2)
        for j in range(n):
            if i == j:
                continue
            d = q[i] - q[j]
            acc += m[j] * d / np.hypot(*d) ** 3
        F[i] = q[i] - acc
    return F


def reduced_residual(z, n):
    q = reduced_point_to_bodies(z, n)
    m = np.full(n, 1.0 / n)
    F = full_residual(q, m)
    out = np.empty(2 * (n - 1) - 1)
    for i in range(n - 2):
        out[2 * i] = F[i, 0]
        out[2 * i + 1] = F[i, 1]
    out[-1] = F[n - 2, 0]
    return out


def fd_reduced_jacobian(z, n, h=1e-7):
    d = len(z)
    J = np.zeros((d, d))
    for k in range(d):
        zp = z.copy()
        zm = z.copy()
        zp[k] += h
        zm[k] -= h
        J[:, k] = (reduced_residual(zp, n) - reduced_residual(zm, n)) / (2 * h)
    return J


def newton_polish(z, n, iters=60, tol=1e-14):
    """Refine a reduced point to a high-precision zero (float Newton)."""
    z = np.asarray(z, dtype=float).copy()
    for _ in range(iters):
        F = reduced_residual(z, n)
        if np.max(np.abs(F)) < tol:
            break
        J = fd_reduced_jacobian(z, n, h=1e-7)
        z -= np.linalg.solve(J, F)
    return z


def scalars_of_bodies(q, m):
    """(U, I, J, P) in plain floats."""
    n = len(q)
    U = 0.0
    Uu = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = np.hypot(*(q[i] - q[j]))
            U += m[i] * m[j] / r
            Uu += 1.0 / r
    Iv = float((m[:, None] * q * q).sum())
    Iu = float((q * q).sum())
    M = float(m.sum())
    Jv = U * np.sqrt(Iv) / M**2.5
    P = Uu * np.sqrt(Iu)
    return U, Iv, Jv, P


def gauge_points(points):
    """Float re-gauge of a point configuration: center of mass to the
    origin, furthest body rotated onto +x and moved to slot n-2."""
    pts = np.array(points, dtype=float)
    n = len(pts)
    pts = pts - pts.mean(axis=0)
    far = int(np.argmax((pts**2).sum(axis=1)))
    rho = np.hypot(*pts[far])
    c, s = pts[far, 0] / rho, pts[far, 1] / rho
    rot = np.empty_like(pts)
    rot[:, 0] = pts[:, 0] * c + pts[:, 1] * s
    rot[:, 1] = -pts[:, 0] * s + pts[:, 1] * c
    order = [i for i in range(n) if i != far]
    order.insert(n - 2, far)
    return rot[order]


def polish_listed(points):
    """Gauge + Newton-refine a listed configuration; returns (z, bodies)."""
    pts = gauge_points(points)
    n = len(pts)
    z = newton_polish(bodies_to_reduced_point(pts), n)
    return z, reduced_point_to_bodies(z, n)


def kernel_grid_range(xlo, xhi, ylo, yhi, a, b, grid=400):
    """Dense-grid range of t^a / r^b over the box (X axis kernel)."""
    xs = np.linspace(xlo, xhi, grid)
    ys = np.linspace(ylo, yhi, grid)
    X, Y = np.meshgrid(xs, ys)
    V = X**a / np.hypot(X, Y) ** b
    return float(V.min()), float(V.max())


# ---------------------------------------------------------------------------
# directed rounding of one operation from exact rational remainders: the
# reference the error-free transforms of `ccenum.interval` must reproduce
# bit for bit


def mul_down(a: float, b: float) -> float:
    p = a * b
    if math.isinf(p):
        return p if p < 0 else math.nextafter(p, 0.0)
    r = Fraction(a) * Fraction(b) - Fraction(p)
    return math.nextafter(p, -math.inf) if r < 0 else p


def mul_up(a: float, b: float) -> float:
    p = a * b
    if math.isinf(p):
        return p if p > 0 else math.nextafter(p, 0.0)
    r = Fraction(a) * Fraction(b) - Fraction(p)
    return math.nextafter(p, math.inf) if r > 0 else p


def div_down(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q):
        return q if q < 0 else math.nextafter(q, 0.0)
    r = Fraction(a) - Fraction(q) * Fraction(b)
    return math.nextafter(q, -math.inf) if (r < 0) == (b > 0) and r != 0 else q


def div_up(a: float, b: float) -> float:
    q = a / b
    if math.isinf(q):
        return q if q > 0 else math.nextafter(q, 0.0)
    r = Fraction(a) - Fraction(q) * Fraction(b)
    return math.nextafter(q, math.inf) if (r > 0) == (b > 0) and r != 0 else q


def sqrt_down(a: float) -> float:
    if a == 0.0:
        return 0.0
    s = math.sqrt(a)
    return math.nextafter(s, -math.inf) if Fraction(s) * Fraction(s) > Fraction(a) else s


def sqrt_up(a: float) -> float:
    if a == 0.0:
        return 0.0
    s = math.sqrt(a)
    return math.nextafter(s, math.inf) if Fraction(s) * Fraction(s) < Fraction(a) else s
