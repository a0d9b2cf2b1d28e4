"""Independent float checker for planar central configurations of n equal masses.

Plain Python floats only; nothing here imports `ccenum`, so a fault in the
prover cannot hide in a shared helper.  Conventions match the paper's
normalization: every mass is 1/n (total mass M = 1), the center of mass
sits at the origin and the force balance reads

    q_i = sum_{j != i} m_j (q_i - q_j) / |q_i - q_j|^3 .

The reduced (gauge-fixed) coordinates are z = (x_0, y_0, ..., x_{n-3},
y_{n-3}, x_{n-2}): body n-2 lies on the positive x axis and the last body
is -(sum of the others).  The reduced residual keeps the x and y
equations of bodies 0..n-3 and the x equation of body n-2.
"""

from __future__ import annotations

import itertools
import math


def n_for_dim(d: int) -> int:
    return (d + 3) // 2


# ---------------------------------------------------------------------------
# residual, Newton polish, scalars


def residual(pts):
    """Full residual q_i - sum_j m_j (q_i - q_j)/r^3 as a list of (fx, fy)."""
    n = len(pts)
    m = 1.0 / n
    out = []
    for i, (xi, yi) in enumerate(pts):
        ax = ay = 0.0
        for j, (xj, yj) in enumerate(pts):
            if j == i:
                continue
            dx = xi - xj
            dy = yi - yj
            r2 = dx * dx + dy * dy
            r3 = r2 * math.sqrt(r2)
            ax += m * dx / r3
            ay += m * dy / r3
        out.append((xi - ax, yi - ay))
    return out


def bodies_from_reduced(z):
    """All n bodies of a reduced point, the last one from the center of mass."""
    n = n_for_dim(len(z))
    pts = [(z[2 * i], z[2 * i + 1]) for i in range(n - 2)]
    pts.append((z[-1], 0.0))
    pts.append((-math.fsum(p[0] for p in pts), -math.fsum(p[1] for p in pts)))
    return pts


def reduced_residual(z):
    n = n_for_dim(len(z))
    f = residual(bodies_from_reduced(z))
    out = []
    for i in range(n - 2):
        out += [f[i][0], f[i][1]]
    out.append(f[n - 2][0])
    return out


def _solve(a, b):
    """Gaussian elimination with partial pivoting; None when singular."""
    d = len(b)
    a = [row[:] + [b[k]] for k, row in enumerate(a)]
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0.0:
            return None
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, d):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, d + 1):
                    a[r][k] -= f * a[c][k]
    x = [0.0] * d
    for r in range(d - 1, -1, -1):
        s = a[r][d] - math.fsum(a[r][k] * x[k] for k in range(r + 1, d))
        x[r] = s / a[r][r]
    return x


def _jacobian_fd(z):
    """Central-difference Jacobian of the reduced residual."""
    d = len(z)
    cols = []
    for k in range(d):
        h = 1e-7 * max(1.0, abs(z[k]))
        zp = list(z)
        zm = list(z)
        zp[k] += h
        zm[k] -= h
        fp = reduced_residual(zp)
        fm = reduced_residual(zm)
        cols.append([(fp[r] - fm[r]) / (2 * h) for r in range(d)])
    return [[cols[k][r] for k in range(d)] for r in range(d)]


def newton(z0, max_iter: int = 40):
    """Polish a reduced point to a zero; None when Newton does not converge."""
    z = [float(v) for v in z0]
    for _ in range(max_iter):
        f = reduced_residual(z)
        step = _solve(_jacobian_fd(z), [-v for v in f])
        if step is None or not all(math.isfinite(s) for s in step):
            return None
        z = [a + s for a, s in zip(z, step)]
        if max(abs(s) for s in step) <= 4e-16 * max(1.0, max(abs(v) for v in z)):
            break
    if max(abs(v) for v in reduced_residual(z)) > 1e-11:
        return None
    return z


def scalars(pts):
    """(U, I, J) with U = sum m_i m_j / r_ij, I = sum m_i |q_i|^2, J = U sqrt(I) / M^(5/2)."""
    n = len(pts)
    m = 1.0 / n
    U = math.fsum(
        m * m / math.dist(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)
    )
    I = math.fsum(m * (x * x + y * y) for x, y in pts)
    return U, I, U * math.sqrt(I)  # M = 1


# ---------------------------------------------------------------------------
# the gauge


def centered(pts):
    n = len(pts)
    cx = math.fsum(p[0] for p in pts) / n
    cy = math.fsum(p[1] for p in pts) / n
    return [(x - cx, y - cy) for x, y in pts]


def gauge(pts, pin: int, order, mirror: bool = False):
    """Reduced point with body `pin` rotated onto +x; `order` lists the other
    bodies for slots 0..n-3 and the derived last slot."""
    pts = centered([(x, -y) if mirror else (x, y) for x, y in pts])
    px, py = pts[pin]
    rho = math.hypot(px, py)
    c, s = px / rho, py / rho
    rot = [(x * c + y * s, -x * s + y * c) for x, y in pts]
    z = []
    for k in order[:-1]:
        z += [rot[k][0], rot[k][1]]
    z.append(rho)
    return z


def gauge_points(pts):
    """Every reduced point of the configuration: each relabeling and the mirror."""
    n = len(pts)
    for mirror in (False, True):
        for pin in range(n):
            others = [k for k in range(n) if k != pin]
            for order in itertools.permutations(others):
                yield gauge(pts, pin, list(order), mirror)


def normalized(z, ordering: str = "decreasing", tol: float = 1e-9) -> bool:
    """The search domain's normalization, ties allowed.

    Body n-2 is a furthest body with x in [1/2, n-1], body 0 has the least x
    (negative) and y >= 0, body 1 (n >= 4) has the least y, every
    coordinate is at most n-1 in size, and the middle bodies 2..n-3 followed
    by the derived body are ordered by x.
    """
    n = n_for_dim(len(z))
    pts = bodies_from_reduced(z)
    span = float(n - 1)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pin = n - 2
    if not (0.5 - tol <= xs[pin] <= span + tol):
        return False
    if any(x * x + y * y > xs[pin] ** 2 + tol for x, y in pts):
        return False
    if not (-span - tol <= xs[0] < 0.0) or ys[0] < -tol:
        return False
    if any(x < xs[0] - tol or x > xs[pin] + tol for x in xs):
        return False
    if n >= 4:
        if ys[1] > tol or ys[1] < -span - tol:
            return False
        if any(y < ys[1] - tol or y > span + tol for y in ys):
            return False
    chain = list(range(2, n - 2)) + [n - 1]
    for a, b in zip(chain, chain[1:]):
        if ordering == "decreasing" and xs[a] < xs[b] - tol:
            return False
        if ordering == "increasing" and xs[b] < xs[a] - tol:
            return False
    return True


def polish(pts):
    """Newton-polish a point configuration; returns the polished bodies or None.

    The furthest body is pinned, so the gauge is well defined whatever the
    scale of the input."""
    far = _furthest(pts)
    z = newton(gauge(pts, far, [k for k in range(len(pts)) if k != far]))
    return None if z is None else bodies_from_reduced(z)


# ---------------------------------------------------------------------------
# boxes, configurations and symmetry


def box_contains(lo, hi, z, slack: float = 0.0) -> bool:
    return all(a - slack <= v <= b + slack for a, b, v in zip(lo, hi, z))


def gauge_valid(lo, hi, margin: float = 1e-12) -> bool:
    """The pinned body and the derived last body have disjoint x ranges on
    the box (x_last = -(x_0 + ... + x_{n-2}) for equal masses)."""
    n = n_for_dim(len(lo))
    xi = list(range(0, 2 * (n - 2), 2)) + [len(lo) - 1]
    last_lo = -math.fsum(hi[k] for k in xi) - margin
    last_hi = -math.fsum(lo[k] for k in xi) + margin
    return last_hi < lo[-1] or last_lo > hi[-1]


def same_configuration(a, b, tol: float = 1e-8) -> bool:
    """Equal up to translation, rotation, reflection and relabeling
    (both at the normalized scale)."""
    if len(a) != len(b):
        return False
    pa = bodies_from_reduced(next(_furthest_gauges(a)))
    return any(_match(pa, bodies_from_reduced(zb), tol) is not None for zb in _furthest_gauges(b))


def _furthest(pts) -> int:
    c = centered(pts)
    return max(range(len(c)), key=lambda k: c[k][0] ** 2 + c[k][1] ** 2)


def _furthest_gauges(pts, tol: float = 1e-9):
    """Gauges that pin some furthest body (ties included), with the mirror."""
    c = centered(pts)
    r2 = [x * x + y * y for x, y in c]
    top = max(r2)
    for mirror in (False, True):
        for pin in range(len(c)):
            if r2[pin] >= top - tol:
                yield gauge(c, pin, [k for k in range(len(c)) if k != pin], mirror)


def _match(a, b, tol: float):
    """Permutation sigma with a[i] ~ b[sigma[i]] within tol, or None.

    Greedy: bodies of one configuration lie far more than tol apart."""
    used = set()
    sigma = []
    for x, y in a:
        hit = None
        for k, (u, v) in enumerate(b):
            if k not in used and abs(x - u) <= tol and abs(y - v) <= tol:
                hit = k
                break
        if hit is None:
            return None
        used.add(hit)
        sigma.append(hit)
    return sigma


def reflect(pts, ax: float, ay: float):
    """Reflect about the line through the origin along (ax, ay)."""
    nrm = math.hypot(ax, ay)
    c, s = ax / nrm, ay / nrm
    rxx, rxy = c * c - s * s, 2 * c * s
    return [(rxx * x + rxy * y, rxy * x - rxx * y) for x, y in pts]


def symmetry_axes(pts, tol: float = 1e-7):
    """Every reflection line through the center of mass that maps the
    configuration onto itself, as unit vectors.

    A symmetry maps a body a0 off the center to a body b of equal radius;
    the line then bisects the rays to a0 and b, so trying each such b finds
    every axis."""
    c = centered(pts)
    r = [math.hypot(x, y) for x, y in c]
    a0 = max(range(len(c)), key=lambda k: r[k])
    ux, uy = c[a0][0] / r[a0], c[a0][1] / r[a0]
    axes = []
    for b in range(len(c)):
        if abs(r[b] - r[a0]) > tol:
            continue
        vx, vy = c[b][0] / r[b], c[b][1] / r[b]
        wx, wy = ux + vx, uy + vy
        if math.hypot(wx, wy) < 1e-9:  # opposite rays: the perpendicular bisects them
            wx, wy = -uy, ux
        if _match(reflect(c, wx, wy), c, tol) is not None:
            axes.append((wx / math.hypot(wx, wy), wy / math.hypot(wx, wy)))
    return axes


def permutation_maps(pts, axis, perm, tol: float = 1e-7) -> bool:
    """Reflecting about `axis` sends body i onto body perm[i]."""
    img = reflect(pts, *axis)
    return all(
        abs(img[i][0] - pts[j][0]) <= tol and abs(img[i][1] - pts[j][1]) <= tol
        for i, j in enumerate(perm)
    )


def axis_holds(pts, perm, axis=None, angle_tol: float = 1e-6) -> bool:
    """Some symmetry axis of the configuration carries the permutation
    `perm`; with `axis` given, that axis must lie within `angle_tol` radians
    of it (distinct axes are at least pi/n apart)."""
    for ax in symmetry_axes(pts):
        if axis is not None:
            sin = abs(ax[0] * axis[1] - ax[1] * axis[0]) / math.hypot(*axis)
            if sin > angle_tol:
                continue
        if permutation_maps(pts, ax, perm):
            return True
    return False


# ---------------------------------------------------------------------------
# candidate files


def parse_points(text: str):
    """Configurations from an `x y` per line file, blank-line separated, # comments."""
    configs, cur = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if cur:
                configs.append(cur)
                cur = []
            continue
        x, y = line.replace(",", " ").split()
        cur.append((float(x), float(y)))
    if cur:
        configs.append(cur)
    return configs
