"""The tilt and the tilt solve as they were before the profile table stored panel rows.

``quad`` kept one tuple per panel and stacked the leaves at the end, the
profile table looked every panel up by the bytes of its nodes (once in
the integrand and once more for the leaves' costs), ``_breakpoints``
called the cost at every tilt, and Newton ran until its step no longer
moved lambda.  ``test_tilt_reference.py`` compares the leaves, the node
sums and the solved tilt of ``fishercap.jeffreys`` with these by ``==``.

The inverse cdf ran point by point: a scalar safeguarded Newton per u,
evaluating the Legendre recurrence in Python floats, and each design
called the scalar public inverse once per point.  The tests compare the
designs and the cdf and inverse cdf of ``fishercap`` with these by
``==`` too.
"""

import heapq
import math
from types import SimpleNamespace

import numpy as np

from fishercap import constellation, jeffreys
from fishercap.errors import ToleranceError
from fishercap.quad import NODES, WEIGHTS, _midpoints

LN2 = math.log(2.0)
_BRACKET_TOL = 1e-12


def _panels(f, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * NODES
    y = np.ascontiguousarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return [(x[i], y[i], half[i] * (y[i] @ WEIGHTS)) for i in range(len(a))]


def quad(f, a, b, rule, breakpoints=()):
    """The converged leaves of the weight, as a namespace of a, b, x, values, sums and err."""
    edges = sorted({a, b, *(float(t) for t in breakpoints if a < t < b)})

    def tol(value):
        return max(rule.abs_tol, rule.rel_tol * abs(value))

    def segment(lo, hi, coarse, left, right):
        fine = left[2] + right[2]
        return [0.0, lo, hi, 0.5 * (lo + hi), left, right, fine, abs(coarse - fine)]

    def push(seg, value):
        seg[0] = -float(seg[7] / tol(value))
        heapq.heappush(heap, seg)

    spans = [(lo, hi, 0.5 * (lo + hi)) for lo, hi in zip(edges, edges[1:])]
    cuts = [c for lo, hi, mid in spans for c in ((lo, hi), (lo, mid), (mid, hi))]
    p = _panels(f, *zip(*cuts))
    roots = [segment(lo, hi, p[3 * i][2], p[3 * i + 1], p[3 * i + 2])
             for i, (lo, hi, _) in enumerate(spans)]
    value = sum(s[6] for s in roots)
    err = sum(s[7] for s in roots)
    heap = []
    for s in roots:
        push(s, value)
    nsub = len(roots)
    while err > tol(value):
        if nsub >= 2 ** 14:
            raise ToleranceError("quad: tolerance not met", best=float(value), err_est=float(err))
        _, lo, hi, mid, left, right, fine, seg_err = heapq.heappop(heap)
        q1, q2 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        p = _panels(f, (lo, q1, mid, q2), (q1, mid, q2, hi))
        s1 = segment(lo, mid, left[2], p[0], p[1])
        s2 = segment(mid, hi, right[2], p[2], p[3])
        value = value + (s1[6] + s2[6]) - fine
        err = err + (s1[7] + s2[7]) - seg_err
        push(s1, value)
        push(s2, value)
        nsub += 1

    panels = sorted([(s[1], s[3], s[4]) for s in heap] + [(s[3], s[2], s[5]) for s in heap],
                    key=lambda p: p[0])
    return SimpleNamespace(
        a=np.array([p[0] for p in panels]),
        b=np.array([p[1] for p in panels]),
        x=np.stack([p[2][0] for p in panels]),
        values=np.stack([p[2][1] for p in panels]),
        sums=np.array([p[2][2] for p in panels]),
        err=float(sum(s[7] for s in heap)),
    )


class ProfileTable:
    """Node values of cost and sqrt(det J) per panel, keyed by the bytes of its nodes."""

    def __init__(self, channel):
        table = jeffreys._ProfileTable(channel)
        self.lo, self.hi, self.theta0, self.c_min = table.lo, table.hi, table.theta0, table.c_min
        self._root_det = table._root_det
        self.channel = channel
        self._nodes = {}
        self.tilts = 0

    def _values(self, x):
        keys = [p.tobytes() for p in x.reshape(-1, 15)]
        miss = {k: p for k, p in zip(keys, x.reshape(-1, 15)) if k not in self._nodes}
        if miss:
            t = np.concatenate(list(miss.values()))
            dc = np.asarray(self.channel.cost(t), dtype=float) - self.c_min
            root_det = self._root_det(t)
            for i, k in enumerate(miss):
                self._nodes[k] = (dc[15 * i:15 * i + 15], root_det[15 * i:15 * i + 15])
        dc, root_det = zip(*(self._nodes[k] for k in keys))
        return np.concatenate(dc), np.concatenate(root_det)

    def _breakpoints(self, lam):
        cuts = [self.theta0]
        if lam > 0.0:
            for end in (self.lo, self.hi):
                h = end - self.theta0
                while h != 0.0 and lam * (float(self.channel.cost(self.theta0 + h))
                                          - self.c_min) > jeffreys._GRADE_BITS:
                    h *= 0.5
                    cuts.append(self.theta0 + h)
        return cuts

    def tilt(self, lam):
        """The leaves at lam with z, the mean cost m and its variance."""
        self.tilts += 1

        def f(x):
            dc, root_det = self._values(x)
            return np.exp2(-lam * dc) * root_det

        leaves = quad(f, self.lo, self.hi, jeffreys._PRIOR_RULE, self._breakpoints(lam))
        z = float(leaves.sums.sum())
        dc = self._values(leaves.x)[0].reshape(leaves.x.shape)
        mass = (0.5 * (leaves.b - leaves.a))[:, None] * WEIGHTS * leaves.values
        mean_dc = float((mass * dc).sum()) / z
        var = float((mass * (dc - mean_dc) ** 2).sum()) / z
        return SimpleNamespace(lam=lam, leaves=leaves, z=z, m=self.c_min + mean_dc, var=var)


def newton_root(table, P, lo, hi):
    cur = hi
    for _ in range(100):
        lam = cur.lam + (cur.m - P) / (LN2 * cur.var) if cur.var > 0.0 else math.nan
        if not lo < lam <= hi.lam:
            lam = 0.5 * (lo + hi.lam)
        if abs(lam - cur.lam) <= 4.0 * np.finfo(float).eps * cur.lam:
            break
        cur = table.tilt(lam)
        if cur.m > P:
            lo = lam
        else:
            hi = cur
    return cur


def _solution(table, P, t):
    log2_jf = t.lam * (P - table.c_min) + math.log2(t.z)
    jf = 2.0 ** log2_jf if log2_jf < 1024.0 else math.inf
    return SimpleNamespace(lambda_star=t.lam, jf=jf, log2_jf=log2_jf, m_at_star=t.m,
                           prior=t, tilts=table.tilts)


def solve_lambda_star(channel, P):
    """The solved tilt (lambda*, jf, log2_jf, m_at_star, prior) and the tilts it took.

    Only the paths that return a tilt are kept; the error cases are the
    library's own.
    """
    table = ProfileTable(channel)
    t0 = table.tilt(0.0)
    if t0.m <= P + 1e-12 * max(1.0, P):
        return _solution(table, P, t0)
    below = 0.0
    top = table.tilt(1.0 / P)
    while not top.m <= P:
        below = top.lam
        top = table.tilt(2.0 * top.lam)
    root = newton_root(table, P, below, top)
    near = 4.0 * jeffreys._M_TOL_REL * P / (LN2 * root.var)
    lo, hi, at_hi = 0.0, top.lam, top
    while hi - lo > _BRACKET_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if abs(mid - root.lam) > near:
            above, cur = mid < root.lam, None
        else:
            cur = table.tilt(mid)
            if abs(cur.m - P) < jeffreys._M_TOL_REL * P:
                return _solution(table, P, cur)
            above = cur.m > P
        if above:
            lo = mid
        else:
            hi, at_hi = mid, cur
    return _solution(table, P, at_hi if at_hi is not None else table.tilt(hi))


def invert_monotone(F_dF, target, lo, hi, x):
    """x in [lo, hi] with F(x) = target, for F nondecreasing; F_dF(x) = (F(x), F'(x))."""
    for _ in range(200):
        F, d = F_dF(x)
        g = F - target
        if g == 0.0:
            return x
        if g < 0.0:
            lo = x
        else:
            hi = x
        nxt = x - g / d if d > 0.0 else math.nan
        if nxt == x:  # the step is below half an ulp; x is the bracket end just set
            return x
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 2.0 * np.finfo(float).eps * max(1.0, abs(x)):
            return nxt
        x = nxt
    return x


def _legendre(s):
    p = [1.0, s]
    for k in range(1, 15):
        p.append(((2 * k + 1) * s * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p)


def panel_mass(prior, i, s):
    """Mass of the prior's panel i left of local coordinate s, and its derivative in s."""
    _, coef = prior._cdf_table
    p = _legendre(s)
    q = np.concatenate(([s + 1.0], (p[2:] - p[:-2]) / jeffreys._ODD))
    half = 0.5 * (prior.leaves.b[i] - prior.leaves.a[i])
    return half * float(coef[i] @ q), half * float(coef[i] @ p[:15])


def prior_cdf(prior, t):
    cum, _ = prior._cdf_table
    a, b = prior.leaves.a, prior.leaves.b
    t = min(max(float(t), prior.lo), prior.hi)
    if t == prior.lo:
        return 0.0
    i = min(int(np.searchsorted(b, t)), b.size - 1)
    s = min(max((2.0 * t - a[i] - b[i]) / (b[i] - a[i]), -1.0), 1.0)
    return min(max((cum[i] + panel_mass(prior, i, s)[0]) / cum[-1], 0.0), 1.0)


def prior_cdf_inverse(prior, u):
    u = float(u)
    if u == 0.0:
        return prior.lo
    if u == 1.0:
        return prior.hi
    cum, _ = prior._cdf_table
    target = u * cum[-1]
    i = min(int(np.searchsorted(cum[1:], target)), cum.size - 2)
    need = min(max(target - cum[i], 0.0), cum[i + 1] - cum[i])
    s0 = -1.0 + 2.0 * need / (cum[i + 1] - cum[i])
    s = invert_monotone(lambda s: panel_mass(prior, i, s), need, -1.0, 1.0, s0)
    a, b = prior.leaves.a[i], prior.leaves.b[i]
    return min(max(0.5 * (a + b) + 0.5 * (b - a) * s, a), b)


def poly_cdf(p, t):
    lo, _ = p.support
    t, i = np.asarray(float(t)), np.arange(p.coeffs.size)
    terms = (t[..., None] ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return min(max(float(terms @ p.coeffs), 0.0), 1.0)


def poly_cdf_inverse(p, u):
    u = float(u)
    lo, hi = p.support
    if u == 0.0:
        return lo
    if u == 1.0:
        return hi
    return invert_monotone(lambda t: (poly_cdf(p, t), float(p.pdf(t))), u, lo, hi, lo + u * (hi - lo))


def jeffreys_constellation(channel, P, M):
    prior = jeffreys.solve_lambda_star(channel, P).prior
    raw = np.array([prior_cdf_inverse(prior, u) for u in _midpoints(0.0, 1.0, M)])
    return constellation._scaled_constellation(raw, P)


def radial_constellation_isotropic(channel, P, M_r, directions):
    prior = jeffreys.solve_lambda_star(channel, P).prior
    radii = np.array([prior_cdf_inverse(prior, u) for u in _midpoints(0.0, 1.0, M_r)])
    raw = np.concatenate([r * np.asarray(directions, dtype=float) for r in radii], axis=0)
    return constellation._scaled_constellation(raw, P)


def approx_jeffreys_constellation(p, P, M):
    raw = np.array([poly_cdf_inverse(p, u) for u in _midpoints(0.0, 1.0, M)])
    return constellation._scaled_constellation(raw, P)
