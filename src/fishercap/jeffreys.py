"""Tilted Jeffreys machinery on one tabulated profile per channel.

Everything channel-specific sits in the tilted weight

    w_lambda(theta) = 2^(-lambda (c(theta) - c_min)) sqrt(det J(theta))

on the 1-D working coordinate: theta for interval spaces, the radius
for isotropic ball spaces, with the surface measure of the (d-1)-sphere
folded in (densities are then radial marginals).  c_min is the smallest
cost on the space, taken at theta_0, the point of the space nearest 0
(the cost is the squared working coordinate for every channel), so the
weight never underflows at its peak.

A profile table per channel evaluates c and sqrt(det J) once at each
15-point Gauss-Legendre node it visits and stores them as one row per
panel, keyed by the panel's ends (a, b); it calls the channel once per
quadrature step, on the panels it lacks.  A tilt lambda is one array
pass over the root partition, whose rows are kept per cut set: one
exp2, one multiply and a 15-term sum per panel.  Its halves are the
converged panels when the root meets the prior's tolerance (abs 1e-14,
rel 1e-12); otherwise the quadrature bisects from it.  Every result
depends only on (channel, lambda), never on earlier calls or on which
panels shared a channel call.  The root partition
is cut at theta_0 and at theta_0 + (end - theta_0)/2^k, k = 1, 2, ...,
until the tilt across the innermost panels is at most ``_GRADE_BITS``
bits, so the tilted peak is resolved however narrow it is; the costs at
these cuts sit on one ladder per end, extended as tilts need deeper
cuts.  From node sums alone the table gives:

* log2 JF(lambda) = lambda (P - c_min) + log2 Z, with Z the integral of
  w_lambda, so JF itself is formed only when it fits a float;
* the tilted mean cost M(lambda) and its variance, with
  dM/dlambda = -ln2 Var_lambda(c);
* the prior cdf, from cumulative panel masses plus the integral of the
  panel's degree-14 interpolant up to theta;
* the inverse cdf at every point of an array at once, from a panel
  search plus safeguarded Newton inside each panel (``invert_monotone``).

The tilt lambda* is the smallest lambda whose prior meets the power
budget, the root of M(lambda) = P.  M is strictly decreasing, so
bracketed Newton on it, from the first of 1/P, 2/P, 4/P, ... with
M <= P, returns its first tilt with |M - P| < 1e-10 P.  Where double
precision cannot resolve M to that tolerance, Newton stops once a step
no longer moves lambda, and lambda* is that last tilt.  A finite tilt
exists iff c_min < P.  The large-array capacity is then

    C(P) = (d/2) log2(n_r / (2 pi e)) + log2 JF(lambda*),

up to a term that vanishes as the number of antennas n_r grows; that
vanishing term is not modeled here.

A tilt is one object, ``TiltedPrior``: the normalized prior at lambda,
with its node sums, density, cdf and inverse cdf.  The
``JeffreysSolution`` that ``solve_lambda_star`` returns carries the
solved tilt as its ``prior``, so the designs and the CLI read the
prior at lambda* without tilting again.

Tables are built at first use and kept in one LRU cache of at most
``_TABLE_CACHE_SIZE`` channels, keyed by channel identity.  The solve
stores the root panels of its first two tilts, lambda = 0 and 1/P, with
one channel call.  The last ``_TILT_MEMO_SIZE`` tilts are kept in one
module-level dict keyed by (table, lambda), so ``jeffreys_factor`` then
``average_cost``, or ``tilted_prior`` at a solved lambda*, tilt once.
On the table, the memo would be a reference cycle (table, prior, table)
that only the cycle collector frees.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, DegenerateChannelError, RangeError, UnboundedTiltError, _real, _reals
from .quad import NODES, WEIGHTS, QuadRule, _nodes, _quad, _Root, _row_dots
from .specfun import log_gamma

LN2 = math.log(2.0)

_PRIOR_RULE = QuadRule(abs_tol=1e-14, rel_tol=1e-12)
_TABLE_CACHE_SIZE = 8
_GRADE_BITS = 8.0
_MAX_DOUBLINGS = 200
_M_TOL_REL = 1e-10  # lambda* meets |M(lambda*) - P| < _M_TOL_REL * P
_TILT_MEMO_SIZE = 16
_TILTS = {}  # (table, lambda) -> TiltedPrior, the last _TILT_MEMO_SIZE tilts evaluated

# Row k, column j: (2k+1)/2 * w_j * P_k(x_j); maps the 15 node values of
# a panel to the Legendre coefficients of their interpolant (exact, since
# the rule integrates every product P_k P_l of degree <= 28).
_TO_LEGENDRE = ((2.0 * np.arange(15) + 1.0) / 2.0)[:, None] * (
    np.polynomial.legendre.legvander(NODES, 14).T * WEIGHTS)
_ODD = 2.0 * np.arange(1, 15) + 1.0  # integral of P_k from -1 to s is (P_k+1 - P_k-1)/(2k+1)


def _log_sphere_surface(d):
    # Surface measure of the unit (d-1)-sphere: 2 pi^(d/2) / Gamma(d/2).
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - log_gamma(0.5 * d)


def _legendre(s):
    """P_0 .. P_15 at the local coordinates s in [-1, 1], one row of 16 per point."""
    p = [np.ones_like(s), s]
    for k in range(1, 15):
        p.append(((2 * k + 1) * s * p[k] - k * p[k - 1]) / (k + 1))
    return np.stack(p, axis=-1)


def _like(x, out):
    """out in the shape of x: a float for a scalar x, else an array."""
    out = np.reshape(out, np.shape(x))
    return float(out) if out.ndim == 0 else out


def invert_monotone(F_dF, target, lo, hi, x):
    """x in [lo, hi] with F(x) = target at every point, for F nondecreasing.

    target and the start x are 1-D arrays; F_dF(x, k) returns (F, F')
    at the points k still moving, one call per step.  Each point takes
    Newton steps, bisecting one that leaves the bracket kept around its
    root, and stops at F = target or a step below half an ulp (keeping
    x), a step below 2 eps max(1, |x|) (taking it), or after 200 steps.
    """
    x, lo, hi = np.broadcast_arrays(np.asarray(x, dtype=float), lo, hi)
    out, k = x.copy(), np.arange(x.size)
    for _ in range(200):
        if not k.size:
            break
        F, d = F_dF(x, k)
        g = F - target
        lo, hi = np.where(g < 0.0, x, lo), np.where(g < 0.0, hi, x)  # a NaN g moves hi
        step = x - g / np.where(d > 0.0, d, math.nan)
        # at the root, or a step below half an ulp: x is the bracket end just set, and stays
        stay = (g == 0.0) | (step == x)
        out[k] = nxt = np.where(stay, x, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)))
        moving = ~(np.abs(nxt - x) <= 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x)))
        k, x, target, lo, hi = k[moving], nxt[moving], target[moving], lo[moving], hi[moving]
    return out


class _ProfileTable:
    """Cost and sqrt(det J) at the nodes of each panel visited, one row per panel, for one channel."""

    def __init__(self, channel):
        ps = channel.param_space
        self.lo, self.hi = ps.profile_bounds
        if ps.shape == "interval":
            self._surface, self._radial = 1.0, 0
        else:
            self._surface, self._radial = math.exp(_log_sphere_surface(ps.dim)), ps.dim - 1
        self.channel = channel
        self.theta0 = min(max(0.0, self.lo), self.hi)
        self.c_min = float(channel.cost(self.theta0))
        self._rows = {}  # panel ends (a, b) -> row of _values
        self._roots = {}  # cuts -> _root entry; at most one per ladder rung, as a larger tilt only adds cuts
        # row r: cost - c_min, then sqrt det J with the sphere factor, at the 15 nodes of a panel
        self._values = np.empty((64, 2, 15))
        # per end, the rungs (h, theta_0 + h, cost - c_min there) for h = end - theta_0, halved
        self._ladders = [[self._rung(end - self.theta0)] for end in (self.lo, self.hi)]

    def _root_det(self, t):
        root_det = self._surface * np.asarray(self.channel.sqrt_det_fisher(t), dtype=float)
        return root_det * t ** self._radial

    def weight(self, t, lam):
        """The tilted weight at arbitrary points (evaluated, not cached)."""
        t = np.asarray(t, dtype=float)
        return np.exp2(-lam * (self.channel.cost(t) - self.c_min)) * self._root_det(t)

    def _panel_values(self, a, b):
        """cost - c_min and sqrt det J on the panels [a_i, b_i], shape (2, k, 15); one channel call."""
        ends = list(zip(a, b))
        rows = list(map(self._rows.get, ends))
        if None in rows:
            new = list(dict.fromkeys(e for e, row in zip(ends, rows) if row is None))
            t = _nodes(*map(np.array, zip(*new))).ravel()
            n = len(self._rows)
            while n + len(new) > len(self._values):
                self._values = np.concatenate((self._values, np.empty_like(self._values)))
            added = self._values[n:n + len(new)]
            added[:, 0] = (np.asarray(self.channel.cost(t), dtype=float) - self.c_min).reshape(-1, 15)
            added[:, 1] = self._root_det(t).reshape(-1, 15)
            self._rows.update(zip(new, range(n, n + len(new))))
            rows = list(map(self._rows.get, ends))
        return self._values[rows].transpose(1, 0, 2)

    def _rung(self, h):
        t = self.theta0 + h
        return h, t, float(self.channel.cost(t)) - self.c_min if h != 0.0 else 0.0

    def _breakpoints(self, lam):
        """theta_0, and cuts graded toward it until the innermost tilt is small."""
        cuts = [self.theta0]
        if lam > 0.0:
            for ladder in self._ladders:
                k = 0
                while lam * ladder[k][2] > _GRADE_BITS:
                    k += 1
                    if k == len(ladder):
                        ladder.append(self._rung(0.5 * ladder[-1][0]))
                    cuts.append(ladder[k][1])
        return cuts

    def _root(self, lam):
        """The entry [root partition at tilt lam, its ``_panel_values`` or None until a tilt stores them]."""
        cuts = tuple(self._breakpoints(lam))
        if cuts not in self._roots:
            self._roots[cuts] = [_Root(self.lo, self.hi, cuts), None]
        return self._roots[cuts]

    def tilt(self, lam):
        """Converged panels of the weight at tilt lam, selected from the root; memoized."""
        prior = _TILTS.get((self, lam))
        if prior is None:
            root, stored = entry = self._root(lam)
            if stored is None:
                stored = entry[1] = self._panel_values(root.a, root.b)
            dcs = []  # cost - c_min on the panels of each values call, the root's first

            def values(a, b):
                dc, root_det = self._panel_values(a, b) if dcs else stored
                dcs.append(dc)
                return np.exp2(-lam * dc) * root_det

            leaves = _quad(values, root, _PRIOR_RULE)
            prior = TiltedPrior(self, lam, leaves, np.concatenate(dcs)[leaves.rows])
            _TILTS[self, lam] = prior
            while len(_TILTS) > _TILT_MEMO_SIZE:
                _TILTS.pop(next(iter(_TILTS)), None)  # the oldest
        return prior


class TiltedPrior:
    """The normalized tilted Jeffreys prior at one lambda, on [lo, hi].

    Holds the converged panels of the weight, its node sums (z, the mean
    cost m and its variance) and the panel cdf with its inverse, each
    taking a float or an array.  Built by ``tilted_prior``, and carried
    by the ``JeffreysSolution`` of the solved tilt.
    """

    def __init__(self, table, lam, leaves, dc):
        # dc: cost - c_min at the leaves' nodes, shape (m, 15)
        self.table = table
        self.lam = lam
        self.lo, self.hi = table.lo, table.hi
        self.leaves = leaves
        self.z = leaves.value
        if not (math.isfinite(self.z) and self.z > 0):
            raise DegenerateChannelError(
                f"jeffreys: normalization is {self.z!r} at lambda={lam!r}; "
                f"Fisher information vanishes on {table.channel.kind!r}"
            )
        mass = leaves.half[:, None] * WEIGHTS * leaves.values  # per node
        mean_dc = float((mass * dc).sum()) / self.z
        self.m = table.c_min + mean_dc
        self.var = float((mass * (dc - mean_dc) ** 2).sum()) / self.z

    def density(self, t):
        """The normalized density at arbitrary points (vectorized; radial marginal for balls)."""
        return self.table.weight(t, self.lam) / self.z

    def log2_jf(self, P):
        return self.lam * (P - self.table.c_min) + math.log2(self.z)

    def jf(self, P):
        P = _real(P, "TiltedPrior.jf: P")
        log2_jf = self.log2_jf(P)
        jf = 2.0 ** log2_jf if log2_jf < 1024.0 else math.inf
        if not 0.0 < jf < math.inf:
            raise RangeError(
                f"jeffreys_factor: JF = 2^{log2_jf:.6g} at lambda={self.lam!r}, P={P!r} "
                "lies outside the float range"
            )
        return jf

    @cached_property
    def _cdf_table(self):
        # cumulative panel masses and per-panel Legendre coefficients
        cum = np.concatenate(([0.0], np.cumsum(self.leaves.sums)))
        return cum, self.leaves.values @ _TO_LEGENDRE.T

    def _panel_mass(self, i, s):
        """Mass of panels i left of local coordinates s, and its derivative in s (1-D arrays)."""
        _, coef = self._cdf_table
        p = _legendre(s)
        q = np.concatenate(((s + 1.0)[:, None], (p[:, 2:] - p[:, :-2]) / _ODD), axis=1)
        half = 0.5 * (self.leaves.b[i] - self.leaves.a[i])
        return half * _row_dots(coef[i], q), half * _row_dots(coef[i], p[:, :15])

    def cdf(self, t):
        cum, _ = self._cdf_table
        a, b = self.leaves.a, self.leaves.b
        flat = np.ravel(t)
        i = np.minimum(np.searchsorted(b, flat), b.size - 1)
        s = np.clip((2.0 * flat - a[i] - b[i]) / (b[i] - a[i]), -1.0, 1.0)
        return _like(t, (cum[i] + self._panel_mass(i, s)[0]) / cum[-1])

    def inverse(self, u):
        cum, _ = self._cdf_table
        target = np.ravel(u) * cum[-1]
        i = np.minimum(np.searchsorted(cum[1:], target), cum.size - 2)
        mass = cum[i + 1] - cum[i]
        need = np.minimum(np.maximum(target - cum[i], 0.0), mass)
        s = invert_monotone(lambda s, k: self._panel_mass(i[k], s), need, -1.0, 1.0, 2.0 * need / mass - 1.0)
        a, b = self.leaves.a[i], self.leaves.b[i]
        return _like(u, np.minimum(np.maximum(0.5 * (a + b) + 0.5 * (b - a) * s, a), b))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table(channel):
    """The channel's profile table, built at first use (``ChannelSpec`` hashes by identity)."""
    return _ProfileTable(channel)


def jeffreys_factor(channel, lam, P=0.0):
    """JF(lambda) = integral over Theta of 2^(-lambda (c - P)) sqrt(det J).

    Raises RangeError when JF over- or underflows a float.
    """
    return _table(channel).tilt(_real(lam, "jeffreys_factor: lambda", 0.0, closed=True)).jf(P)


def tilted_prior(channel, lam, P=0.0):
    """The tilted Jeffreys prior at lam (the tilt does not depend on P)."""
    return _table(channel).tilt(_real(lam, "tilted_prior: lambda", 0.0, closed=True))


def average_cost(channel, lam):
    """Tilted mean cost M(lambda), from the node sums of the tabulated weight."""
    return _table(channel).tilt(_real(lam, "average_cost: lambda", 0.0, closed=True)).m


@dataclass(frozen=True, eq=False)
class JeffreysSolution:
    """The solved tilt for a (channel, P) pair: its prior, JF(lambda*) and log2 JF(lambda*)."""

    P: float
    prior: TiltedPrior
    jf: float
    log2_jf: float

    @property
    def lambda_star(self):
        return self.prior.lam

    @property
    def m_at_star(self):
        return self.prior.m

    def capacity_fn(self, n_r):
        """(d/2) log2(n_r / 2 pi e) + log2 JF(lambda*), for a finite n_r >= 1."""
        n_r = _real(n_r, "capacity_fn: n_r", 1.0, closed=True)
        d = self.prior.table.channel.param_space.dim
        return 0.5 * d * math.log2(n_r / (2.0 * math.pi * math.e)) + self.log2_jf


def _solution(P, prior):
    return JeffreysSolution(P, prior, prior.jf(P), prior.log2_jf(P))


def _newton_root(table, P, lo, hi):
    """The first tilt from hi on with |M(lambda) - P| < 1e-10 P, or the last one tried.

    Newton with dM/dlambda = -ln2 Var_lambda(c), bisecting whenever a
    step leaves the bracket (lo, hi.lam] kept around the root; stops
    early when a step no longer moves lambda.
    """
    cur = hi
    for _ in range(100):
        if abs(cur.m - P) < _M_TOL_REL * P:
            break
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


def solve_lambda_star(channel, P):
    """Smallest tilt whose prior satisfies the average-power budget.

    Returns lambda* = 0 when the untilted mean cost already meets P.
    Otherwise lambda* solves M(lambda) = P: bracketed Newton
    (``_newton_root``) from lambda_hi, the first of 1/P, 2/P, 4/P, ...
    where M <= P, returns its first tilt with |M - P| < 1e-10 P.  When
    double precision cannot resolve M that finely, Newton stops once a
    step no longer moves lambda, and lambda* is its last tilt, the
    closest to the root it reached.  Raises UnboundedTiltError iff the
    smallest cost on the space is >= P, and RangeError when the tilted
    cost variance underflows at lambda_hi.
    """
    P = _real(P, "solve_lambda_star: P", 0.0)
    table = _table(channel)
    if table.c_min < P:  # the root panels of the first two tilts, lambda = 0 and 1/P, in one channel call
        (r0, _), (r1, _) = table._root(0.0), table._root(1.0 / P)
        table._panel_values(r0.a + r1.a, r0.b + r1.b)
    t0 = table.tilt(0.0)
    # ties at M(0) = P resolve to lambda* = 0; the slack absorbs quadrature
    # roundoff, far below the 1e-6 scale at which activity is ever probed
    if t0.m <= P + 1e-12 * max(1.0, P):
        return _solution(P, t0)
    if table.c_min >= P:
        raise UnboundedTiltError(
            "solve_lambda_star: no finite tilt reaches the power target: the smallest "
            f"cost {table.c_min!r} (at theta={table.theta0!r}) is >= P={P!r}; "
            f"channel {channel.kind!r}"
        )

    below = 0.0
    top = table.tilt(1.0 / P)
    for _ in range(_MAX_DOUBLINGS):
        if top.m <= P:
            break
        below = top.lam
        top = table.tilt(2.0 * top.lam)
    else:
        raise ConvergenceError(
            f"solve_lambda_star: M(lambda) still above P={P!r} at lambda={top.lam!r}; "
            f"channel {channel.kind!r}"
        )

    if not top.var > 0.0:
        raise RangeError(
            f"solve_lambda_star: the tilted cost variance underflows at lambda={top.lam!r}; "
            f"P={P!r} is below what double precision resolves on channel {channel.kind!r}"
        )
    return _solution(P, _newton_root(table, P, below, top))


def prior_cdf(prior, theta):
    """F(theta), the cdf of the profile density on [lo, hi]; a float or an array of theta's shape."""
    t = _reals(theta, "prior_cdf: theta", prior.lo - 1e-12, prior.hi + 1e-12)
    return _like(t, np.clip(prior.cdf(np.clip(t, prior.lo, prior.hi)), 0.0, 1.0))


def _compand(u, lo, hi, inverse):
    """inverse(v) at the v of u inside (0, 1), lo at u = 0 and hi at u = 1, in the shape of u."""
    x, inside = np.where(u == 0.0, lo, hi), (0.0 < u) & (u < 1.0)
    x[inside] = inverse(u[inside])
    return _like(u, x)


def prior_cdf_inverse(prior, u):
    """Solve F(theta) = u for a float u or an array: panel search, then safeguarded Newton in the panel."""
    return _compand(_reals(u, "prior_cdf_inverse: u", 0.0, 1.0), prior.lo, prior.hi, prior.inverse)
