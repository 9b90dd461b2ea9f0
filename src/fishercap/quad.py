"""One-dimensional adaptive quadrature.

Globally adaptive composite Gauss-Legendre with 15-point panels.  ``quad``
starts from the segments between the given breakpoints; a segment's
error estimate is the difference between one panel over it and two
panels over its halves, and the segment with the largest estimate is
bisected until the summed estimate meets ``max(abs_tol, rel_tol *
|value|)``.  It returns the converged leaves (the half panels) with their
nodes and integrand values, so callers can build on them;
``integrate_interval`` is their sum.  Panel nodes never touch segment
endpoints, so integrable endpoint singularities such as 1/sqrt(theta)
are handled by refinement alone.

Each step is one integrand call: one for all initial segments (each a
coarse panel and its two halves), then one per bisection (its four half
panels).  The integrand is one scalar function, vectorized, side-effect
free and pointwise (a node's value may not depend on the other nodes of
the call): it receives an ndarray of n nodes and returns n values.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError, _real

NODES, WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_SUBDIVISIONS = 2 ** 14  # quad raises ToleranceError after this many bisections


@dataclass(frozen=True)
class QuadRule:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "abs_tol", _real(self.abs_tol, "QuadRule: abs_tol", 0.0))
        object.__setattr__(self, "rel_tol", _real(self.rel_tol, "QuadRule: rel_tol", 0.0))


DEFAULT_RULE = QuadRule()


@dataclass(frozen=True, eq=False)
class Leaves:
    """Converged panels of one ``quad`` call, sorted left to right.

    ``a``, ``b`` and ``half`` have shape (m,); ``x`` holds the nodes and
    ``values`` the integrand there, both shape (m, 15); ``sums`` holds
    the panel integrals, shape (m,).  ``err`` is the summed error
    estimate.
    """

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    values: np.ndarray
    sums: np.ndarray
    err: float

    @property
    def half(self):
        return 0.5 * (self.b - self.a)

    @property
    def value(self):
        return float(self.sums.sum())


def _panels(f, a, b):
    """(nodes, values, sum) of each panel [a_i, b_i]; one f call, each sum rounded as alone."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * NODES
    y = np.ascontiguousarray(f(x.ravel()), dtype=float)
    if y.shape != (x.size,):
        raise DomainError("quad: integrand must map an (n,) array to an (n,) array")
    y = y.reshape(x.shape)
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"quad: integrand non-finite inside [{float(a[i])!r}, {float(b[i])!r}]")
    return [(x[i], y[i], half[i] * (y[i] @ WEIGHTS)) for i in range(len(a))]


def quad(f, a, b, rule=DEFAULT_RULE, breakpoints=()):
    """Adaptive Gauss-Legendre over [a, b] (a < b); returns the converged ``Leaves``.

    The initial segments run between the breakpoints that fall inside
    (a, b); f is called once per step and must be pointwise (see the
    module docstring).  Raises ToleranceError (carrying the best
    estimate) if the tolerance is not met within ``_MAX_SUBDIVISIONS``
    bisections.
    """
    a = _real(a, "quad: a")
    b = _real(b, "quad: b", a)
    edges = sorted({a, b, *(float(t) for t in breakpoints if a < t < b)})

    def tol(value):
        return max(rule.abs_tol, rule.rel_tol * abs(value))

    def segment(lo, hi, coarse, left, right):
        fine = left[2] + right[2]
        return [0.0, lo, hi, 0.5 * (lo + hi), left, right, fine, abs(coarse - fine)]

    def push(seg, value):
        # largest error first
        seg[0] = -float(seg[7] / tol(value))
        heapq.heappush(heap, seg)

    # per root segment: the coarse panel, then its left and right halves
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
        if nsub >= _MAX_SUBDIVISIONS:
            raise ToleranceError(
                f"quad: tolerance not met after {nsub} subdivisions (err_est={err:.3e})",
                best=float(value),
                err_est=float(err),
            )
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
    return Leaves(
        a=np.array([p[0] for p in panels]),
        b=np.array([p[1] for p in panels]),
        x=np.stack([p[2][0] for p in panels]),
        values=np.stack([p[2][1] for p in panels]),
        sums=np.array([p[2][2] for p in panels]),
        err=float(sum(s[7] for s in heap)),
    )


def integrate_interval(f, a, b, rule=DEFAULT_RULE):
    """Integrate the scalar f over [a, b]; returns the floats ``(value, err_est)`` of ``quad``'s leaves.

    Raises ToleranceError (carrying the best estimate) if the tolerance
    is not met within ``_MAX_SUBDIVISIONS`` bisections.
    """
    a = _real(a, "integrate_interval: a")
    b = _real(b, "integrate_interval: b", a, closed=True)
    if a == b:
        return 0.0, 0.0
    leaves = quad(f, a, b, rule)
    return leaves.value, leaves.err


def _midpoints(lo, hi, n):
    """The n midpoints of the equal cells of [lo, hi]; n is a count (2.5 would put one on hi)."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n
