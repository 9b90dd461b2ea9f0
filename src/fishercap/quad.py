"""One-dimensional adaptive quadrature.

Globally adaptive composite Gauss-Legendre with 15-point panels.  ``quad``
starts from one segment, [a, b]; a segment's error estimate is the
difference between one panel over it and two panels over its halves,
and the segment with the largest estimate is bisected until the summed
estimate meets ``max(abs_tol, rel_tol * |value|)``, with abs_tol 1e-12
and rel_tol 1e-10.  It returns the converged leaves (the half panels)
with their nodes and integrand values, so callers can build on them;
``integrate_interval`` is their sum.  Neither takes options.  Panel
nodes never touch segment endpoints, so integrable endpoint
singularities such as 1/sqrt(theta) are handled by refinement alone.

Each step is one integrand call: one for all initial segments (each a
coarse panel and its two halves), then one per bisection (its four half
panels).  A step's panels are rows of one (k, 15) array of values and
one vector of k sums, each sum its own 15-term dot product; a segment
refers to its half panels by row and keeps their sums, and the leaves
are gathered by row at the end, or, when the initial segments already
meet the tolerance, are their halves as they stand.  The integrand is
one scalar function, vectorized, side-effect free and pointwise (a
node's value may not depend on the other nodes of the call): it
receives an ndarray of n nodes and returns n values; ``_pointwise``
adapts it to the private ``_quad``, which takes whole panels' values,
a root cut at any breakpoints, and a rule.
"""

import heapq
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter

import numpy as np

from .errors import DomainError, ToleranceError, _real

NODES, WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_SUBDIVISIONS = 2 ** 14  # quad raises ToleranceError after this many bisections


@dataclass(frozen=True)
class QuadRule:
    abs_tol: float
    rel_tol: float


DEFAULT_RULE = QuadRule(abs_tol=1e-12, rel_tol=1e-10)


@dataclass(frozen=True, eq=False)
class Leaves:
    """Converged panels of one ``quad`` call, sorted left to right.

    ``a``, ``b`` and ``half`` have shape (m,); ``x`` holds the nodes and
    ``values`` the integrand there, both shape (m, 15); ``sums`` holds
    the panel integrals, shape (m,).  ``rows`` holds each leaf's index
    among all the panels the integrand was called on, counted in call
    order.  ``err`` is the summed error estimate.
    """

    a: np.ndarray
    b: np.ndarray
    values: np.ndarray
    sums: np.ndarray
    rows: np.ndarray
    err: float

    @property
    def half(self):
        return 0.5 * (self.b - self.a)

    @property
    def x(self):
        return _nodes(self.a, self.b)

    @property
    def value(self):
        return float(self.sums.sum())


def _nodes(a, b):
    """The nodes of the panels [a_i, b_i], shape (k, 15)."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * NODES


class _Root:
    """The root partition of [lo, hi] cut at the breakpoints inside: per segment, its panel, then its halves.

    Lists ``a``, ``b`` and array ``half`` of the panels; ``leaves``, the rows of the halves left to right.
    """

    def __init__(self, lo, hi, breakpoints):
        edges = sorted({lo, hi, *(float(t) for t in breakpoints if lo < t < hi)})
        spans = [(lo, hi, 0.5 * (lo + hi)) for lo, hi in zip(edges, edges[1:])]
        self.a = [c for lo, hi, mid in spans for c in (lo, lo, mid)]
        self.b = [c for lo, hi, mid in spans for c in (hi, mid, hi)]
        a, b = np.array(self.a), np.array(self.b)
        self.half = 0.5 * (b - a)
        self.leaves = np.array([r for r in range(a.size) if r % 3])
        self.leaf_a, self.leaf_b = a[self.leaves], b[self.leaves]
        for v in (self.leaves, self.leaf_a, self.leaf_b):  # shared by the leaves of every tilt
            v.flags.writeable = False


def _row_dots(x, y):
    """x_i @ y_i per row, y broadcast: (1, n) @ (n, 1) products, each rounded as its row's 1-D dot."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _sums(y, a, b, half):
    """The sums of the panels [a_i, b_i] with values y, shape (k, 15), and half-widths half."""
    if not np.isfinite(y).all():
        i = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise DomainError(f"quad: integrand non-finite inside [{float(a[i])!r}, {float(b[i])!r}]")
    return half * _row_dots(y, WEIGHTS)


def _pointwise(f):
    """values(a, b) for ``_quad`` from the pointwise integrand f (see the module docstring)."""
    def values(lo, hi):
        y = np.ascontiguousarray(f(_nodes(np.array(lo), np.array(hi)).ravel()), dtype=float)
        if y.shape != (15 * len(lo),):
            raise DomainError("quad: integrand must map an (n,) array to an (n,) array")
        return y.reshape(len(lo), 15)

    return values


def quad(f, a, b):
    """Adaptive Gauss-Legendre over [a, b] (a < b); returns the converged ``Leaves``.

    f is called once per step and must be pointwise (see the module
    docstring).  Raises ToleranceError (carrying the best estimate) if
    the tolerance is not met within ``_MAX_SUBDIVISIONS`` bisections.
    """
    a = _real(a, "quad: a")
    b = _real(b, "quad: b", a)
    return _quad(_pointwise(f), _Root(a, b, ()), DEFAULT_RULE)


def _quad(values, root, rule):
    """``quad`` from a ``_Root``; values(a, b) gives the (k, 15) values of the panels [a_i, b_i].

    values is called first on the root's panels, then on the four half
    panels of each bisection.  When the root partition meets the
    tolerance, its halves are the leaves as they stand.
    """
    def tol(value):
        return max(rule.abs_tol, rule.rel_tol * abs(value))

    def segment(lo, hi, coarse, row, left, right):
        # its halves are the panels of rows row and row + 1, with sums left and right
        fine = left + right
        return [0.0, lo, hi, 0.5 * (lo + hi), row, left, right, fine, abs(coarse - fine)]

    def push(seg, value):
        # largest error first
        seg[0] = -float(seg[8] / tol(value))
        heapq.heappush(heap, seg)

    a, b = root.a, root.b
    ys = [values(a, b)]
    sums = _sums(ys[0], a, b, root.half)
    s = sums.tolist()
    roots = [segment(a[i], b[i], s[i], i + 1, s[i + 1], s[i + 2]) for i in range(0, len(a), 3)]
    # left to right (the builtin sum compensates Python floats from 3.12 on)
    value, err = reduce(add, [seg[7] for seg in roots], 0.0), reduce(add, [seg[8] for seg in roots], 0.0)
    heap = []
    for seg in roots:
        push(seg, value)
    nsub, nrows = len(roots), len(a)
    while err > tol(value):
        if nsub >= _MAX_SUBDIVISIONS:
            raise ToleranceError(f"quad: tolerance not met after {nsub} subdivisions (err_est={err:.3e})",
                                 best=float(value), err_est=float(err))
        _, lo, hi, mid, _, left, right, fine, seg_err = heapq.heappop(heap)
        q1, q2 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        a, b = (lo, q1, mid, q2), (q1, mid, q2, hi)
        ys.append(values(a, b))
        s = _sums(ys[-1], a, b, 0.5 * (np.array(b) - np.array(a))).tolist()
        s1 = segment(lo, mid, left, nrows, s[0], s[1])
        s2 = segment(mid, hi, right, nrows + 2, s[2], s[3])
        value = value + (s1[7] + s2[7]) - fine
        err = err + (s1[8] + s2[8]) - seg_err
        push(s1, value)
        push(s2, value)
        nsub += 1
        nrows += 4

    if nsub == len(roots):  # the root partition met the tolerance: its halves are the leaves
        a, b, rows, sums = root.leaf_a, root.leaf_b, root.leaves, sums[root.leaves]
    else:  # (a, b, row, sum) of the left halves, then the right halves, in heap order, sorted by a
        leaves = sorted([(seg[1], seg[3], seg[4], seg[5]) for seg in heap]
                        + [(seg[3], seg[2], seg[4] + 1, seg[6]) for seg in heap], key=itemgetter(0))
        a, b, rows, sums = map(np.array, zip(*leaves))
    return Leaves(a, b, np.concatenate(ys)[rows], sums, rows, reduce(add, [seg[8] for seg in heap], 0.0))


def integrate_interval(f, a, b):
    """Integrate the scalar f over [a, b]; returns the floats ``(value, err_est)`` of ``quad``'s leaves.

    Raises ToleranceError (carrying the best estimate) if the tolerance
    is not met within ``_MAX_SUBDIVISIONS`` bisections.
    """
    a = _real(a, "integrate_interval: a")
    b = _real(b, "integrate_interval: b", a, closed=True)
    if a == b:
        return 0.0, 0.0
    leaves = quad(f, a, b)
    return leaves.value, leaves.err


def _midpoints(lo, hi, n):
    """The n midpoints of the equal cells of [lo, hi]; n is a count (2.5 would put one on hi)."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n
