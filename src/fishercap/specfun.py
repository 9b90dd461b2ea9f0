"""Scalar special functions underlying every channel formula.

All functions accept a float or an ndarray and evaluate elementwise;
scalar input gives scalar output.  Tail quantities are computed through
the scaled complementary error function (`erfcx`) so that arguments up
to |x| ~ 38 keep full relative accuracy instead of collapsing through a
``1 - cdf`` subtraction.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_SQRT2 = float(np.sqrt(2.0))


def _as_array(x, name):
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name}: input must be finite")
    return a


def _maybe_scalar(x, *values):
    if np.isscalar(x) or np.ndim(x) == 0:
        out = tuple(float(v) for v in values)
        return out[0] if len(out) == 1 else out
    return values[0] if len(values) == 1 else values


def gauss_phi_q(x):
    """Standard Gaussian pdf phi(x) and upper tail Q(x) = integral_x^inf phi.

    Returns the pair ``(phi, q)``.  The tail is evaluated as
    ``0.5 * erfcx(|x|/sqrt(2)) * exp(-x^2/2)`` and reflected for negative
    arguments, which stays accurate far beyond where ``1 - cdf`` dies.
    """
    a = _as_array(x, "gauss_phi_q")
    phi = np.exp(-0.5 * a * a) / SQRT_2PI
    return _maybe_scalar(x, phi, _q_pair(a)[0])


def _q_pair(a):
    # (Q(a), Q(-a)) for internal use, both from one erfcx pass over |a|;
    # accepts +-inf edges (Q(inf)=0, Q(-inf)=1).
    with np.errstate(invalid="ignore"):
        qa = 0.5 * _sp.erfcx(np.abs(a) / _SQRT2) * np.exp(-0.5 * a * a)
    qa = np.where(np.isposinf(np.abs(a)), 0.0, qa)
    return np.where(a >= 0, qa, 1.0 - qa), np.where(a <= 0, qa, 1.0 - qa)


def _phi_raw(a):
    with np.errstate(invalid="ignore"):
        p = np.exp(-0.5 * a * a) / SQRT_2PI
    return np.where(np.isinf(a), 0.0, p)


def gauss_hazard(x):
    """phi(x)/Q(x), stable for arbitrarily large x via erfcx."""
    a = _as_array(x, "gauss_hazard")
    pos = 2.0 / (SQRT_2PI * _sp.erfcx(np.maximum(a, 0.0) / _SQRT2))
    neg_a = np.minimum(a, 0.0)
    neg = _phi_raw(neg_a) / _q_pair(neg_a)[0]
    h = np.where(a >= 0, pos, neg)
    return _maybe_scalar(x, h)


def gauss_mass(a, b):
    """P(a < Z <= b) for standard Gaussian Z; edges may be +-inf.

    Uses the complement on whichever side is in the deep tail, so thin
    cells far from the origin keep relative accuracy.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return _mass(a, b, _q_pair(a), _q_pair(b))


def _cell_mass(edges):
    # gauss_mass(edges[..., :-1], edges[..., 1:]), one tail pass over the shared edges
    q, qn = _q_pair(edges)
    return _mass(edges[..., :-1], edges[..., 1:], (q[..., :-1], qn[..., :-1]),
                 (q[..., 1:], qn[..., 1:]))


def _mass(a, b, a_tails, b_tails):
    (qa, qna), (qb, qnb) = a_tails, b_tails  # (Q(x), Q(-x)) at each edge
    both_pos = qa - qb           # a >= 0: both tails small
    both_neg = qnb - qna         # b <= 0: reflected tails small
    straddle = 1.0 - qna - qb    # a < 0 < b: bulk cell
    m = np.where(a >= 0, both_pos, np.where(b <= 0, both_neg, straddle))
    return np.maximum(m, 0.0)


def bessel_i01_scaled(x):
    """Exponentially scaled modified Bessel pair (e^-x I0(x), e^-x I1(x)).

    Scaled form never overflows; the ratio i1s/i0s lies in [0, 1) and is
    monotone in x, which is what the score of the energy-detection
    channel consumes.
    """
    a = _as_array(x, "bessel_i01_scaled")
    if np.any(a < 0):
        raise DomainError("bessel_i01_scaled: requires x >= 0")
    return _maybe_scalar(x, _sp.i0e(a), _sp.i1e(a))


def exp_integral_e1(x):
    """Exponential integral E1(x) = integral_x^inf e^-t / t dt, x > 0."""
    a = _as_array(x, "exp_integral_e1")
    if np.any(a <= 0):
        raise DomainError("exp_integral_e1: requires x > 0")
    return _maybe_scalar(x, _sp.exp1(a))


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    a = _as_array(x, "log_gamma")
    if np.any(a <= 0):
        raise DomainError("log_gamma: requires x > 0")
    return _maybe_scalar(x, _sp.gammaln(a))
