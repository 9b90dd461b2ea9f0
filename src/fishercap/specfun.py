"""Scalar special functions underlying every channel formula, in numpy only.

All public functions accept a float or an ndarray and evaluate
elementwise; scalar input gives a float (``_scalar``, the library's one
helper for that).  Tail quantities are
computed through the scaled complementary error function
erfcx(x) = exp(x^2) erfc(x), so that arguments up to |x| ~ 38 keep full
relative accuracy instead of collapsing through a ``1 - cdf``
subtraction.

The kernels, their references and their measured errors (largest
relative error against scipy 1.17 and against mpmath at 40 digits;
tests/test_specfun.py checks each against scipy):

* ``_erfcx`` (x >= 0, erfcx(inf) = 0): a degree-5 polynomial on each
  of 1,024 equal cells of y = 4 / (4 + x), fitted at import to
  (1 + x) erfcx(x), which tends to 1/sqrt(pi) as x -> inf, so the
  relative error stays flat in the tail.  The fitted values come from
  Weideman's rational series with N = 40 terms (J. A. C. Weideman,
  "Computation of the complex error function", SIAM J. Numer. Anal.
  31, 1994), whose coefficients are one FFT.  1.2e-15 against scipy
  and 5.5e-16 against mpmath on [0, 40] and [1e-8, 1e6];
  erfcx(0) = 1 exactly, so Q(0) = 0.5.
* ``_bessel_i01e`` (x >= 0): e^-x I0(x) and e^-x I1(x) from one table of
  the same kind on y = 8 / (8 + x), fitted to sqrt(1 + x) e^-x I0(x)
  and (1 + x)^1.5 e^-x I1(x) / x, so I1 keeps its relative accuracy as
  x -> 0.  Built at first use: only energy detection needs it.  Its
  fitted values come from the power series below x = 22 and the Hankel
  asymptotic series above.  On [0, 1e5]: 1.9e-15 (I0) and 2.3e-15 (I1)
  against scipy, 1.1e-15 and 1.4e-15 against mpmath.
* ``exp_integral_e1``: the power series for x <= 1 and the continued
  fraction above, the expansions of tests/reference_specfun.py.
  2.0e-15 against scipy and 1.4e-15 against mpmath on [1e-6, 700].
* ``log_gamma``: ``math.lgamma``.  On [0.05, 200.5], 1.4e-15 relative
  where |ln Gamma| >= 1 and 1.7e-15 absolute below, near its zeros at
  1 and 2.
"""

import functools
import math

import numpy as np

from .errors import _reals

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_SQRT2 = float(np.sqrt(2.0))

_CELLS = 1024  # equal cells of y = scale / (scale + x) on [0, 1]
_DEGREE = 5    # polynomial degree on each cell
# fit nodes on a cell, in its local coordinate u in [0, 1]: Chebyshev-Lobatto, the first at u = 0
_NODES = 0.5 - 0.5 * np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)
_ERFCX_SCALE = 4.0
_WEIDEMAN_N = 40  # terms of Weideman's erfcx series
_BESSEL_SCALE = 8.0
_BESSEL_SPLIT = 22.0  # power series below, Hankel series above


def _cell_table(g, scale):
    """Coefficients of g(y), y = scale / (scale + x), one polynomial per cell of [0, 1].

    Entry [j, ..., k] of the result is the u^j coefficient of cell k,
    u = CELLS * y - k; g may return several functions stacked on leading
    axes, which the result keeps between the two.  Each cell
    interpolates g at its Lobatto nodes with the constant term pinned to
    g at the cell's left end; one extra cell holds the constant g(1),
    where y = 1 (x = 0) lands exactly.
    """
    y = (np.arange(_CELLS)[:, None] + _NODES) / _CELLS  # (CELLS, DEGREE + 1)
    vals = np.asarray(g(np.append(y, 1.0)), dtype=float)
    at_one = vals[..., -1]
    vals = vals[..., :-1].reshape(vals.shape[:-1] + y.shape)
    c0 = vals[..., :1]
    vander = _NODES[1:, None] ** np.arange(1, _DEGREE + 1)
    table = np.zeros(vals.shape[:-2] + (_CELLS + 1, _DEGREE + 1))
    table[..., :-1, :1] = c0
    table[..., :-1, 1:] = (vals[..., 1:] - c0) @ np.linalg.inv(vander).T
    table[..., -1, 0] = at_one
    return np.ascontiguousarray(np.moveaxis(table, -1, 0))


def _cell_poly(table, scale, x):
    # the cell polynomials of ``table`` at y = scale / (scale + x), shape
    # table.shape[1:-1] + x.shape: one coefficient row gathered per Horner step,
    # so the temporaries stay the size of x (times the stacked functions)
    s = (scale * _CELLS) / (scale + x)
    k = s.astype(np.intp)  # NaN casts out of range; mode="clip" keeps the gather in bounds
    u = s - k
    p = table[-1].take(k, axis=-1, mode="clip")
    for row in table[-2::-1]:
        p *= u
        p += row.take(k, axis=-1, mode="clip")
    return p


def _weideman_erfcx(x):
    # erfcx(x) = 2 p(Z) / (L + x)^2 + 1 / (sqrt(pi) (L + x)), Z = (L - x) / (L + x), for finite x >= 0
    n, m = _WEIDEMAN_N, 2 * _WEIDEMAN_N
    lam = math.sqrt(n / math.sqrt(2.0))
    t = lam * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (lam * lam + t * t)))
    coef = np.real(np.fft.fft(np.fft.fftshift(f)))[1:n + 1][::-1] / (2 * m)
    p = np.polyval(coef, (lam - x) / (lam + x))
    return 2.0 * p / (lam + x) ** 2 + 1.0 / (math.sqrt(math.pi) * (lam + x))


def _erfcx_scaled(y):
    # (1 + x) erfcx(x) at x = 4 / y - 4: 1/sqrt(pi) at y = 0, exactly 1 at y = 1
    with np.errstate(divide="ignore"):
        x = _ERFCX_SCALE / y - _ERFCX_SCALE
    out = (1.0 + x) * _weideman_erfcx(np.where(y > 0, x, 0.0))
    return np.where(y > 0, np.where(y < 1, out, 1.0), 1.0 / math.sqrt(math.pi))


_ERFCX_TABLE = _cell_table(_erfcx_scaled, _ERFCX_SCALE)


def _erfcx(x):
    """erfcx(x) = exp(x^2) erfc(x) for x >= 0 (inf gives 0), from the cell table."""
    p = _cell_poly(_ERFCX_TABLE, _ERFCX_SCALE, x)
    p /= 1.0 + x
    return p


def _bessel_series(x):
    # e^-x I0(x) and e^-x I1(x) / x by the power series; each term from one pow and
    # an exactly known factorial, so rounding does not build up along the series
    k = np.arange(50)[:, None]  # the last term is below 1e-24 of the sum at x = 22
    fact = np.array([float(math.factorial(j)) for j in range(51)])
    powers = np.power(0.5 * x, 2 * k)
    i0 = (powers / (fact[:-1] ** 2)[:, None])[::-1].sum(axis=0)
    i1 = (powers / (2.0 * fact[:-1] * fact[1:])[:, None])[::-1].sum(axis=0)
    e = np.exp(-x)
    return e * i0, e * i1


def _bessel_hankel(x):
    # e^-x I_nu(x) ~ sum_k (-1)^k a_k(nu) / x^k / sqrt(2 pi x), summed to the smallest term
    out = []
    for mu in (0.0, 4.0):  # 4 nu^2
        term, total = np.ones_like(x), np.ones_like(x)
        live = np.ones(x.shape, dtype=bool)
        for k in range(1, 200):
            nxt = -term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
            live &= (np.abs(nxt) < np.abs(term)) & (np.abs(term) > 1e-17 * np.abs(total))
            if not live.any():
                break
            term = np.where(live, nxt, 0.0)
            total += term
        out.append(total / np.sqrt(2.0 * math.pi * x))
    return out


def _bessel_scaled(y):
    # sqrt(1 + x) e^-x I0(x) and (1 + x)^1.5 e^-x I1(x) / x at x = 8 / y - 8
    with np.errstate(divide="ignore"):
        x = _BESSEL_SCALE / y - _BESSEL_SCALE
    low = x < _BESSEL_SPLIT
    s0, s1 = _bessel_series(np.where(low, x, 0.0))
    h0, h1 = _bessel_hankel(np.where(low | (y == 0), _BESSEL_SPLIT, x))
    i0 = np.where(low, s0, h0)
    i1x = np.where(low, s1, h1 / np.where(low | (y == 0), 1.0, x))
    r = np.sqrt(1.0 + x)
    tail = 1.0 / math.sqrt(2.0 * math.pi)
    return np.stack([np.where(y > 0, r * i0, tail), np.where(y > 0, r * (1.0 + x) * i1x, tail)])


@functools.cache
def _bessel_table():
    return _cell_table(_bessel_scaled, _BESSEL_SCALE)


def _bessel_i01e(x):
    """(e^-x I0(x), e^-x I1(x)) for finite x >= 0, from the cell table."""
    p = _cell_poly(_bessel_table(), _BESSEL_SCALE, x)
    r1 = 1.0 + x
    r = np.sqrt(r1)
    return p[0] / r, p[1] * (x / (r * r1))


_EULER_GAMMA = 0.57721566490153286061


def _e1(x):
    # E1 for x > 0: -gamma - ln x - sum_k (-x)^k / (k k!) up to x = 1; above it the
    # continued fraction e^-x / (x + 1 - 1^2 / (x + 3 - 2^2 / (x + 5 - ...))), evaluated
    # from depth 100 upwards, which holds 4e-16 down to x = 1
    small = x <= 1.0
    xs = np.where(small, x, 1.0)
    term, total = -xs, np.zeros_like(xs)
    for k in range(1, 30):
        total += term / k
        term = term * (-xs / (k + 1))
    series = -_EULER_GAMMA - np.log(xs) - total
    xl = np.where(small, 1.0, x)
    f = np.zeros_like(xl)
    for i in range(100, 0, -1):
        f = -float(i * i) / (xl + (2 * i + 1) + f)
    return np.where(small, series, np.exp(-xl) / (xl + 1.0 + f))


def _scalar(out):
    """out, or a float where out is 0-d: the result of a scalar argument, on every public path."""
    return float(out) if np.ndim(out) == 0 else out


def gauss_phi_q(x):
    """Standard Gaussian pdf phi(x) and upper tail Q(x) = integral_x^inf phi.

    Returns the pair ``(phi, q)``.  The tail is evaluated as
    ``0.5 * erfcx(|x|/sqrt(2)) * exp(-x^2/2)`` and reflected for negative
    arguments, which stays accurate far beyond where ``1 - cdf`` dies.
    """
    a = _reals(x, "gauss_phi_q: x")
    return _scalar(_phi_raw(a)), _scalar(_q_pair(a)[0])


def _q_abs(a):
    # erfcx(|a|/sqrt(2)) and Q(|a|) from one pass; Q(inf) = 0
    e = _erfcx(np.abs(a) / _SQRT2)
    with np.errstate(invalid="ignore"):
        qa = 0.5 * e * np.exp(-0.5 * a * a)
    return e, np.where(np.isposinf(np.abs(a)), 0.0, qa)


def _q_pair(a):
    # (Q(a), Q(-a)) for internal use, both from one erfcx pass over |a|;
    # accepts +-inf edges (Q(inf)=0, Q(-inf)=1).
    qa = _q_abs(a)[1]
    return np.where(a >= 0, qa, 1.0 - qa), np.where(a <= 0, qa, 1.0 - qa)


def _phi_raw(a):
    with np.errstate(invalid="ignore"):
        p = np.exp(-0.5 * a * a) / SQRT_2PI
    return np.where(np.isinf(a), 0.0, p)


def _gauss_tails(a):
    """phi(a), Q(a) and the hazards phi/Q at a and at -a, from one erfcx pass over |a|.

    The hazard at +|a| is 2 / (sqrt(2 pi) erfcx(|a|/sqrt(2))), which never
    underflows; at -|a| it is phi / (1 - Q(|a|)).  At a = 0 both are the first.
    """
    e, qa = _q_abs(a)
    phi = _phi_raw(a)
    upper = 2.0 / (SQRT_2PI * e)
    lower = phi / (1.0 - qa)
    pos = a >= 0
    neg = a <= 0
    return (phi, np.where(pos, qa, 1.0 - qa),
            np.where(pos, upper, lower), np.where(neg, upper, lower))


def gauss_mass(a, b):
    """P(a < Z <= b) for standard Gaussian Z; edges may be +-inf, never NaN.

    Uses the complement on whichever side is in the deep tail, so thin
    cells far from the origin keep relative accuracy.
    """
    a, b = np.broadcast_arrays(_reals(a, "gauss_mass: a", finite=False),
                               _reals(b, "gauss_mass: b", finite=False))
    return _scalar(_cell_mass(np.stack([a, b], axis=-1))[..., 0])


def _cell_mass(edges):
    # P(a < Z <= b) of the cells between consecutive edges (last axis), one tail pass over the shared edges
    q, qn = _q_pair(edges)  # Q(x) and Q(-x) at each edge
    both_pos = q[..., :-1] - q[..., 1:]          # a >= 0: both tails small
    both_neg = qn[..., 1:] - qn[..., :-1]        # b <= 0: reflected tails small
    straddle = 1.0 - qn[..., :-1] - q[..., 1:]   # a < 0 < b: bulk cell
    m = np.where(edges[..., :-1] >= 0, both_pos, np.where(edges[..., 1:] <= 0, both_neg, straddle))
    return np.maximum(m, 0.0)


def bessel_i01_scaled(x):
    """Exponentially scaled modified Bessel pair (e^-x I0(x), e^-x I1(x)).

    Scaled form never overflows; the ratio i1s/i0s lies in [0, 1) and is
    monotone in x, which is what the score of the energy-detection
    channel consumes.
    """
    a = _reals(x, "bessel_i01_scaled: x", 0.0)
    return tuple(map(_scalar, _bessel_i01e(a)))


def exp_integral_e1(x):
    """Exponential integral E1(x) = integral_x^inf e^-t / t dt, x > 0."""
    a = _reals(x, "exp_integral_e1: x", math.ulp(0.0))
    return _scalar(_e1(a))


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    a = _reals(x, "log_gamma: x", math.ulp(0.0))
    return _scalar(np.fromiter(map(math.lgamma, a.ravel().tolist()), float, a.size).reshape(a.shape))

