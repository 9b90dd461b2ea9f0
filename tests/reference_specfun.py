"""Series / continued-fraction reference implementations of the special
functions, used to generate the frozen oracle tables in
``tests/data/specfun_oracle.json``.

These implementations are deliberately independent of scipy: only the
classical expansions evaluated in mpmath arbitrary-precision arithmetic
(dps = 120).  Regenerate the tables with

    PYTHONPATH=src python tests/reference_specfun.py --write

``gauss_mass`` is not an mpmath reference: it is the library's
``gauss_mass`` as it was before it became the one-cell case of
``_cell_mass``, kept so that the two can be compared by ``==``.
"""

import json
import os
import sys

import numpy as np
from mpmath import mp

from fishercap.errors import _reals
from fishercap.specfun import _q_pair

mp.dps = 120

_DATA = os.path.join(os.path.dirname(__file__), "data", "specfun_oracle.json")


def gauss_mass(a, b):
    """P(a < Z <= b) from one tail pass over both edges, on the side of the deep tail."""
    a, b = np.broadcast_arrays(_reals(a, "gauss_mass: a", finite=False),
                               _reals(b, "gauss_mass: b", finite=False))
    q, qn = _q_pair(np.stack([a, b]))
    qa, qna, qb, qnb = q[0], qn[0], q[1], qn[1]
    m = np.where(a >= 0, qa - qb, np.where(b <= 0, qnb - qna, 1.0 - qna - qb))
    return np.maximum(m, 0.0)


def ref_gauss_q(x):
    """Q(x): Maclaurin erf series for |x| < 8, Laplace continued fraction above."""
    x = mp.mpf(x)
    if x < 0:
        return 1 - ref_gauss_q(-x)
    if x < 8:
        # erf(z) = (2/sqrt(pi)) sum (-1)^k z^(2k+1) / (k! (2k+1))
        z = x / mp.sqrt(2)
        term = z
        total = z
        k = 0
        while abs(term) > mp.mpf(10) ** (-(mp.dps + 10)) * max(abs(total), mp.mpf(1)):
            k += 1
            term *= -z * z / k
            total += term / (2 * k + 1)
        erf = 2 / mp.sqrt(mp.pi) * total
        return (1 - erf) / 2
    # Q(x) = phi(x) / (x + 1/(x + 2/(x + 3/(x + ...))))
    phi = mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)
    prev = None
    depth = 50
    while depth <= 4000:
        cf = mp.mpf(0)
        for k in range(depth, 0, -1):
            cf = k / (x + cf)
        val = phi / (x + cf)
        if prev is not None and abs(val - prev) <= abs(val) * mp.mpf(10) ** (-(mp.dps - 10)):
            return val
        prev = val
        depth *= 2
    raise RuntimeError("ref_gauss_q: continued fraction did not stabilize")


def ref_gauss_phi(x):
    x = mp.mpf(x)
    return mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi)


def _bessel_i_series(n, x):
    # I_n(x) = sum_k (x/2)^(2k+n) / (k! (k+n)!); all terms positive
    x = mp.mpf(x)
    half = x / 2
    term = half ** n / mp.factorial(n)
    total = term
    k = 0
    while term > mp.mpf(10) ** (-(mp.dps + 10)) * total and k < 100000:
        k += 1
        term *= half * half / (k * (k + n))
        total += term
    return total


def ref_i0e(x):
    x = mp.mpf(x)
    return mp.e ** (-x) * _bessel_i_series(0, x)


def ref_i1e(x):
    x = mp.mpf(x)
    return mp.e ** (-x) * _bessel_i_series(1, x)


def ref_e1(x):
    """E1(x) = -gamma - ln x + sum_k (-1)^(k+1) x^k / (k k!), for x <= 40."""
    x = mp.mpf(x)
    if x <= 0:
        raise ValueError("ref_e1: x must be positive")
    if x > 40:
        raise ValueError("ref_e1: series reference kept to x <= 40")
    term = mp.mpf(1)
    total = mp.mpf(0)
    k = 0
    while True:
        k += 1
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(term) < mp.mpf(10) ** (-(mp.dps + 20)):
            break
    return -mp.euler - mp.log(x) + total


_BERNOULLI_TERMS = 30


def ref_log_gamma(x):
    """ln Gamma via upward recurrence plus the Stirling/Bernoulli series."""
    x = mp.mpf(x)
    if x <= 0:
        raise ValueError("ref_log_gamma: x must be positive")
    shift = mp.mpf(0)
    z = x
    while z < 32:
        shift += mp.log(z)
        z += 1
    main = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
    corr = mp.mpf(0)
    for k in range(1, _BERNOULLI_TERMS + 1):
        corr += mp.bernoulli(2 * k) / (2 * k * (2 * k - 1) * z ** (2 * k - 1))
    return main + corr - shift


GRIDS = {
    "gauss_q": [-8, -5, -3, -2, -1, -0.5, 0, 0.25, 0.5, 1, 1.5, 2, 3, 4, 5,
                6, 8, 10, 12, 15, 20, 25, 30],
    "gauss_phi": [-8, -4, -2, -1, -0.5, 0, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3,
                  4, 5, 6, 8, 10, 15, 20],
    "i0e": [0, 1e-3, 0.01, 0.1, 0.5, 1, 2, 3, 5, 8, 10, 15, 20, 30, 50, 75,
            100, 150, 200, 300, 500],
    "i1e": [0, 1e-3, 0.01, 0.1, 0.5, 1, 2, 3, 5, 8, 10, 15, 20, 30, 50, 75,
            100, 150, 200, 300, 500],
    "e1": [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1, 1.5, 2, 3, 4, 5, 6, 8, 10,
           12, 15, 20, 25, 30],
    "log_gamma": [0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8,
                  10, 12.5, 15, 20, 30, 50, 100, 200.5],
}

FUNCS = {
    "gauss_q": ref_gauss_q,
    "gauss_phi": ref_gauss_phi,
    "i0e": ref_i0e,
    "i1e": ref_i1e,
    "e1": ref_e1,
    "log_gamma": ref_log_gamma,
}


def generate_tables():
    tables = {}
    for name, grid in GRIDS.items():
        fn = FUNCS[name]
        tables[name] = [[float(x), mp.nstr(fn(x), 30)] for x in grid]
    return tables


def main(argv):
    if "--write" not in argv:
        print(json.dumps(generate_tables(), indent=2))
        return 0
    os.makedirs(os.path.dirname(_DATA), exist_ok=True)
    with open(_DATA, "w", encoding="utf-8") as fh:
        json.dump(generate_tables(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {_DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
