"""mpmath reference values of the Fisher information, used to generate
the frozen oracle table in ``tests/data/fisher_oracle.json``.

Energy detection's reference is independent of the library's rule: it
integrates in the received amplitude r = sqrt(2|y|^2), whose density
given theta is Rician, r exp(-(r^2 + 2 theta^2) / 2) I0(sqrt(2) theta r),
with the score -2 theta + sqrt(2) r I1/I0, using unscaled Bessel
functions and tanh-sinh quadrature in mpmath arbitrary-precision
arithmetic (dps = 60) with breakpoints around the peak at
r = sqrt(2) theta.

The closed-form channels (``closed_forms``) are evaluated from their
definitions at dps = 60: the ADC and dithered 1-bit J as sums of
dp^2 / p over the cells, each cell mass taken from the tail it lies in;
clipped AWGN as the interior second moment plus the two rail terms
phi^2 / Q, never as 1 minus a loss; truncated AWGN as the variance of
the truncated Gaussian; the imperfect-CSI sqrt(det J) as the square
root of the determinant of the d x d matrix.  Each table names the JSON
record of its channel and the spec callable it checks.  Regenerate the
file with

    python tests/reference_fisher.py --write
"""

import json
import os
import sys

from mpmath import mp

mp.dps = 60

_DATA = os.path.join(os.path.dirname(__file__), "data", "fisher_oracle.json")


def ref_energy_detection(theta):
    """J(theta) = integral over r >= 0 of score^2 times the Rician density."""
    th = mp.mpf(theta)
    peak = mp.sqrt(2) * th

    def integrand(r):
        s = peak * r
        i0 = mp.besseli(0, s)
        score = -2 * th + mp.sqrt(2) * r * mp.besseli(1, s) / i0
        return score * score * r * mp.exp(-(r * r + 2 * th * th) / 2) * i0

    # the density is below exp(-45^2 / 2) of its peak past r = peak + 45
    cuts = sorted({mp.mpf(0), peak + 45} | {peak + d for d in (-30, -12, -6, -2, 0, 2, 6, 12, 30)
                                            if peak + d > 0})
    return mp.quad(integrand, cuts, maxdegree=10)


def _upper(u):
    # Q(u) = P(Z > u)
    return mp.ncdf(-u)


def _cell(a, b):
    # P(a < Z <= b), as a difference of the two tails on the side of the cell
    if a >= 0:
        return _upper(a) - _upper(b)
    if b <= 0:
        return mp.ncdf(b) - mp.ncdf(a)
    return 1 - _upper(b) - mp.ncdf(a)


def _pdf(u):
    return mp.npdf(u) if mp.isfinite(u) else mp.mpf(0)


def _second_moment(a, b):
    # integral of u^2 phi(u) over (a, b]; H(u) = Q(u) + u phi(u) is the upper-tail integral
    def upper(u):
        return _upper(u) + u * mp.npdf(u)
    if a >= 0:
        return upper(a) - upper(b)
    if b <= 0:
        return upper(-b) - upper(-a)
    return 1 - upper(b) - upper(-a)


def ref_quantized_awgn(record, theta):
    """sum over the cells (t_{l-1}, t_l] of dp^2 / p, p the cell's mass around theta."""
    th = mp.mpf(theta)
    edges = [-mp.inf] + [mp.mpf(t) for t in record["thresholds"]] + [mp.inf]
    return sum((_pdf(a - th) - _pdf(b - th)) ** 2 / _cell(a - th, b - th)
               for a, b in zip(edges, edges[1:]))


def ref_dithered_onebit(record, theta):
    """E_s[phi(theta - s)^2 / (Q(theta - s) (1 - Q(theta - s)))]."""
    th = mp.mpf(theta)
    points = [mp.mpf(x) for x in record["points"]]
    weights = [mp.mpf(w) for w in record.get("weights", [1.0 / len(points)] * len(points))]
    return sum(w * mp.npdf(th - s) ** 2 / (_upper(th - s) * mp.ncdf(th - s))
               for s, w in zip(points, weights))


def ref_poisson(record, theta):
    """E_{h,mu}[h^2 / (h theta + mu)]."""
    th = mp.mpf(theta)
    h, mu = record["h"], record["mu"]
    return sum(mp.mpf(hp) * mp.mpf(up) * mp.mpf(hv) ** 2 / (mp.mpf(hv) * th + mp.mpf(uv))
               for hv, hp in zip(h["values"], h["probs"])
               for uv, up in zip(mu["values"], mu["probs"]))


def ref_noncoherent(record, theta):
    """4 s^2 t^2 / (1 + s t^2)^2."""
    s, t = mp.mpf(record["sigma2"]), mp.mpf(theta)
    return 4 * s ** 2 * t ** 2 / (1 + s * t ** 2) ** 2


def ref_clipped_awgn(record, theta):
    """Interior second moment over (-B - theta, B - theta) plus phi^2 / Q at each rail."""
    th, B = mp.mpf(theta), mp.mpf(record["B"])
    rails = sum(mp.npdf(u) ** 2 / _upper(u) for u in (B - th, B + th))
    return _second_moment(-B - th, B - th) + rails


def ref_truncated_awgn(record, theta):
    """Variance of the unit Gaussian around theta cut to (-B, B)."""
    th, B = mp.mpf(theta), mp.mpf(record["B"])
    a, b = -B - th, B - th
    z = _cell(a, b)
    mean = (mp.npdf(a) - mp.npdf(b)) / z
    return _second_moment(a, b) / z - mean ** 2


def ref_mimo_sqrt_det(record, r):
    """sqrt(det J) at theta = r e_1, J = 2/(1+s|theta|^2) (1-s) I + 4 s^2/(1+s|theta|^2)^2 theta theta^T."""
    s, nt = mp.mpf(record["sigma2"]), int(record["nt"])
    theta = [mp.mpf(r)] + [mp.mpf(0)] * (2 * nt - 1)
    q = 1 + s * mp.mpf(r) ** 2
    J = mp.matrix(2 * nt, 2 * nt)
    for i in range(2 * nt):
        for k in range(2 * nt):
            J[i, k] = 4 * s ** 2 / q ** 2 * theta[i] * theta[k] + (2 / q * (1 - s) if i == k else 0)
    return mp.sqrt(mp.det(J))


REFS = {
    "quantized_awgn": ref_quantized_awgn,
    "dithered_onebit": ref_dithered_onebit,
    "poisson": ref_poisson,
    "noncoherent": ref_noncoherent,
    "clipped_awgn": ref_clipped_awgn,
    "truncated_awgn": ref_truncated_awgn,
    "mimo_imperfect_csi": ref_mimo_sqrt_det,
}

# name -> (channel record, the spec callable compared, theta grid); the grids reach the
# deep tails where J is still a normal float, with thresholds near the peak and clip
# levels small against A
CLOSED_FORMS = {
    "adc_1bit_far": ({"kind": "quantized_awgn", "A": 40.0, "thresholds": [36.0]}, "fisher",
                     [-1.0, 0.0, 8.7, 20.0, 30.0, 35.0, 36.0, 37.0, 40.0]),
    "adc_4level": ({"kind": "quantized_awgn", "A": 3.0, "thresholds": [-1.0, 0.0, 1.0]}, "fisher",
                   [-3.0, -1.2, 0.0, 0.5, 2.9]),
    "dithered_uniform": ({"kind": "dithered_onebit", "A": 30.0, "points": [-0.8, 0.0, 0.8]},
                         "fisher", [0.0, 0.4, 2.0, 10.0, 25.0, 30.0]),
    "dithered_weighted": ({"kind": "dithered_onebit", "A": 5.0, "points": [-1.0, 0.5],
                           "weights": [0.3, 0.7]}, "fisher", [-5.0, -0.2, 1.0, 5.0]),
    "poisson": ({"kind": "poisson", "A": 3.0,
                 "h": {"values": [0.5, 1.0, 2.0], "probs": [0.2, 0.5, 0.3]},
                 "mu": {"values": [0.0, 0.1], "probs": [0.5, 0.5]}}, "fisher",
                [1e-6, 0.01, 0.5, 1.0, 3.0]),
    "noncoherent": ({"kind": "noncoherent", "A": 2.0, "sigma2": 0.5}, "fisher",
                    [0.0, 1e-3, 0.5, 1.4142135623730951, 2.0]),
    "noncoherent_huge_sigma2": ({"kind": "noncoherent", "A": 0.3, "sigma2": 1e300}, "fisher",
                                [1e-200, 1e-150, 1e-3, 0.15, 0.3]),
    "truncated_awgn": ({"kind": "truncated_awgn", "A": 2.0, "B": 3.0}, "fisher",
                       [-2.0, -1.0, 0.0, 0.7, 2.0]),
    "truncated_awgn_narrow": ({"kind": "truncated_awgn", "A": 5.0, "B": 2.0}, "fisher",
                              [0.0, 2.5, 5.0]),
    "truncated_awgn_far": ({"kind": "truncated_awgn", "A": 38.0, "B": 1.0}, "fisher",
                           [0.0, 10.0, 20.0, 38.0]),
    "clipped_awgn": ({"kind": "clipped_awgn", "A": 20.0, "B": 1.5}, "fisher",
                     [0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 20.0]),
    "mimo_sqrt_det": ({"kind": "mimo_imperfect_csi", "A": 2.0, "nt": 2, "sigma2": 0.1},
                      "sqrt_det_fisher", [0.0, 0.5, 1.0, 2.0]),
    "mimo_sqrt_det_noisy": ({"kind": "mimo_imperfect_csi", "A": 10.0, "nt": 4, "sigma2": 0.9},
                            "sqrt_det_fisher", [0.0, 1.0, 10.0]),
}

GRIDS = {
    "energy_detection": [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5,
                         6, 7, 8, 10, 12, 15, 18, 19, 20, 25, 30, 40, 50, 60, 75, 100],
}

FUNCS = {
    "energy_detection": ref_energy_detection,
}


def generate_tables(grids=GRIDS, closed_forms=CLOSED_FORMS):
    tables = {name: [[float(x), mp.nstr(FUNCS[name](x), 40)] for x in grid]
              for name, grid in grids.items()}
    tables["closed_forms"] = {
        name: {"channel": record, "callable": attr,
               "rows": [[float(x), mp.nstr(REFS[record["kind"]](record, x), 40)] for x in grid]}
        for name, (record, attr, grid) in closed_forms.items()}
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
