"""mpmath reference values of the energy-detection Fisher information,
used to generate the frozen oracle table in
``tests/data/fisher_oracle.json``.

The reference is independent of the library's rule: it integrates in
the received amplitude r = sqrt(2|y|^2), whose density given theta is
Rician, r exp(-(r^2 + 2 theta^2) / 2) I0(sqrt(2) theta r), with the
score -2 theta + sqrt(2) r I1/I0, using unscaled Bessel functions and
tanh-sinh quadrature in mpmath arbitrary-precision arithmetic
(dps = 60) with breakpoints around the peak at r = sqrt(2) theta.
Regenerate the table with

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


GRIDS = {
    "energy_detection": [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5,
                         6, 7, 8, 10, 12, 15, 18, 19, 20, 25, 30, 40, 50, 60, 75, 100],
}

FUNCS = {
    "energy_detection": ref_energy_detection,
}


def generate_tables(grids=GRIDS):
    return {name: [[float(x), mp.nstr(FUNCS[name](x), 40)] for x in grid]
            for name, grid in grids.items()}


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
