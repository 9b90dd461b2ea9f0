"""Constellations from the inverse prior cdf, with exact rate comparisons.

Pushing a uniform midpoint grid through the inverse cdf of the tilted
prior concentrates points where each antenna is informative.  On a
1-bit ADC front end this beats an equally spaced grid by a wide margin,
and the fitted-polynomial variant (closed-form cdf, inverted by
safeguarded Newton) lands within a few hundredths of a bit.
"""

import numpy as np

import fishercap as fc

A, M, n_r = 10.0, 16, 100
P = A * A / 4.0
channel = fc.quantized_awgn_channel(A, [0.0])

jeff = fc.jeffreys_constellation(channel, P, M)
pam = fc.pam_constellation(channel, P, M)

s = fc.solve_lambda_star(channel, P)
poly = fc.fit_poly_density(channel, s.lambda_star, 8)
approx = fc.approx_jeffreys_constellation(poly, P, M)

print("positive half of each 16-point design:")
print("  inverse-cdf :", np.round(jeff.points[8:], 3))
print("  polynomial  :", np.round(approx.points[8:], 3))
print("  uniform grid:", np.round(pam.points[8:], 3))

def mi(c):
    return fc.mi_finite_output(channel, c, n_r)

mi_jeff, mi_pam, mi_poly = mi(jeff), mi(pam), mi(approx)
ba, mi_ba = fc.blahut_arimoto(channel, jeff.points, n_r)

print(f"\nexact rates across {n_r} antennas (bits):")
print(f"  inverse-cdf, uniform probs : {mi_jeff:.4f}")
print(f"  polynomial,  uniform probs : {mi_poly:.4f}")
print(f"  uniform grid (same scaling): {mi_pam:.4f}")
print(f"  inverse-cdf + optimized pmf: {mi_ba:.4f}  (gain {mi_ba - mi_jeff:+.4f})")

print("\nUniform probabilities over the shaped points are already near")
print("optimal; reshaping the pmf buys almost nothing, while the point")
print("locations themselves are worth about "
      f"{mi_jeff - mi_pam:.2f} bits over the plain grid.")

print("\n=== isotropic radial design for the fading channel ===")
mimo = fc.mimo_imperfect_csi_channel(1.0, 2, 0.1)
directions = np.eye(4)
c = fc.radial_constellation_isotropic(mimo, 1.0 / 9.0, 4, directions)
radii = np.unique(np.round(np.linalg.norm(c.points, axis=1), 6))
print(f"  radii (4 levels): {radii}")
print(f"  {c.points.shape[0]} points, average power {c.avg_power:.4f} <= {1.0 / 9.0:.4f}")
