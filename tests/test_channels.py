import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

import fishercap as fc
from conftest import finite_fd_fisher
from fishercap import channels as ch
from fishercap import specfun
from fishercap.errors import DomainError, ValidationError


# --- AWGN ------------------------------------------------------------------

def test_fisher_awgn_is_one():
    channel = ch.awgn_channel(1.0)
    assert channel.fisher(0.0) == 1.0
    assert channel.fisher(1.0) == 1.0
    assert channel.fisher(-0.5) == 1.0
    with pytest.raises(DomainError):
        channel.fisher(1.5)


# --- clipping --------------------------------------------------------------

def test_clipped_weak_clipping_is_awgn():
    assert ch.clipped_awgn_channel(1.0, 10.0).fisher(0.0) == pytest.approx(1.0, abs=1e-6)


def test_clipped_symmetry_and_range():
    channel = ch.clipped_awgn_channel(1.0, 1.0)
    assert channel.fisher(0.7) == pytest.approx(channel.fisher(-0.7), rel=1e-14)
    j = channel.fisher(0.0)
    assert 0.0 < j < 1.0


def test_clipped_never_exceeds_awgn():
    theta = np.linspace(-1.0, 1.0, 41)
    for b in [0.25, 0.5, 1.0, 2.0, 5.0]:
        j = ch.clipped_awgn_channel(1.0, b).fisher(theta)
        assert np.all(j <= 1.0 + 1e-12)
        assert np.all(j > 0.0)


def test_clipped_monte_carlo_oracle():
    # score by finite difference of the mixed log-density, J by MC expectation
    channel = ch.clipped_awgn_channel(1.0, 1.0)
    theta, h, n = 0.0, 1e-4, 2_000_000
    rng = np.random.default_rng(42)
    y = np.clip(theta + rng.normal(size=n), -1.0, 1.0)
    lp_hi, _ = channel.output_logdensity_dtheta(y, theta + h)
    lp_lo, _ = channel.output_logdensity_dtheta(y, theta - h)
    score = (lp_hi - lp_lo) / (2.0 * h)
    s2 = score ** 2
    mc, se = s2.mean(), s2.std(ddof=1) / math.sqrt(n)
    assert abs(channel.fisher(theta) - mc) < 3.0 * se


# --- quantization ----------------------------------------------------------

def test_onebit_fisher_closed_form(onebit_unit):
    assert onebit_unit.fisher(0.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    phi0, q0 = specfun.gauss_phi_q(0.0)
    assert onebit_unit.fisher(0.0) == pytest.approx(phi0 ** 2 / (q0 * (1.0 - q0)), rel=1e-14)


def test_onebit_fisher_brute_force():
    channel = ch.quantized_awgn_channel(2.0, [0.0])
    for theta in [0.0, 0.3, 1.3]:
        fd = finite_fd_fisher(channel, theta)
        assert channel.fisher(theta) == pytest.approx(fd, rel=1e-6)


def test_fine_quantizer_approaches_awgn():
    t = np.linspace(-8.0, 8.0, 4097)[1:-1]
    assert ch.quantized_awgn_channel(1.0, t).fisher(0.0) == pytest.approx(1.0, abs=1e-3)


def test_quantized_symmetry():
    channel = ch.quantized_awgn_channel(2.0, [0.0])
    assert channel.fisher(1.3) == pytest.approx(channel.fisher(-1.3), rel=1e-13)


def test_quantized_refinement_monotone():
    coarse = ch.quantized_awgn_channel(1.0, [-1.0, 0.0, 1.0])
    fine = ch.quantized_awgn_channel(1.0, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    for theta in np.linspace(-1.0, 1.0, 21):
        assert fine.fisher(theta) >= coarse.fisher(theta) - 1e-12


def test_unsorted_thresholds_rejected():
    with pytest.raises(ValidationError):
        ch.quantized_awgn_channel(1.0, [1.0, 0.0])
    with pytest.raises(ValidationError):
        ch.quantized_awgn_channel(1.0, [0.0, 0.0])
    # the cuts a caller passes to cell_mass_dtheta are checked on every call
    with pytest.raises(ValidationError):
        ch.awgn_channel(1.0).cell_mass_dtheta(0.0, [1.0, 0.0])


def test_adc_fisher_deep_tail_does_not_underflow():
    # dp^2 underflows at theta = 8.7 although J, about 1.6e-161, is a normal float;
    # the reference is J = phi^2 / (Q (1 - Q)) at 36 - 8.7 in mpmath (40 digits)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        u = mp.mpf(36) - mp.mpf(8.7)
        q = mp.ncdf(-u)
        want = float(mp.npdf(u) ** 2 / (q * (1 - q)))
        # the binned receiver forms J from the same cell sums: one bin (-1, 1] and the overflow
        u0, u1 = mp.mpf(-1) - mp.mpf(37.5), mp.mpf(1) - mp.mpf(37.5)
        cell = mp.ncdf(u1) - mp.ncdf(u0)
        dcell = mp.npdf(u0) - mp.npdf(u1)
        want_binned = float(dcell ** 2 / cell + dcell ** 2 / (1 - cell))
    channel = ch.quantized_awgn_channel(40.0, [36.0])
    assert channel.fisher(8.7) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert channel.fisher(np.array([8.7, 30.0]))[0] == channel.fisher(8.7)
    binned = fc.quantized_fisher(fc.awgn_channel(40.0), fc.build_quantizer(1.0, 1), 37.5)
    assert binned == pytest.approx(want_binned, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("P, lam_star, log2_jf", [(100.0, 0.939979, -241.22583082071),
                                                  (50.0, 1.481045, -299.425719919196)])
def test_adc_far_threshold_solves(P, lam_star, log2_jf):
    # the tilt sees the deep-tail J: log2 JF is mpmath's quadrature of 2^(-lambda theta^2) sqrt(J)
    # at the returned lambda*, where mpmath's M(lambda*) is P within 1e-10 relative
    s = fc.solve_lambda_star(ch.quantized_awgn_channel(40.0, [36.0]), P)
    assert s.lambda_star == pytest.approx(lam_star, abs=5e-7)
    assert s.log2_jf == pytest.approx(log2_jf, rel=1e-12, abs=0.0)


# --- energy detection ------------------------------------------------------

def test_energy_detection_zero_input():
    assert ch.energy_detection_channel(1.0).fisher(0.0) == 0.0


def test_energy_detection_monte_carlo_oracle():
    from fishercap.channels import _energy_density_score

    theta, h, n = 1.0, 1e-4, 2_000_000
    rng = np.random.default_rng(7)
    re = theta + rng.normal(0.0, math.sqrt(0.5), n)
    im = rng.normal(0.0, math.sqrt(0.5), n)
    yt = 2.0 * (re * re + im * im)
    score = (np.log(_energy_density_score(yt, theta + h)[0])
             - np.log(_energy_density_score(yt, theta - h)[0])) / (2.0 * h)
    s2 = score ** 2
    mc, se = s2.mean(), s2.std(ddof=1) / math.sqrt(n)
    assert abs(ch.energy_detection_channel(1.0).fisher(theta) - mc) < 3.0 * se


def test_energy_detection_nondecreasing_near_zero():
    # regression snapshot on a small grid, not a theorem
    channel = ch.energy_detection_channel(0.5)
    grid = np.linspace(0.0, 0.5, 6)
    j = [channel.fisher(float(t)) for t in grid]
    assert all(b >= a - 1e-10 for a, b in zip(j, j[1:]))


# --- MIMO imperfect CSI ----------------------------------------------------

def test_mimo_sqrt_det_fisher_at_zero():
    for nt, s2 in [(1, 0.3), (4, 0.1)]:
        assert ch.mimo_imperfect_csi_channel(1.0, nt, s2).sqrt_det_fisher(0.0) == pytest.approx(
            (2.0 * (1.0 - s2)) ** nt, rel=1e-14)


def test_mimo_coherent_limit():
    channel = ch.mimo_imperfect_csi_channel(1.0, 4, 1e-9)
    assert channel.sqrt_det_fisher(0.7) == pytest.approx(2.0 ** 4, rel=1e-6)


def test_mimo_matches_dense_determinant():
    nt, s2, r = 4, 0.1, 1.0
    channel = ch.mimo_imperfect_csi_channel(2.0, nt, s2)
    theta = np.zeros(2 * nt)
    theta[0] = r
    dense = channel.fisher(theta)
    assert np.allclose(dense, dense.T)
    assert np.all(np.linalg.eigvalsh(dense) > 0)
    want = math.sqrt(np.linalg.det(dense))
    assert channel.sqrt_det_fisher(r) == pytest.approx(want, rel=1e-12)


def test_mimo_fisher_matches_generative_model():
    # empirical Fisher from simulated (y, h_est) pairs: score by central
    # differences of the exact conditional log-density, expectation by MC
    rng = np.random.default_rng(77)
    s2, n = 0.2, 1_500_000
    theta = np.array([0.6, -0.3])
    x = theta[0] + 1j * theta[1]
    h = (rng.normal(0, math.sqrt((1 - s2) / 2), n)
         + 1j * rng.normal(0, math.sqrt((1 - s2) / 2), n))
    s = 1 + s2 * float(theta @ theta)
    y = h * x + (rng.normal(0, math.sqrt(s / 2), n)
                 + 1j * rng.normal(0, math.sqrt(s / 2), n))

    def logp(th):
        xx = th[0] + 1j * th[1]
        ss = 1 + s2 * float(th @ th)
        return -np.log(math.pi * ss) - np.abs(y - h * xx) ** 2 / ss

    eps = 1e-4
    grads = np.stack([
        (logp(theta + np.array([eps, 0.0])) - logp(theta - np.array([eps, 0.0]))) / (2 * eps),
        (logp(theta + np.array([0.0, eps])) - logp(theta - np.array([0.0, eps]))) / (2 * eps),
    ], axis=1)
    j_mc = grads.T @ grads / n
    se = np.sqrt(np.var(grads[:, :, None] * grads[:, None, :], axis=0) / n)
    j_analytic = ch.mimo_imperfect_csi_channel(1.0, 1, s2).fisher(theta)
    assert np.all(np.abs(j_analytic - j_mc) < 3.5 * se)


def test_mimo_sigma_domain():
    with pytest.raises(DomainError):
        ch.mimo_imperfect_csi_channel(1.0, 4, 1.5)
    with pytest.raises(DomainError):
        ch.mimo_imperfect_csi_channel(1.0, 4, 0.0)


def test_mimo_fisher_checks_the_theta_vector():
    channel = ch.mimo_imperfect_csi_channel(1.0, 1, 0.1)
    for bad in ([math.nan, 0.0], [0.5, 0.0, 0.0], [0.9, 0.9]):  # a value, the shape, the norm
        with pytest.raises(DomainError, match=r"^mimo_imperfect_csi\.fisher"):
            channel.fisher(bad)
    with pytest.raises(ValidationError):
        channel.fisher(["0.5", "0"])


# --- noncoherent -----------------------------------------------------------

def test_noncoherent_values():
    assert ch.noncoherent_channel(1.0, 0.5).fisher(0.0) == 0.0
    assert ch.noncoherent_channel(1.0, 1.0).fisher(1.0) == pytest.approx(1.0, rel=1e-15)


def test_noncoherent_maximum_grid_search():
    theta = np.linspace(0.0, 5.0, 20001)
    j = ch.noncoherent_channel(5.0, 1.0).fisher(theta)
    k = int(np.argmax(j))
    assert theta[k] == pytest.approx(1.0, abs=5e-4)
    assert j[k] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("A, sigma2", [(0.3, 1e300), (1e28, 1e100), (2.0, 0.5)])
def test_noncoherent_fisher_matches_mpmath_where_sigma2_squared_overflows(A, sigma2):
    # J = 4 s^2 t^2 / (1 + s t^2)^2; s^2 (or the squared denominator) overflows a float
    # for the first two, which used to raise OverflowError or return 0
    mp = pytest.importorskip("mpmath")
    channel = ch.noncoherent_channel(A, sigma2)
    theta = np.array([0.25, 0.5, 0.9, 1.0]) * A
    s = mp.mpf(sigma2)
    for t, j in zip(theta, channel.fisher(theta)):
        with mp.workdps(40):
            tt = mp.mpf(float(t))
            want = float(4 * s ** 2 * tt ** 2 / (1 + s * tt ** 2) ** 2)
        assert j == pytest.approx(want, rel=1e-12, abs=0.0)
    assert channel.fisher(0.0) == 0.0


# --- Poisson ---------------------------------------------------------------

def test_poisson_unit_case():
    assert ch.poisson_channel(1.0, ([1.0], [1.0]), ([1.0], [1.0])).fisher(0.0) == pytest.approx(1.0)


def test_poisson_inverse_law():
    m = 0.7
    theta = np.linspace(0.0, 2.0, 9)
    j = ch.poisson_channel(2.0, ([1.0], [1.0]), ([m], [1.0])).fisher(theta)
    assert np.allclose(j, 1.0 / (theta + m), rtol=1e-14)


def test_poisson_hand_sum():
    j = ch.poisson_channel(2.0, ([0.5, 1.5], [0.5, 0.5]), ([1.0], [1.0])).fisher(2.0)
    assert j == pytest.approx(0.34375, rel=1e-14)
    # brute-force enumeration over the support
    brute = 0.5 * (0.25 / (0.5 * 2 + 1)) + 0.5 * (2.25 / (1.5 * 2 + 1))
    assert j == pytest.approx(brute, rel=1e-14)


def test_poisson_zero_denominator():
    with pytest.raises(DomainError):
        ch.poisson_channel(1.0, ([1.0], [1.0]), ([0.0], [1.0])).fisher(0.0)


# --- dithered 1-bit --------------------------------------------------------

def test_dither_single_point_reduces_to_onebit(onebit_unit):
    d = ch.DiscreteInput([0.0], [1.0])
    assert ch.dithered_onebit_channel(1.0, d).fisher(0.4) == pytest.approx(
        onebit_unit.fisher(0.4), rel=1e-13)


def test_dither_three_point_hand_sum():
    d = [-1.0, 0.0, 1.0]
    phi1, q1 = specfun.gauss_phi_q(1.0)
    _, qm1 = specfun.gauss_phi_q(-1.0)
    want = (2.0 * phi1 ** 2 / (q1 * qm1) + 2.0 / math.pi) / 3.0
    assert ch.dithered_onebit_channel(1.0, d).fisher(0.0) == pytest.approx(want, rel=1e-13)


def test_dither_symmetric_set_even_fisher():
    channel = ch.dithered_onebit_channel(1.0, [-0.8, 0.0, 0.8])
    assert channel.fisher(0.9) == pytest.approx(channel.fisher(-0.9), rel=1e-13)


def test_dither_validation():
    with pytest.raises(ValidationError):
        ch.dithered_onebit_channel(1.0, ch.DiscreteInput([0.0, 0.0], [0.5, 0.5]))
    with pytest.raises(ValidationError):
        ch.DiscreteInput([0.0, 1.0], [0.7, 0.7])
    with pytest.raises(ValidationError, match="at least one point"):
        ch.dithered_onebit_channel(1.0, [])
    with pytest.raises(ValidationError, match="at least one point"):
        ch.channel_from_json({"kind": "dithered_onebit", "A": 1, "points": []})


def _same_dithered(a, b):
    theta = np.linspace(-1.0, 1.0, 9)
    assert a.fisher(theta).tolist() == b.fisher(theta).tolist()
    assert a.output_pmf(theta).tolist() == b.output_pmf(theta).tolist()
    assert a.params == b.params


def test_dither_list_input_and_records_build_one_channel():
    pts = [-0.5, 0.25, 0.5]
    from_list = ch.dithered_onebit_channel(1.0, pts)
    assert from_list.params["weights"] == [1.0 / 3.0] * 3
    for other in (ch.dithered_onebit_channel(1.0, ch.DiscreteInput(pts, np.full(3, 1.0 / 3.0))),
                  ch.channel_from_json({"kind": "dithered_onebit", "A": 1.0, "points": pts}),
                  ch.channel_from_json({"kind": "dithered_onebit", "A": 1.0, "points": pts,
                                        "weights": [1.0 / 3.0] * 3})):
        _same_dithered(from_list, other)
    weighted = ch.dithered_onebit_channel(1.0, ch.DiscreteInput([-0.5, 0.5], [0.25, 0.75]))
    assert weighted.params == {"kind": "dithered_onebit", "A": 1.0,
                               "points": [-0.5, 0.5], "weights": [0.25, 0.75]}
    _same_dithered(weighted, ch.channel_from_json(weighted.params))


def test_dithered_channel_keeps_its_own_points():
    pts = np.array([-0.5, 0.5])
    channel = ch.dithered_onebit_channel(1.0, pts)
    before = channel.output_pmf(0.25).tolist()
    pts[0] = 0.0
    assert channel.output_pmf(0.25).tolist() == before


DITHER_REFUSALS = {
    "empty": (lambda: ch.dithered_onebit_channel(1.0, []), ValidationError, "at least one point"),
    "repeated": (lambda: ch.dithered_onebit_channel(1.0, [0.5, 0.5]), ValidationError, "distinct"),
    "repeated_weighted": (lambda: ch.dithered_onebit_channel(
        1.0, ch.DiscreteInput([0.5, 0.5], [0.25, 0.75])), ValidationError, "distinct"),
    "2d": (lambda: ch.dithered_onebit_channel(1.0, [[0.0, 1.0], [2.0, 3.0]]), ValidationError, "1-D"),
    "2d_weighted": (lambda: ch.dithered_onebit_channel(
        1.0, ch.DiscreteInput([[0.0, 1.0], [2.0, 3.0]], [0.5, 0.5])), ValidationError, "scalars"),
    "weights_sum": (lambda: ch.channel_from_json(
        {"kind": "dithered_onebit", "A": 1, "points": [0.0, 1.0], "weights": [0.5, 0.6]}),
        ValidationError, "^DiscreteInput: probs"),
    "string_point": (lambda: ch.dithered_onebit_channel(1.0, [0.0, "1"]), ValidationError, "need real"),
    "string_point_weighted": (lambda: ch.channel_from_json(
        {"kind": "dithered_onebit", "A": 1, "points": ["0", 1.0], "weights": [0.5, 0.5]}),
        ValidationError, "need real"),
}


@pytest.mark.parametrize("call,error,match", DITHER_REFUSALS.values(), ids=DITHER_REFUSALS.keys())
def test_dither_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


# --- finite-output pmfs ----------------------------------------------------

def test_onebit_pmf(onebit_unit):
    p = onebit_unit.output_pmf(0.0)
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)


def test_four_level_pmf():
    channel = ch.quantized_awgn_channel(1.0, [-1.0, 0.0, 1.0])
    p = channel.output_pmf(0.0)
    _, q1 = specfun.gauss_phi_q(1.0)
    assert np.allclose(p, [q1, 0.5 - q1, 0.5 - q1, q1], atol=1e-15)


def test_dithered_pmf_enumeration():
    channel = ch.dithered_onebit_channel(1.0, [-1.0, 1.0])
    p = channel.output_pmf(0.0)
    _, q1 = specfun.gauss_phi_q(1.0)
    _, qm1 = specfun.gauss_phi_q(-1.0)
    # order: (s=-1, y=+1), (s=-1, y=-1), (s=+1, y=+1), (s=+1, y=-1)
    want = 0.5 * np.array([qm1, q1, q1, qm1])
    assert np.allclose(p, want, atol=1e-15)


def test_pmf_normalization_grid():
    finite = [
        ch.quantized_awgn_channel(2.0, [0.0]),
        ch.quantized_awgn_channel(2.0, [-2.0, 0.0, 2.0]),
        ch.dithered_onebit_channel(2.0, [-0.8, 0.0, 0.8]),
    ]
    theta = np.linspace(-2.0, 2.0, 33)
    for channel in finite:
        p = channel.output_pmf(theta)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_output_pmf_wrong_kind(awgn_unit):
    points = fc.DiscreteInput(np.array([-0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(TypeError, match="not finite-output"):
        fc.mi_finite_output(awgn_unit, points, 4)


def test_finite_channels_match_fd_brute_force():
    configs = [
        ch.quantized_awgn_channel(1.0, [0.0]),
        ch.quantized_awgn_channel(1.0, [-1.0, 0.0, 1.0]),
        ch.dithered_onebit_channel(1.0, [-0.8, 0.0, 0.8]),
    ]
    theta = np.linspace(-0.999, 0.999, 33)
    for channel in configs:
        analytic = channel.fisher(theta)
        for t, j in zip(theta, analytic):
            fd = finite_fd_fisher(channel, float(t))
            assert abs(j - fd) / abs(j) < 1e-4


# --- truncated output family ----------------------------------------------

def test_truncated_awgn_fisher_below_one():
    channel = ch.truncated_awgn_channel(1.0, 2.0)
    theta = np.linspace(-1.0, 1.0, 11)
    j = channel.fisher(theta)
    assert np.all(j > 0) and np.all(j < 1.0)
    # wide support recovers the AWGN information
    wide = ch.truncated_awgn_channel(1.0, 12.0)
    assert wide.fisher(0.3) == pytest.approx(1.0, abs=1e-10)


# --- JSON ingestion ---------------------------------------------------------

def test_channel_json_round_trip():
    records = [
        {"kind": "awgn", "A": 1.0},
        {"kind": "clipped_awgn", "A": 1.0, "B": 0.5},
        {"kind": "truncated_awgn", "A": 1.0, "B": 2.0},
        {"kind": "quantized_awgn", "A": 1.0, "thresholds": [-1.0, 0.0, 1.0]},
        {"kind": "energy_detection", "A": 1.0},
        {"kind": "mimo_imperfect_csi", "A": 1.0, "nt": 4, "sigma2": 0.1},
        {"kind": "noncoherent", "A": 2.0, "sigma2": 0.5},
        {"kind": "poisson", "A": 1.0,
         "h": {"values": [1.0], "probs": [1.0]},
         "mu": {"values": [0.3], "probs": [1.0]}},
        {"kind": "dithered_onebit", "A": 1.0, "points": [-0.8, 0.0, 0.8]},
    ]
    for rec in records:
        channel = ch.channel_from_json(rec)
        assert channel.kind == rec["kind"]
        assert channel.params["A"] == rec["A"]
        lo, hi = channel.param_space.profile_bounds
        mid = 0.5 * (lo + hi)
        assert np.isfinite(channel.sqrt_det_fisher(mid))


# One JSON record per registered kind; the contract test below runs on each.
CONTRACT_RECORDS = {
    "awgn": {"kind": "awgn", "A": 2.0},
    "clipped_awgn": {"kind": "clipped_awgn", "A": 3.0, "B": 1.5},
    "truncated_awgn": {"kind": "truncated_awgn", "A": 2.0, "B": 3.0},
    "quantized_awgn": {"kind": "quantized_awgn", "A": 2.0, "thresholds": [-0.5, 0.0, 1.0]},
    "energy_detection": {"kind": "energy_detection", "A": 2.0},
    "mimo_imperfect_csi": {"kind": "mimo_imperfect_csi", "A": 2.0, "nt": 2, "sigma2": 0.1},
    "noncoherent": {"kind": "noncoherent", "A": 2.0, "sigma2": 0.5},
    "poisson": {"kind": "poisson", "A": 2.0,
                "h": {"values": [0.5, 1.0], "probs": [0.5, 0.5]},
                "mu": {"values": [0.1], "probs": [1.0]}},
    "dithered_onebit": {"kind": "dithered_onebit", "A": 2.0, "points": [-0.5, 0.5]},
    "correlated_awgn": {"kind": "correlated_awgn", "A": 2.0, "acov": {"kind": "ar1", "rho": 0.5}},
}


def test_contract_records_cover_every_kind():
    assert set(CONTRACT_RECORDS) == set(ch.CHANNEL_BUILDERS)


@pytest.mark.parametrize("kind", sorted(CONTRACT_RECORDS))
def test_record_field_the_kind_lacks_is_refused(kind):
    # the message names the field and the kind's own fields
    record = {**CONTRACT_RECORDS[kind], "colour": 1.0}
    with pytest.raises(ValidationError, match=rf"^channel_from_json: kind '{kind}' has no field "
                                              r"'colour' \(its fields: kind, A"):
        ch.channel_from_json(record)


_POISSON = CONTRACT_RECORDS["poisson"]


@pytest.mark.parametrize("record, field", [
    ({**CONTRACT_RECORDS["dithered_onebit"], "weight": [0.25, 0.75]}, "weight"),
    ({**_POISSON, "h": {**_POISSON["h"], "prob": [0.5, 0.5]}}, "prob"),
    ({**_POISSON, "mu": {**_POISSON["mu"], "value": [0.1]}}, "value"),
    ({**CONTRACT_RECORDS["correlated_awgn"], "acov": {"kind": "ar1", "rho": 0.5, "varience": 4.0}},
     "varience"),
], ids=["dither-weight", "poisson-h-prob", "poisson-mu-value", "acov-varience"])
def test_misspelt_record_field_is_refused(record, field):
    with pytest.raises(ValidationError, match=f"has no field '{field}'"):
        ch.channel_from_json(record)


def _docstring_fields(doc):
    """Each kind's field list as channel_from_json's docstring states it, in the table's notation.

    ``h {values, probs}`` reads as ``h.values, h.probs``, ``[, weights]``
    as the optional ``weights?``, and a parenthetical note is dropped.
    """
    kinds = {}
    for kind, fields in re.findall(r"^\s*\* ``(\w+)``: (.*)$", doc, re.M):
        fields = re.sub(r"\s*\(.*\)", "", fields)
        fields = re.sub(r"(\w+) \{(.*?)\}",
                        lambda m: ", ".join(f"{m[1]}.{f.strip()}" for f in m[2].split(",")), fields)
        fields = re.sub(r"\s*\[, (\w+)\]", r", \1?", fields)
        kinds[kind] = tuple(f.strip() for f in fields.split(","))
    return kinds


def test_docstring_lists_the_field_table():
    table = {kind: fields for kind, (fields, _) in ch.CHANNEL_BUILDERS.items()}
    assert _docstring_fields(ch.channel_from_json.__doc__) == table


def _midpoint(channel):
    """The profile midpoint, as the full d-vector fisher takes on ball spaces."""
    lo, hi = channel.param_space.profile_bounds
    if channel.param_space.shape == "interval":
        return 0.5 * (lo + hi)
    x = np.zeros(channel.param_space.dim)
    x[0] = 0.5 * (lo + hi)
    return x


@pytest.mark.parametrize("kind", sorted(CONTRACT_RECORDS))
def test_channel_contract(kind):
    channel = ch.channel_from_json(CONTRACT_RECORDS[kind])
    mid = _midpoint(channel)

    # params are a JSON record that rebuilds the same channel
    rebuilt = ch.channel_from_json(json.dumps(channel.params))
    assert rebuilt.params == channel.params
    np.testing.assert_array_equal(rebuilt.fisher(mid), channel.fisher(mid))

    # interval spaces: sqrt det J is sqrt(J)
    if channel.param_space.shape == "interval":
        lo, hi = channel.param_space.profile_bounds
        grid = lo + (hi - lo) * (np.arange(9) + 0.5) / 9
        np.testing.assert_allclose(channel.sqrt_det_fisher(grid) ** 2, channel.fisher(grid),
                                   rtol=1e-14, atol=0.0)

    # the four per-point callables can be swapped for wrappers
    calls = {}

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    swapped = dataclasses.replace(channel, **{
        name: wrap(name, getattr(channel, name))
        for name in ("cost", "fisher", "sqrt_det_fisher", "output_pmf")
        if getattr(channel, name) is not None})
    assert fc.jeffreys_factor(swapped, 1.0) == fc.jeffreys_factor(channel, 1.0)
    np.testing.assert_array_equal(swapped.fisher(mid), channel.fisher(mid))
    if channel.output_pmf is not None:
        np.testing.assert_array_equal(swapped.output_pmf(mid), channel.output_pmf(mid))
    assert calls["cost"] > 0 and calls["sqrt_det_fisher"] > 0 and calls["fisher"] > 0


@pytest.mark.parametrize("kind", sorted(CONTRACT_RECORDS))
def test_callables_take_theta_in_the_space_only(kind):
    channel = ch.channel_from_json(CONTRACT_RECORDS[kind])
    lo, hi = channel.param_space.profile_bounds
    mid = 0.5 * (lo + hi)
    profile = {"sqrt_det_fisher": channel.sqrt_det_fisher, "output_pmf": channel.output_pmf}
    if channel.param_space.shape == "interval":
        profile["fisher"] = channel.fisher
    else:  # fisher takes the full d-vector; its norm is the radius
        unit = np.eye(channel.param_space.dim)[0]
        assert channel.fisher(mid * unit).shape == (unit.size, unit.size)
        for bad in (hi + 1e-9, math.nan):
            with pytest.raises(DomainError, match=rf"^{kind}\.fisher"):
                channel.fisher(bad * unit)
    for name, fn in profile.items():
        if fn is None:
            continue
        for bad in (lo - 1e-9, hi + 1e-9, math.nan, np.array([mid, math.nan])):
            # the default sqrt_det_fisher is sqrt(fisher), whose message names fisher
            with pytest.raises(DomainError, match=rf"^{kind}\."):
                fn(bad)
        if name == "output_pmf":
            assert fn(mid).shape == (channel.alphabet_size,)
        else:
            assert isinstance(fn(mid), float)


# Non-finite parameters, as JSON overflows them (1e999 is inf) or spells them (NaN).
NON_FINITE_RECORDS = [
    json.dumps({**rec, "A": "PEAK"}).replace('"PEAK"', "1e999") for rec in CONTRACT_RECORDS.values()
] + [
    '{"kind": "clipped_awgn", "A": 1, "B": 1e999}',
    '{"kind": "truncated_awgn", "A": 1, "B": 1e999}',
    '{"kind": "noncoherent", "A": 1, "sigma2": 1e999}',
    '{"kind": "mimo_imperfect_csi", "A": 1, "nt": 2, "sigma2": 1e999}',
    '{"kind": "mimo_imperfect_csi", "A": 1, "nt": 1e999, "sigma2": 0.1}',
    '{"kind": "dithered_onebit", "A": 1, "points": [0, NaN]}',
    '{"kind": "dithered_onebit", "A": 1, "points": [0, 1e999]}',
    '{"kind": "dithered_onebit", "A": 1, "points": [0, 1], "weights": [NaN, 1]}',
    '{"kind": "poisson", "A": 1, "h": {"values": [1e999], "probs": [1]},'
    ' "mu": {"values": [0.1], "probs": [1]}}',
    '{"kind": "poisson", "A": 1, "h": {"values": [1], "probs": [1]},'
    ' "mu": {"values": [1e999], "probs": [1]}}',
    '{"kind": "poisson", "A": 1, "h": {"values": [1, 2], "probs": [NaN, 1]},'
    ' "mu": {"values": [0.1], "probs": [1]}}',
]


@pytest.mark.parametrize("record", NON_FINITE_RECORDS)
def test_non_finite_parameters_fail_at_construction(record):
    assert "1e999" in record or "NaN" in record
    with pytest.raises((ValidationError, DomainError)):
        ch.channel_from_json(record)


# Parameters of the wrong type: a number must be a JSON number, never a string or a bool
# (float() used to read the string "2" and true as reals).
NON_REAL_RECORDS = [
    '{"kind": "awgn", "A": "2"}',
    '{"kind": "awgn", "A": true}',
    '{"kind": "noncoherent", "A": 1, "sigma2": "0.5"}',
]


@pytest.mark.parametrize("record", NON_REAL_RECORDS)
def test_non_real_parameters_fail_at_construction(record):
    with pytest.raises(ValidationError):
        ch.channel_from_json(record)


def test_integer_valued_float_counts():
    # a JSON count may be written 2.0; it builds the same channel as 2
    channel = ch.channel_from_json({"kind": "mimo_imperfect_csi", "A": 1.0, "nt": 2.0, "sigma2": 0.1})
    assert channel.params["nt"] == 2 and isinstance(channel.params["nt"], int)
    assert channel.param_space.dim == 4
    same = ch.mimo_imperfect_csi_channel(1.0, 2, 0.1)
    assert channel.sqrt_det_fisher(0.5) == same.sqrt_det_fisher(0.5)


def test_truncated_support_far_from_the_peak():
    # z = P(|y| < B | theta = A) underflows at A=40, B=1: rejected when built
    with pytest.raises(ValidationError, match="A=40.0, B=1.0"):
        ch.truncated_awgn_channel(40.0, 1.0)
    # at A=38 z stays a normal float; the cell-mass derivative no longer divides by z * z
    channel = ch.truncated_awgn_channel(38.0, 1.0)
    q = fc.build_quantizer(4.0, 64)
    for theta in (30.0, 36.0, 38.0):
        assert 0.0 < fc.quantized_fisher(channel, q, theta) < channel.fisher(theta) < 1.0
    assert fc.solve_lambda_star(channel, 1.0).lambda_star > 0.0


def test_ball_spec_needs_sqrt_det_fisher():
    with pytest.raises(ValidationError, match="sqrt_det_fisher"):
        ch.ChannelSpec(kind="ball", param_space=ch.ParameterSpace.ball(2, 1.0),
                       fisher=lambda th: np.eye(2))


def test_parameter_space_validation():
    ps = ch.ParameterSpace.interval(-1.0, 1.0)
    assert ps.profile_bounds == (-1.0, 1.0)
    ball = ch.ParameterSpace.ball(8, 2.0)
    assert ball.profile_bounds == (0.0, 2.0)
    with pytest.raises(ValidationError):
        ch.ParameterSpace.interval(1.0, -1.0)
    with pytest.raises(ValidationError):
        ch.ParameterSpace.ball(4, 0.0)
    with pytest.raises(ValidationError):
        ch.ParameterSpace(dim=2, shape="interval", lo=-1.0, hi=1.0)


def test_channel_json_errors():
    with pytest.raises(ValidationError):
        ch.channel_from_json({"kind": "does_not_exist", "A": 1.0})
    with pytest.raises(ValidationError):
        ch.channel_from_json({"kind": "quantized_awgn", "A": 1.0})
    with pytest.raises(ValidationError):
        ch.channel_from_json("not json at all {")
    with pytest.raises(ValidationError, match="integer nt"):
        ch.channel_from_json({"kind": "mimo_imperfect_csi", "A": 1.0, "nt": 2.5, "sigma2": 0.1})


def test_energy_detection_logdensity_normalized():
    channel = ch.energy_detection_channel(1.0)
    from fishercap.quad import integrate_interval

    # the density of y~ = 2|x+z|^2 is below exp(-(sqrt(y~) - sqrt(2) theta)^2 / 2) past
    # y~ = 400, so [0, 400] holds all of its mass to far below the tolerance
    for theta in [0.3, 0.9]:
        logp_fn = lambda y: np.exp(channel.output_logdensity_dtheta(y, theta)[0])
        total, _ = integrate_interval(logp_fn, 0.0, 400.0)
        assert total == pytest.approx(1.0, abs=1e-9)
    # score integrates to zero against the density (regularity)
    def weighted_score(y):
        logp, dlog = channel.output_logdensity_dtheta(y, 0.5)
        return np.exp(logp) * dlog
    mean_score, _ = integrate_interval(weighted_score, 0.0, 400.0)
    assert abs(mean_score) < 1e-9


def _fisher_oracle():
    path = os.path.join(os.path.dirname(__file__), "data", "fisher_oracle.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_energy_detection_matches_mpmath():
    # theta from 1e-4 to 100, through the deep range where J tends to 2
    rows = _fisher_oracle()["energy_detection"]
    theta = np.array([x for x, _ in rows])
    want = np.array([float(v) for _, v in rows])
    np.testing.assert_allclose(ch.energy_detection_channel(100.0).fisher(theta), want,
                               rtol=1e-12, atol=0.0)


# Known misses of ROADMAP item 1, kept on the grid: table -> (first theta that misses, why)
_KNOWN_MISSES = {
    "clipped_awgn": (7.0, "ROADMAP item 1: clipped AWGN's J is 1 minus a loss that tends to 1; "
                          "J(7) is 8.5e-12 relative off, J(10) and J(20) are wrong"),
    "truncated_awgn_far": (20.0, "ROADMAP item 1: truncated AWGN's variance cancels when the "
                                 "support lies far in a tail; J(20) is 2.5e-11 relative off"),
}


def _closed_form_cases():
    for name, table in _fisher_oracle()["closed_forms"].items():
        first_miss, why = _KNOWN_MISSES.get(name, (math.inf, ""))
        for theta, value in table["rows"]:
            marks = pytest.mark.xfail(strict=True, reason=why) if theta >= first_miss else ()
            yield pytest.param(table["channel"], table["callable"], theta, float(value),
                               id=f"{name}-{theta:g}", marks=marks)


@pytest.mark.parametrize("record, attr, theta, want", list(_closed_form_cases()))
def test_closed_form_channels_match_mpmath(record, attr, theta, want):
    # J (sqrt det J on the ball) through the spec callable, against 40 mpmath digits
    got = getattr(ch.channel_from_json(record), attr)(theta)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_fisher_reference_reproduces_committed_table():
    pytest.importorskip("mpmath")
    import reference_fisher as ref

    oracle = _fisher_oracle()
    committed = oracle["energy_detection"]
    sample = [row for row in committed if row[0] in (1e-4, 0.5)]  # two rows of about 0.5 s each
    assert len(sample) == 2
    fresh = ref.generate_tables({"energy_detection": [x for x, _ in sample]})
    for (x0, v0), (x1, v1) in zip(sample, fresh["energy_detection"]):
        assert x0 == x1
        assert float(v0) == pytest.approx(float(v1), rel=1e-25)
    # the closed forms are cheap: every table, every row
    assert fresh["closed_forms"].keys() == oracle["closed_forms"].keys()
    for name, table in oracle["closed_forms"].items():
        again = fresh["closed_forms"][name]
        assert again["channel"] == table["channel"] and again["callable"] == table["callable"]
        for (x0, v0), (x1, v1) in zip(table["rows"], again["rows"], strict=True):
            assert x0 == x1
            assert float(v0) == pytest.approx(float(v1), rel=1e-25)


@pytest.mark.parametrize("A, lam_star, log2_jf", [(30.0, 0.007387, 4.794139),
                                                  (60.0, 0.007574, 4.797549)])
def test_energy_detection_large_peak_solves(A, lam_star, log2_jf):
    # J is near 2 beyond theta = 19, so the tilt at P = 100 sees the whole space
    s = fc.solve_lambda_star(ch.energy_detection_channel(A), 100.0)
    assert s.lambda_star == pytest.approx(lam_star, abs=5e-7)
    assert s.log2_jf == pytest.approx(log2_jf, abs=5e-7)


def test_energy_detection_long_batch_in_bounded_memory():
    import tracemalloc

    channel = ch.energy_detection_channel(30.0)
    theta = np.linspace(0.0, 30.0, 20000)  # several passes of the rule
    tracemalloc.start()
    try:
        batch = channel.fisher(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6  # a single pass over 20000 theta would hold several 29 MB arrays
    for i in (0, 1023, 1024, 2047, 2048, 19999):
        assert batch[i] == channel.fisher(theta[i])


def test_energy_detection_batch_matches_pointwise():
    channel = ch.energy_detection_channel(4.0)
    theta = np.array([0.0, 1e-3, 0.4, 1.0, 2.5, 4.0])
    batch = channel.fisher(theta)
    single = np.array([channel.fisher(t) for t in theta])
    # each value depends on its own theta alone
    np.testing.assert_allclose(batch, single, rtol=2e-11, atol=2e-13)
    assert batch[0] == 0.0
