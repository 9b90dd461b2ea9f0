import math
import warnings

import numpy as np
import pytest

import fishercap as fc
from fishercap import receiver_quant as rq
from fishercap.errors import DomainError, ValidationError


@pytest.fixture(scope="module")
def awgn():
    return fc.awgn_channel(1.0)


# --- quantizer construction --------------------------------------------------

def test_build_uniform_edges():
    q = fc.build_quantizer(4.0, 8)
    assert np.allclose(q.edges, np.arange(-4.0, 5.0))
    assert q.num_cells == 9


def test_nested_dyadic_edges():
    a = fc.build_quantizer(4.0, 8)
    b = fc.build_quantizer(4.0, 16)
    assert set(np.round(a.edges, 12)) <= set(np.round(b.edges, 12))


def test_single_bin_quantizer():
    q = fc.build_quantizer(2.0, 1)
    assert q.edges.tolist() == [-2.0, 2.0]
    assert q.num_cells == 2


def test_build_validation():
    with pytest.raises(DomainError):
        fc.build_quantizer(0.0, 4)
    with pytest.raises(DomainError):
        fc.build_quantizer(1.0, 0)


def test_quantizer_needs_finite_radius():
    # an infinite radius gives NaN edges that bin every sample into cell 1
    with pytest.raises(DomainError):
        fc.Quantizer1D(math.inf, 4)
    with pytest.raises(DomainError):
        fc.build_quantizer(math.inf, 4)


def test_e_l_needs_a_grid(awgn):
    # an empty midpoint grid gave NaN (the mean of no values) with two RuntimeWarnings;
    # a grid size of 2.5 sampled the upper bound and gave 0.16080
    for bad in (0, 2.5):
        with pytest.raises(DomainError):
            fc.capacity_loss_eL(awgn, fc.build_quantizer(4.0, 8), bad)


# --- bin probabilities --------------------------------------------------------

def test_bin_probs_symmetry_and_normalization(awgn):
    q = fc.build_quantizer(3.0, 6)
    p, dp = rq._bin_probs_and_dtheta(awgn, q, 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(p[1:], p[1:][::-1], atol=1e-15)  # interior symmetry
    p, dp = rq._bin_probs_and_dtheta(awgn, q, 0.6)
    assert p.sum() == pytest.approx(1.0, abs=1e-13)
    assert abs(dp.sum()) < 1e-12


def test_bin_probs_match_quadrature(awgn):
    q = fc.build_quantizer(2.5, 5)
    theta = 0.4
    p, _ = rq._bin_probs_and_dtheta(awgn, q, theta)
    for idx in range(1, q.num_cells):
        lo, hi = q.edges[idx - 1], q.edges[idx]
        want, _ = fc.integrate_interval(
            lambda y: np.exp(-0.5 * (y - theta) ** 2) / math.sqrt(2 * math.pi), lo, hi)
        assert p[idx] == pytest.approx(want, abs=1e-10)


def test_bin_probs_unsupported_channel():
    channel = fc.quantized_awgn_channel(1.0, [0.0])
    with pytest.raises(TypeError):
        rq._bin_probs_and_dtheta(channel, fc.build_quantizer(2.0, 4), 0.0)


# --- quantized Fisher information ----------------------------------------------

def test_fine_quantizer_recovers_awgn(awgn):
    q = fc.build_quantizer(8.0, 4096)
    assert fc.quantized_fisher(awgn, q, 0.0) == pytest.approx(1.0, abs=1e-4)


def test_chain_rule_bound(awgn):
    theta = 0.3
    for (r, L) in [(2.0, 2), (3.0, 8), (6.0, 64), (8.0, 512)]:
        q = fc.build_quantizer(r, L)
        assert fc.quantized_fisher(awgn, q, theta) <= 1.0 + 1e-12


def test_two_bin_matches_onebit(awgn):
    q = fc.build_quantizer(8.0, 2)  # effective single threshold at 0
    assert fc.quantized_fisher(awgn, q, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-3)


def test_refinement_never_decreases_fisher(awgn):
    theta = np.linspace(-1.0, 1.0, 17)
    for L in [4, 8, 16, 32]:
        qa = fc.build_quantizer(6.0, L)
        qb = fc.build_quantizer(6.0, 2 * L)
        ja = fc.quantized_fisher(awgn, qa, theta)
        jb = fc.quantized_fisher(awgn, qb, theta)
        assert np.all(jb >= ja - 1e-12)


# --- capacity loss -------------------------------------------------------------

def test_e_l_fine_quantizer(awgn):
    q = fc.build_quantizer(8.0, 4096)
    assert 0.0 <= fc.capacity_loss_eL(awgn, q) < 1e-3


def test_e_l_nonnegative(awgn):
    for (r, L) in [(2.0, 1), (4.0, 8), (6.0, 32)]:
        assert fc.capacity_loss_eL(awgn, fc.build_quantizer(r, L)) >= 0.0


def test_e_l_nested_monotone(awgn):
    es = [fc.capacity_loss_eL(awgn, fc.build_quantizer(6.0, L)) for L in [8, 16, 32, 64]]
    assert all(b <= a for a, b in zip(es, es[1:]))


def test_e_l_infinite_when_bins_degenerate():
    # one bin plus overflow on a bounded-support family: interior mass is
    # constant in theta, so the quantized information vanishes
    channel = fc.truncated_awgn_channel(1.0, 2.0)
    q = fc.build_quantizer(2.0, 1)
    assert fc.capacity_loss_eL(channel, q) == math.inf


# --- log-likelihoods ------------------------------------------------------------

def test_exact_loglik_closed_form(awgn):
    rng = np.random.default_rng(0)
    y = 0.5 + rng.normal(size=200)
    want = -0.5 * len(y) * math.log(2 * math.pi) - 0.5 * float(np.sum((y - 0.5) ** 2))
    assert fc.exact_loglik(awgn, y, 0.5) == pytest.approx(want, rel=1e-14)


def test_approx_loglik_all_samples_equal(awgn):
    q = fc.build_quantizer(4.0, 8)
    y = np.full(25, 0.3)
    t = fc.type_from_samples(q, y)
    p, _ = rq._bin_probs_and_dtheta(awgn, q, 0.1)
    occupied = int(np.argmax(t.counts))
    assert fc.approx_loglik(awgn, q, t, 0.1) == pytest.approx(
        25.0 * math.log(p[occupied]), rel=1e-14)


def test_loglik_ratio_converges_with_refinement(awgn):
    rng = np.random.default_rng(11)
    y = 0.5 + rng.normal(size=1000)
    n = len(y)
    probe, ref = 0.8, 0.0
    exact = (fc.exact_loglik(awgn, y, probe) - fc.exact_loglik(awgn, y, ref)) / n
    diffs = []
    for L in [8, 16, 32, 64]:
        q = fc.build_quantizer(6.0, L)
        t = fc.type_from_samples(q, y)
        binned = (fc.approx_loglik(awgn, q, t, probe)
                  - fc.approx_loglik(awgn, q, t, ref)) / n
        diffs.append(abs(binned - exact))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_type_statistic_loses_nothing(awgn):
    # summing per-sample bin log-masses equals the type-weighted form
    rng = np.random.default_rng(3)
    y = rng.normal(size=400)
    q = fc.build_quantizer(5.0, 16)
    t = fc.type_from_samples(q, y)
    p, _ = rq._bin_probs_and_dtheta(awgn, q, 0.2)
    edges = np.asarray(q.edges)
    per_sample = 0.0
    for v in y:
        idx = 0 if abs(v) > q.r else int(np.clip(np.searchsorted(edges, v), 1, q.L))
        per_sample += math.log(p[idx])
    assert fc.approx_loglik(awgn, q, t, 0.2) == pytest.approx(per_sample, rel=1e-12)


def _reference_bin(q, y):
    # bin 0 for |y| > r, else the first interior bin l whose upper edge is >= y
    return 0 if abs(y) > q.r else next(l for l in range(1, q.L + 1) if y <= q.edges[l])


@pytest.mark.parametrize("r, L", [(2.0, 1), (2.0, 2), (3.0, 7), (5.0, 16)])
def test_type_from_samples_bins_each_sample(r, L):
    q = fc.build_quantizer(r, L)
    rng = np.random.default_rng(L)
    # both edges exactly, every interior edge, overflow on both sides, and draws across the range
    y = np.concatenate(([-r, r, -r - 1e-9, r + 1e-9, -3.0 * r, 3.0 * r], q.edges,
                        rng.uniform(-1.5 * r, 1.5 * r, 300)))
    want = np.zeros(L + 1, dtype=int)
    for v in y:
        want[_reference_bin(q, v)] += 1
    t = fc.type_from_samples(q, y)
    assert t.counts == tuple(want.tolist())
    assert all(type(c) is int for c in t.counts)


def test_approx_loglik_sentinel():
    channel = fc.truncated_awgn_channel(1.0, 2.0)
    q = fc.build_quantizer(4.0, 8)  # outer bins impossible under |y| < 2
    t = fc.TypeIndex((5, 0, 0, 0, 0, 3, 0, 0, 0))
    assert fc.approx_loglik(channel, q, t, 0.0) == -math.inf


# --- detection -------------------------------------------------------------------

def test_ml_detect_recovers_source(awgn):
    rng = np.random.default_rng(21)
    points = np.array([-0.8, -0.3, 0.3, 0.8])
    q = fc.build_quantizer(6.0, 64)
    for j, pt in enumerate(points):
        y = pt + rng.normal(size=10 ** 4)
        t = fc.type_from_samples(q, y)
        assert fc.ml_detect(awgn, q, t, points) == j


def test_ml_detect_single_point(awgn):
    q = fc.build_quantizer(4.0, 8)
    t = fc.type_from_samples(q, np.zeros(5))
    assert fc.ml_detect(awgn, q, t, np.array([0.4])) == 0


def test_approx_loglik_array_is_scalar_calls():
    # every kind with cell masses, and a sentinel type that some candidates cannot produce
    q = fc.build_quantizer(4.0, 8)
    t = fc.TypeIndex((2, 0, 1, 3, 7, 5, 2, 0, 1))
    sentinel = fc.TypeIndex((0, 0, 0, 0, 0, 0, 0, 0, 9))
    for channel in (fc.awgn_channel(3.0), fc.truncated_awgn_channel(3.0, 2.5)):
        theta = np.linspace(-3.0, 3.0, 13)
        for ti in (t, sentinel):
            ll = fc.approx_loglik(channel, q, ti, theta)
            assert ll.shape == theta.shape
            want = np.array([fc.approx_loglik(channel, q, ti, float(x)) for x in theta])
            assert ll.tobytes() == want.tobytes()
            grid = fc.approx_loglik(channel, q, ti, theta.reshape(13, 1))
            assert grid.shape == (13, 1) and grid.tobytes() == want.tobytes()


def test_ml_detect_is_first_argmax(awgn):
    q = fc.build_quantizer(5.0, 16)
    y = 0.4 + np.random.default_rng(9).normal(size=500)
    t = fc.type_from_samples(q, y)
    points = np.array([-0.4, 0.0, 0.4])
    ll = fc.approx_loglik(awgn, q, t, points)
    assert fc.ml_detect(awgn, q, t, points) == int(np.argmax(ll)) == 2
    # a repeated point ties with itself; the first copy wins
    assert fc.ml_detect(awgn, q, t, np.array([0.0, 0.4, 0.4])) == 1
    p, _ = rq._bin_probs_and_dtheta(awgn, q, points)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-10)


def test_ml_detect_all_neginf_returns_zero():
    channel = fc.truncated_awgn_channel(1.0, 2.0)
    q = fc.build_quantizer(4.0, 8)  # outer bins impossible under |y| < 2
    t = fc.TypeIndex((5, 0, 0, 0, 0, 3, 0, 0, 0))
    points = np.array([-0.5, 0.0, 0.5])
    assert np.all(np.isneginf(fc.approx_loglik(channel, q, t, points)))
    assert fc.ml_detect(channel, q, t, points) == 0


# --- scaling study ----------------------------------------------------------------

def test_gaussian_tail_slope(awgn):
    res = fc.scaling_study(awgn, fc.default_radius_schedule,
                           [8, 16, 32, 64, 128, 256, 512, 1024])
    assert -2.6 <= res.slope <= -1.5


def test_bounded_support_slope():
    channel = fc.truncated_awgn_channel(1.0, 4.0)
    res = fc.scaling_study(channel, lambda L: 4.0, [8, 16, 32, 64, 128, 256])
    assert res.slope <= -1.5


def test_slope_affine_invariance():
    L = [8, 16, 32, 64]
    e = [0.2, 0.06, 0.015, 0.004]
    s1 = rq._fit_loglog_slope(L, e)
    s2 = rq._fit_loglog_slope(L, [2.0 * x for x in e])
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_slope_drops_underflowed_points():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = rq._fit_loglog_slope([8, 16, 32, 64], [0.2, 0.05, 1e-17, 0.003])
        assert any("dropped" in str(w.message) for w in caught)
    assert math.isfinite(s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError):
            rq._fit_loglog_slope([8, 16], [1e-16, 1e-17])


def test_scaling_study_validation(awgn):
    with pytest.raises(ValidationError):
        fc.scaling_study(awgn, fc.default_radius_schedule, [8, 16, 32])
    with pytest.raises(ValidationError):
        fc.scaling_study(awgn, fc.default_radius_schedule, [8, 16, 32, 48])
    with pytest.raises(ValidationError, match="ratio other than 1"):
        fc.scaling_study(awgn, fc.default_radius_schedule, [8, 8, 8, 8])


def test_slope_needs_two_distinct_L():
    with pytest.raises(DomainError, match="two distinct"):
        rq._fit_loglog_slope([8, 8, 8, 8], [0.2, 0.2, 0.2, 0.2])
    # two distinct L are enough for a line
    assert rq._fit_loglog_slope([8, 8, 16], [0.2, 0.2, 0.05]) == pytest.approx(-2.0, rel=1e-12)


def test_exact_loglik_needs_a_log_density():
    with pytest.raises(TypeError, match="no scalar log-density"):
        fc.exact_loglik(fc.quantized_awgn_channel(1.0, [0.0]), [0.1], 0.0)


def test_quantizer_is_r_and_L():
    q = fc.Quantizer1D(r=2.0, L=4)
    assert q == fc.build_quantizer(2.0, 4)
    assert q.edges.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(DomainError):
        fc.Quantizer1D(r=0.0, L=4)
    with pytest.raises(DomainError):
        fc.Quantizer1D(r=1.0, L=0)
