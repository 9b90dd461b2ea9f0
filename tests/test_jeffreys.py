import math

import numpy as np
import pytest

import fishercap as fc
from fishercap import jeffreys as jef
from fishercap.channels import ChannelSpec, ParameterSpace
from fishercap.errors import (
    DegenerateChannelError,
    DomainError,
    RangeError,
    UnboundedTiltError,
)


def awgn_jf_closed(lam, A, P):
    if lam == 0.0:
        return 2.0 * A
    _, q = fc.gauss_phi_q(math.sqrt(2.0 * lam * math.log(2.0)) * A)
    return 2.0 ** (lam * P) * math.sqrt(math.pi / (lam * math.log(2.0))) * (1.0 - 2.0 * q)


def test_jf_awgn_untilted(awgn_unit):
    assert fc.jeffreys_factor(awgn_unit, 0.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_jf_awgn_closed_form(awgn_unit, lam):
    want = awgn_jf_closed(lam, 1.0, 1.0 / 9.0)
    assert fc.jeffreys_factor(awgn_unit, lam, 1.0 / 9.0) == pytest.approx(want, rel=1e-9)


def test_jf_noncoherent_closed_form():
    s2, A, lam = 0.5, 2.0, 1.0
    channel = fc.noncoherent_channel(A, s2)
    c = lam * math.log(2.0) / s2
    want = 2.0 ** (lam / s2) * (fc.exp_integral_e1(c) - fc.exp_integral_e1(c * (1.0 + s2 * A * A)))
    assert fc.jeffreys_factor(channel, lam, 0.0) == pytest.approx(want, rel=1e-8)


def test_jf_power_shift_and_monotonicity(awgn_unit):
    lam = 0.7
    base = fc.jeffreys_factor(awgn_unit, lam, 0.0)
    shifted = fc.jeffreys_factor(awgn_unit, lam, 0.25)
    assert math.log2(shifted) - math.log2(base) == pytest.approx(lam * 0.25, abs=1e-12)
    lams = np.geomspace(1e-2, 1e2, 17)
    jfs = [fc.jeffreys_factor(awgn_unit, l, 0.0) for l in lams]
    assert all(b < a for a, b in zip(jfs, jfs[1:]))


def test_tilted_prior_uniform_at_zero_tilt(awgn_unit):
    prior = fc.tilted_prior(awgn_unit, 0.0)
    grid = np.linspace(-0.99, 0.99, 21)
    assert np.allclose(prior.density(grid), 0.5, atol=1e-12)


def test_tilted_prior_truncated_gaussian_shape(awgn_unit):
    lam = 3.0
    prior = fc.tilted_prior(awgn_unit, lam)
    grid = np.linspace(-0.9, 0.9, 13)
    ratio = prior.density(grid) / np.exp2(-lam * grid ** 2)
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_tilted_prior_noncoherent_shape_and_normalization():
    s2, A, lam = 0.5, 2.0, 1.5
    channel = fc.noncoherent_channel(A, s2)
    prior = fc.tilted_prior(channel, lam)
    grid = np.linspace(0.05, 1.95, 12)
    shape = np.exp2(-lam * grid ** 2) * 2.0 * s2 * grid / (1.0 + s2 * grid ** 2)
    ratio = prior.density(grid) / shape
    assert np.allclose(ratio, ratio[0], rtol=1e-12)
    total, _ = fc.integrate_interval(prior.density, prior.lo, prior.hi)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("make", [
    lambda: fc.awgn_channel(1.0),
    lambda: fc.clipped_awgn_channel(1.0, 0.5),
    lambda: fc.quantized_awgn_channel(1.0, [0.0]),
    lambda: fc.noncoherent_channel(1.0, 0.5),
    lambda: fc.mimo_imperfect_csi_channel(1.0, 2, 0.2),
])
def test_tilted_prior_normalized_across_channels(make):
    channel = make()
    for lam in [0.0, 2.5]:
        prior = fc.tilted_prior(channel, lam)
        total, _ = fc.integrate_interval(prior.density, prior.lo, prior.hi)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_poisson_prior_shape():
    # unit fading, constant background m: density proportional to
    # 2^(-lam theta^2) / sqrt(theta + m)
    m, lam = 0.3, 2.0
    channel = fc.poisson_channel(1.0, ([1.0], [1.0]), ([m], [1.0]))
    prior = fc.tilted_prior(channel, lam)
    grid = np.linspace(0.01, 0.99, 15)
    shape = np.exp2(-lam * grid ** 2) / np.sqrt(grid + m)
    ratio = prior.density(grid) / shape
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_average_cost_awgn(awgn_unit):
    assert fc.average_cost(awgn_unit, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    lam = 2.0
    jf = fc.jeffreys_factor(awgn_unit, lam, 0.0)
    closed = (0.5 - 2.0 ** (-lam)) / (lam * math.log(2.0)) / jf * jf  # guard form below
    closed = (1.0 / (lam * math.log(2.0))) * (0.5 - 2.0 ** (lam * (0.0 - 1.0)) / jf)
    assert fc.average_cost(awgn_unit, lam) == pytest.approx(closed, rel=1e-9)
    assert fc.average_cost(awgn_unit, 50.0) < 0.05


def test_m_strictly_decreasing_sample_channels():
    lams = np.geomspace(1e-3, 1e3, 25)
    for channel in [fc.awgn_channel(1.0), fc.quantized_awgn_channel(1.0, [0.0]),
                    fc.noncoherent_channel(1.0, 0.5)]:
        ms = [fc.average_cost(channel, l) for l in lams]
        assert all(b < a for a, b in zip(ms, ms[1:])), channel.kind


def test_solve_lambda_star_inactive(awgn_unit):
    # exact tie resolves to zero tilt; slightly larger budgets stay inactive
    for P in [1.0 / 3.0, 1.0 / 3.0 + 1e-6, 0.5]:
        s = fc.solve_lambda_star(awgn_unit, P)
        assert s.lambda_star == 0.0
        assert s.m_at_star == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fc.solve_lambda_star(awgn_unit, 1.0 / 3.0 - 1e-6).lambda_star > 0


def test_solve_lambda_star_active(awgn_unit):
    P = 1.0 / 9.0
    s = fc.solve_lambda_star(awgn_unit, P)
    assert s.lambda_star > 0
    assert abs(s.m_at_star - P) < 1e-10 * P
    # closed-form consistency of the solved tilt
    jf = awgn_jf_closed(s.lambda_star, 1.0, P)
    assert s.jf == pytest.approx(jf, rel=1e-9)


def test_solve_lambda_star_small_p(awgn_unit):
    s = fc.solve_lambda_star(awgn_unit, 0.001)
    ratio = s.jf / math.sqrt(2.0 * math.pi * math.e * 0.001)
    assert 0.98 <= ratio <= 1.02


def test_asymptotic_capacity_formulas(awgn_unit):
    nr = 100
    cap = fc.solve_lambda_star(awgn_unit, 0.5).capacity_fn(nr)  # P >= A^2/3
    assert cap == pytest.approx(0.5 * math.log2(2.0 * nr / (math.pi * math.e)), rel=1e-12)
    s = fc.solve_lambda_star(awgn_unit, 1.0 / 9.0)
    cap = s.capacity_fn(nr)
    assert cap == pytest.approx(0.5 * math.log2(nr * s.jf ** 2 / (2.0 * math.pi * math.e)), rel=1e-12)


def test_capacity_dimension_bookkeeping():
    channel = fc.mimo_imperfect_csi_channel(1.0, 4, 0.1)
    s = fc.solve_lambda_star(channel, 1.0 / 9.0)
    assert channel.param_space.dim == 8
    assert s.capacity_fn(400) - s.capacity_fn(100) == pytest.approx(8.0, abs=1e-10)


def test_capacity_fn_scaling_one_dim(awgn_unit):
    s = fc.solve_lambda_star(awgn_unit, 1.0 / 9.0)
    assert s.capacity_fn(4 * 64) - s.capacity_fn(64) == pytest.approx(1.0, abs=1e-12)


def test_prior_cdf_uniform_inverse(awgn_unit):
    prior = fc.tilted_prior(awgn_unit, 0.0)
    assert fc.prior_cdf_inverse(prior, 0.25) == pytest.approx(-0.5, abs=1e-11)
    assert fc.prior_cdf(prior, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_prior_cdf_round_trip_clipped_channel():
    channel = fc.clipped_awgn_channel(1.0, 1.0)
    s = fc.solve_lambda_star(channel, 1.0 / 9.0)
    prior = fc.tilted_prior(channel, s.lambda_star)
    for u in [0.1, 0.5, 0.9]:
        theta = fc.prior_cdf_inverse(prior, u)
        assert fc.prior_cdf(prior, theta) == pytest.approx(u, abs=1e-12)


def test_prior_median_symmetric(awgn_unit):
    s = fc.solve_lambda_star(awgn_unit, 1.0 / 9.0)
    prior = fc.tilted_prior(awgn_unit, s.lambda_star)
    assert fc.prior_cdf_inverse(prior, 0.5) == pytest.approx(0.0, abs=1e-11)


def _constant_cost_channel(cost_offset):
    ps = ParameterSpace.interval(-1.0, 1.0)
    return ChannelSpec(
        kind="synthetic",
        param_space=ps,
        cost=lambda t: np.square(np.asarray(t, float)) + cost_offset,
        fisher=lambda t: np.ones_like(np.asarray(t, float)),
        sqrt_det_fisher=lambda t: np.ones_like(np.asarray(t, float)),
    )


def test_unbounded_tilt_error():
    channel = _constant_cost_channel(5.0)  # cost >= 5 everywhere
    with pytest.raises(UnboundedTiltError):
        fc.solve_lambda_star(channel, 1.0)


def test_finite_tilt_iff_smallest_cost_below_power():
    # min cost 0.99 < P = 1: a finite (large) tilt exists, however narrow the peak
    s = fc.solve_lambda_star(_constant_cost_channel(0.99), 1.0)
    assert s.lambda_star > 0 and abs(s.m_at_star - 1.0) < 1e-10
    # M(lambda) -> min cost + 1/(2 lambda ln2) once the peak is narrow
    assert s.lambda_star == pytest.approx(1.0 / (2.0 * 0.01 * math.log(2.0)), rel=1e-6)
    with pytest.raises(UnboundedTiltError):
        fc.solve_lambda_star(_constant_cost_channel(1.0), 1.0)


def test_wide_peak_awgn_matches_gaussian_limit():
    # A = 1e4 puts the tilted peak (width ~1) in a tiny corner of [-A, A]
    s = fc.solve_lambda_star(fc.awgn_channel(1e4), 1.0)
    assert s.lambda_star == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-9)
    assert s.jf == pytest.approx(math.sqrt(2.0 * math.pi * math.e), rel=1e-9)
    assert abs(s.m_at_star - 1.0) < 1e-10


def test_wider_peak_awgn_has_a_finite_tilt():
    s = fc.solve_lambda_star(fc.awgn_channel(1e5), 1.0)
    assert s.lambda_star == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-9)


def test_tiny_power_budget_gaussian_limit(awgn_unit):
    # the tilted peak has width ~1e-30 on [-1, 1]; the graded root resolves it
    P = 1e-60
    s = fc.solve_lambda_star(awgn_unit, P)
    assert s.lambda_star == pytest.approx(1.0 / (2.0 * P * math.log(2.0)), rel=1e-9)
    assert s.jf == pytest.approx(math.sqrt(2.0 * math.pi * math.e * P), rel=1e-9)
    # below what double precision resolves, the solve fails loudly
    with pytest.raises(RangeError, match="underflows"):
        fc.solve_lambda_star(awgn_unit, 1e-200)


def test_jf_out_of_float_range(awgn_unit):
    with pytest.raises(RangeError, match="lambda=5000.0"):
        fc.jeffreys_factor(awgn_unit, 5000.0, 1.0)
    # the capacity uses log2 JF, which stays finite when JF would not
    s = fc.solve_lambda_star(awgn_unit, 1.0 / 9.0)
    assert s.capacity_fn(100) == pytest.approx(
        0.5 * math.log2(100 / (2.0 * math.pi * math.e)) + s.log2_jf, rel=1e-15)


def test_degenerate_channel_error():
    ps = ParameterSpace.interval(-1.0, 1.0)
    dead = ChannelSpec(
        kind="dead",
        param_space=ps,
        cost=lambda t: np.square(np.asarray(t, float)),
        fisher=lambda t: np.zeros_like(np.asarray(t, float)),
        sqrt_det_fisher=lambda t: np.zeros_like(np.asarray(t, float)),
    )
    with pytest.raises(DegenerateChannelError):
        fc.tilted_prior(dead, 0.0)


def test_lambda_validation(awgn_unit):
    with pytest.raises(DomainError):
        fc.jeffreys_factor(awgn_unit, -1.0)
    with pytest.raises(DomainError):
        fc.solve_lambda_star(awgn_unit, 0.0)
    s = fc.solve_lambda_star(awgn_unit, 0.5)
    with pytest.raises(DomainError):
        s.capacity_fn(0)


def test_capacity_needs_finite_antenna_count(awgn_unit):
    # NaN and inf antenna counts used to come back as NaN and inf bits
    with pytest.raises(DomainError):
        fc.solve_lambda_star(awgn_unit, 0.5).capacity_fn(math.nan)
    with pytest.raises(DomainError):
        fc.solve_lambda_star(awgn_unit, 0.5).capacity_fn(math.inf)


def test_prior_cdf_rejects_nan(awgn_unit):
    with pytest.raises(DomainError):
        fc.prior_cdf(fc.tilted_prior(awgn_unit, 1.0), math.nan)


def test_invert_monotone_one_call_per_iteration():
    calls = []
    target = np.array([0.3, -1.0, 2.5, 9.0])

    def F_dF(x, k):
        calls.append((x.tolist(), k.tolist()))
        return x ** 3 + x, 3.0 * x * x + 1.0

    x = jef.invert_monotone(F_dF, target, -2.0, 2.0, np.full(4, 1.5))
    assert x ** 3 + x == pytest.approx(target, rel=1e-15)
    # each iteration evaluates F and F' together at the points still moving, a set that only shrinks
    moving = [k for _, k in calls]
    assert moving[0] == [0, 1, 2, 3] and 2 < len(calls) < 200
    assert all(set(now) <= set(before) for before, now in zip(moving, moving[1:]))
    for point in range(4):  # and no point is evaluated at the same x twice
        path = [at[k.index(point)] for at, k in calls if point in k]
        assert path[0] == 1.5 and len(set(path)) == len(path) > 2


def test_table_cache_holds_at_most_eight_tables():
    for k in range(20):
        fc.jeffreys_factor(fc.awgn_channel(1.0 + k), 0.5)
    assert jef._TABLE_CACHE_SIZE == 8
    assert jef._table.cache_info().currsize <= 8
