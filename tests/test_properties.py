"""Property tests over the channel zoo: invariants of the tilted profile.

* M(lambda) is strictly decreasing;
* log2 JF(lambda) is convex (it is a log-partition function);
* the inverse cdf undoes the cdf;
* the prior density integrates to one;
* a result depends only on (channel, lambda): JF at one tilt is
  bit-identical whether or not other tilts were evaluated first.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fishercap as fc

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

peak = st.floats(0.5, 4.0)
KINDS = {
    "awgn": st.builds(lambda A: {"kind": "awgn", "A": A}, peak),
    "clipped_awgn": st.builds(lambda A, B: {"kind": "clipped_awgn", "A": A, "B": B},
                              peak, st.floats(0.5, 3.0)),
    "truncated_awgn": st.builds(lambda A, B: {"kind": "truncated_awgn", "A": A, "B": B},
                                peak, st.floats(1.0, 3.0)),
    "quantized_awgn": st.builds(
        lambda A, t: {"kind": "quantized_awgn", "A": A, "thresholds": sorted(set(t))},
        peak, st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3)),
    "energy_detection": st.builds(lambda A: {"kind": "energy_detection", "A": A},
                                  st.floats(0.5, 2.0)),
    "mimo_imperfect_csi": st.builds(
        lambda A, nt, s2: {"kind": "mimo_imperfect_csi", "A": A, "nt": nt, "sigma2": s2},
        peak, st.integers(1, 2), st.floats(0.05, 0.5)),
    "noncoherent": st.builds(lambda A, s2: {"kind": "noncoherent", "A": A, "sigma2": s2},
                             peak, st.floats(0.1, 2.0)),
    "poisson": st.builds(
        lambda A, mu: {"kind": "poisson", "A": A, "h": {"values": [0.5, 1.0], "probs": [0.5, 0.5]},
                       "mu": {"values": [mu], "probs": [1.0]}},
        peak, st.floats(0.1, 1.0)),
    "dithered_onebit": st.builds(
        lambda A, d: {"kind": "dithered_onebit", "A": A, "points": [-d, 0.0, d]},
        peak, st.floats(0.1, 1.0)),
}
per_kind = pytest.mark.parametrize("kind", sorted(KINDS))


def _cost_span(channel):
    lo, hi = channel.param_space.profile_bounds
    return max(lo * lo, hi * hi)


@per_kind
@SETTINGS
@given(data=st.data(), bits=st.floats(0.0, 40.0), gap=st.floats(0.05, 1.0))
def test_mean_cost_strictly_decreasing(kind, data, bits, gap):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    lam = bits / _cost_span(channel)
    m1 = fc.average_cost(channel, lam)
    m2 = fc.average_cost(channel, lam + gap * (lam + 0.1))
    assert m2 < m1


@per_kind
@SETTINGS
@given(data=st.data(), bits=st.floats(0.0, 40.0), gap=st.floats(0.05, 1.0))
def test_log_jf_convex(kind, data, bits, gap):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    lam = bits / _cost_span(channel)
    step = gap * (lam + 0.1)
    lo, mid, hi = (math.log2(fc.jeffreys_factor(channel, x)) for x in
                   (lam, lam + step, lam + 2.0 * step))
    assert mid <= 0.5 * (lo + hi) + 1e-11 * (1.0 + abs(mid))


@per_kind
@SETTINGS
@given(data=st.data(), bits=st.floats(0.0, 40.0), frac=st.floats(0.0, 1.0))
def test_inverse_cdf_undoes_cdf(kind, data, bits, frac):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    prior = fc.tilted_prior(channel, bits / _cost_span(channel))
    width = prior.hi - prior.lo
    theta = prior.lo + frac * width
    # the round trip is well conditioned only where the density is not tiny
    assume(float(prior.density(theta)) * width > 1e-6)
    back = fc.prior_cdf_inverse(prior, fc.prior_cdf(prior, theta))
    assert abs(back - theta) <= 1e-9 * width


@per_kind
@SETTINGS
@given(data=st.data(), bits=st.floats(0.0, 40.0))
def test_prior_integrates_to_one(kind, data, bits):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    prior = fc.tilted_prior(channel, bits / _cost_span(channel))
    total, _ = fc.integrate_interval(prior.density, prior.lo, prior.hi)
    assert abs(total - 1.0) <= 1e-9


@per_kind
@SETTINGS
@given(data=st.data(), others=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4),
       bits=st.floats(0.0, 60.0))
def test_jf_independent_of_call_history(kind, data, others, bits):
    record = data.draw(KINDS[kind])
    fresh = fc.channel_from_json(record)
    used = fc.channel_from_json(record)
    span = _cost_span(fresh)
    for b in others:
        fc.jeffreys_factor(used, b / span)
    lam = bits / span
    assert fc.jeffreys_factor(used, lam) == fc.jeffreys_factor(fresh, lam)
