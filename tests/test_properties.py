"""Property tests: invariants of the tilted profile and of the type engine.

Over the channel zoo:

* M(lambda) is strictly decreasing;
* log2 JF(lambda) is convex (it is a log-partition function);
* the inverse cdf undoes the cdf;
* the prior density integrates to one;
* a channel's ``cost``, ``sqrt_det_fisher`` and (on interval spaces)
  ``fisher`` are pointwise: on a batch of theta they give the same bits
  as on each theta alone and on the batch reversed, which the profile
  table relies on when it evaluates the panels of one quadrature step
  in one call;
* a result depends only on (channel, lambda): JF at one tilt is
  bit-identical whether or not other tilts were evaluated first;
* the prior a tilt solve returns is the prior tilted afresh at its
  lambda*, bit for bit: density, cdf and inverse cdf;
* a binned receiver never has more Fisher information than the full
  output: J_L(theta) <= J(theta);
* the one-pass Gaussian tail helpers give the same bits as the
  per-edge ones: Q(a) and Q(-a) from one pass, and the masses of
  consecutive cells from one pass over their edges;
* the binned receiver's bins, one cell-mass call on the shared bin
  edges with the tails merged, give the same bits as the bins built
  one (lo, hi) pair at a time.

Over random small pmf matrices, weights and antenna counts:

* the composition generator lists every type of n_r draws exactly once;
* 0 <= MI <= log2 M, and MI does not decrease with n_r;
* MI is invariant under relabelling the outputs, and under permuting
  the inputs together with their weights;
* Blahut-Arimoto's bits are at least the MI of any fixed weights, and
  equal the MI of the weights it returns.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fishercap as fc
from fishercap import mutual_info, receiver_quant, specfun

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
    back = fc.prior_cdf_inverse(prior, prior.cdf(theta))
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
@given(data=st.data(), fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
def test_channel_callables_are_pointwise(kind, data, fracs):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    lo, hi = channel.param_space.profile_bounds
    theta = lo + (hi - lo) * np.array(fracs)
    names = ["cost", "sqrt_det_fisher"]
    if channel.param_space.shape == "interval":  # a ball's fisher takes one d-vector
        names.append("fisher")
    for name in names:
        fn = getattr(channel, name)
        batch = np.asarray(fn(theta), dtype=float)
        alone = np.concatenate([np.asarray(fn(theta[i:i + 1]), dtype=float)
                                for i in range(theta.size)])
        assert batch.tobytes() == alone.tobytes(), name
        assert batch.tobytes() == np.asarray(fn(theta[::-1]), dtype=float)[::-1].tobytes(), name


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


@per_kind
@SETTINGS
@given(data=st.data(), frac=st.floats(0.01, 1.0))
def test_solution_prior_is_the_fresh_tilt(kind, data, frac):
    record = data.draw(KINDS[kind])
    solved = fc.channel_from_json(record)
    fresh = fc.channel_from_json(record)
    P = frac * _cost_span(solved)
    s = fc.solve_lambda_star(solved, P)
    prior = fc.tilted_prior(fresh, s.lambda_star, P)
    grid = np.linspace(prior.lo, prior.hi, 33)
    assert s.prior.density(grid).tobytes() == prior.density(grid).tobytes()
    for t in grid[1:-1:4]:
        assert s.prior.cdf(t) == prior.cdf(t)
    for u in (1e-3, 0.25, 0.5, 0.9):
        assert fc.prior_cdf_inverse(s.prior, u) == fc.prior_cdf_inverse(prior, u)


@SETTINGS
@given(kind=st.sampled_from(["awgn", "truncated_awgn"]), A=peak, B=st.floats(1.0, 3.0),
       r=st.floats(0.5, 8.0), L=st.integers(1, 64), frac=st.floats(0.0, 1.0))
def test_binned_fisher_below_full(kind, A, B, r, L, frac):
    # B is a field of truncated_awgn only; a record with a field of another kind is refused
    channel = fc.channel_from_json({"kind": kind, "A": A, **({"B": B} if kind == "truncated_awgn" else {})})
    theta = -A + 2.0 * A * frac
    j_full = float(channel.fisher(theta))
    j_bin = fc.quantized_fisher(channel, fc.build_quantizer(r, L), theta)
    assert 0.0 <= j_bin <= j_full * (1.0 + 1e-12)


edge = st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 38.0, -38.0]),
                 st.floats(-38.0, 38.0))
TAIL_SETTINGS = settings(SETTINGS, max_examples=200)  # cheap: cover the special edges well


def _q_raw(a):
    # the per-edge tail Q(a), one erfcx pass per call: the reference for _q_pair
    with np.errstate(invalid="ignore"):
        qa = 0.5 * specfun._erfcx(np.abs(a) / math.sqrt(2.0)) * np.exp(-0.5 * a * a)
    qa = np.where(np.isposinf(np.abs(a)), 0.0, qa)
    return np.where(a >= 0, qa, 1.0 - qa)


@TAIL_SETTINGS
@given(a=st.lists(edge, min_size=1, max_size=8))
def test_q_pair_is_both_tails(a):
    a = np.array(a)
    q, qn = specfun._q_pair(a)
    assert q.tobytes() == _q_raw(a).tobytes()
    assert qn.tobytes() == _q_raw(-a).tobytes()


def _hazard_raw(a):
    # phi/Q at each argument on its own: the erfcx form at a >= 0, phi / (1 - Q(|a|)) below
    upper = 2.0 / (specfun.SQRT_2PI * specfun._erfcx(np.maximum(a, 0.0) / math.sqrt(2.0)))
    lower = specfun._phi_raw(np.minimum(a, 0.0)) / _q_raw(np.minimum(a, 0.0))
    return np.where(a >= 0, upper, lower)


@TAIL_SETTINGS
@given(u=st.lists(st.floats(-38.0, 38.0), min_size=1, max_size=8))
def test_hazard_pair_is_both_hazards(u):
    u = np.array(u)
    _, _, h, h_neg = specfun._gauss_tails(u)
    assert h.tobytes() == _hazard_raw(u).tobytes()
    assert h_neg.tobytes() == _hazard_raw(-u).tobytes()


@TAIL_SETTINGS
@given(edges=st.lists(edge, min_size=2, max_size=8), shift=st.floats(-10.0, 10.0))
def test_cell_mass_is_gauss_mass_of_cells(edges, shift):
    edges = np.sort(np.array(edges))
    assert (specfun._cell_mass(edges).tobytes()
            == specfun.gauss_mass(edges[:-1], edges[1:]).tobytes())
    rows = edges - np.array([[0.0], [shift]])  # one row of cells per theta
    assert (specfun._cell_mass(rows).tobytes()
            == specfun.gauss_mass(rows[:, :-1], rows[:, 1:]).tobytes())


def _pair_mass(lo_edge, hi_edge, theta, B):
    # the mass of each (lo, hi) cell on its own, and its theta-derivative; for a
    # finite B the AWGN cell clipped to [-B, B] and normalized by P(|y| < B)
    if B is not None:
        lo_edge, hi_edge = np.clip(lo_edge, -B, B), np.clip(hi_edge, -B, B)
    lo = np.asarray(lo_edge, dtype=float) - theta
    hi = np.asarray(hi_edge, dtype=float) - theta
    m, dm = specfun.gauss_mass(lo, hi), specfun._phi_raw(lo) - specfun._phi_raw(hi)
    if B is None:
        return m, dm
    z = specfun.gauss_mass(-B - theta, B - theta)
    dz = specfun._phi_raw(-B - theta) - specfun._phi_raw(B - theta)
    return m / z, dm / z - (m / z) * (dz / z)


def _pair_bins(q, theta, B):
    # the reference for bin_probs_and_dtheta: interior bins pair by pair, overflow = (r, inf) + (-inf, -r)
    th = np.asarray(theta, dtype=float)
    edges = np.asarray(q.edges)
    p_in, dp_in = _pair_mass(edges[:-1], edges[1:], th[..., None], B)
    p_hi, dp_hi = _pair_mass(q.r, np.inf, th, B)
    p_lo, dp_lo = _pair_mass(-np.inf, -q.r, th, B)
    return (np.concatenate([np.asarray(p_hi + p_lo)[..., None], p_in], axis=-1),
            np.concatenate([np.asarray(dp_hi + dp_lo)[..., None], dp_in], axis=-1))


@settings(SETTINGS, max_examples=60)
@given(truncated=st.booleans(), A=peak, B=st.floats(1.0, 3.0), r_over_b=st.floats(0.2, 3.0),
       L=st.integers(1, 300), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       scalar=st.booleans())
def test_shared_cut_bins_are_pairwise_bins(truncated, A, B, r_over_b, L, fracs, scalar):
    # r_over_b < 1 puts the overflow radius inside the truncated support, > 1 outside it
    record = {"kind": "truncated_awgn", "A": A, "B": B} if truncated else {"kind": "awgn", "A": A}
    channel = fc.channel_from_json(record)
    q = fc.build_quantizer(B * r_over_b, L)
    theta = -A + 2.0 * A * np.array(fracs)
    if scalar:
        theta = float(theta[0])
    p, dp = receiver_quant._bin_probs_and_dtheta(channel, q, theta)
    want_p, want_dp = _pair_bins(q, theta, B if truncated else None)
    assert p.shape == want_p.shape == np.shape(theta) + (L + 1,)
    assert p.tobytes() == want_p.tobytes() and dp.tobytes() == want_dp.tobytes()


# --- the type engine ---------------------------------------------------------

def _prob_vector(size):
    return st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(
        lambda v: sum(v) > 0.1).map(lambda v: np.asarray(v) / sum(v))


@st.composite
def pmf_and_weights(draw):
    """(pmf, weights): exact zeros are common, so the _LOG_ZERO paths run."""
    m = draw(st.integers(1, 4))
    bins = draw(st.integers(2, 4))
    pmf = np.array([draw(_prob_vector(bins)) for _ in range(m)])
    return pmf, draw(_prob_vector(m))


@SETTINGS
@given(n=st.integers(0, 25), parts=st.integers(1, 5), chunk=st.integers(1, 60))
def test_compositions_listed_once(n, parts, chunk):
    # each block is a view of one buffer, valid until the next is drawn
    blocks = [b.copy() for b in mutual_info._composition_chunks(n, parts, chunk)]
    assert all(b.shape[0] == parts and 0 < b.shape[1] <= chunk for b in blocks)
    types = np.concatenate(blocks, axis=1)
    assert types.shape[1] == math.comb(n + parts - 1, parts - 1)
    assert np.all(types >= 0) and np.all(types.sum(axis=0) == n)
    assert np.unique(types, axis=1).shape[1] == types.shape[1]


@SETTINGS
@given(case=pmf_and_weights(), n_r=st.integers(1, 12))
def test_mi_bounded_and_nondecreasing(case, n_r):
    pmf, w = case
    mi = fc.mi_from_pmf_matrix(pmf, w, n_r)
    assert 0.0 <= mi <= math.log2(pmf.shape[0]) + 1e-12
    assert fc.mi_from_pmf_matrix(pmf, w, n_r + 1) >= mi - 1e-12


@SETTINGS
@given(data=st.data(), case=pmf_and_weights(), n_r=st.integers(1, 10))
def test_mi_invariant_under_relabelling(data, case, n_r):
    pmf, w = case
    mi = fc.mi_from_pmf_matrix(pmf, w, n_r)
    outputs = data.draw(st.permutations(range(pmf.shape[1])))
    inputs = data.draw(st.permutations(range(pmf.shape[0])))
    assert fc.mi_from_pmf_matrix(pmf[:, outputs], w, n_r) == pytest.approx(mi, rel=1e-12, abs=1e-14)
    assert fc.mi_from_pmf_matrix(pmf[inputs], w[inputs], n_r) == pytest.approx(
        mi, rel=1e-12, abs=1e-14)


@SETTINGS
@given(A=peak, thresholds=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
       m=st.integers(1, 5), n_r=st.integers(1, 10), data=st.data())
def test_ba_dominates_fixed_weights(A, thresholds, m, n_r, data):
    channel = fc.quantized_awgn_channel(A, sorted(set(thresholds)))
    # evenly spaced: BA converges slowly when two points nearly coincide
    points = np.linspace(-A, A, m)
    pmf = channel.output_pmf(points)
    dist, bits = fc.blahut_arimoto(channel, points, n_r)
    # the returned bits are the exact MI of the returned weights ...
    assert bits == pytest.approx(fc.mi_from_pmf_matrix(pmf, dist.probs, n_r), rel=1e-11, abs=1e-13)
    # ... and, to within the stopping gap, the capacity over these points
    fixed = data.draw(_prob_vector(m))
    assert bits >= fc.mi_from_pmf_matrix(pmf, fixed, n_r) - 1e-9
