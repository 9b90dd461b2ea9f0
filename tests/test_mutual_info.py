import math

import numpy as np
import pytest
from scipy.special import gammaln

import fishercap as fc
from fishercap.errors import BudgetError, DomainError, ValidationError


@pytest.fixture(scope="module")
def onebit():
    return fc.quantized_awgn_channel(2.0, [0.0])


@pytest.fixture(scope="module")
def pm_one():
    return fc.DiscreteInput(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def mi_binomial_oracle(p_hi, weights, n_r):
    """Independent binomial-count MI for binary-output channels, in bits."""
    k = np.arange(n_r + 1)
    logbin = gammaln(n_r + 1) - gammaln(k + 1) - gammaln(n_r - k + 1)
    ll = np.stack([logbin + k * math.log(p) + (n_r - k) * math.log1p(-p) for p in p_hi])
    lmix = np.logaddexp.reduce(ll + np.log(weights)[:, None], axis=0)
    p_cond = np.exp(ll)
    return float((weights[:, None] * p_cond * (ll - lmix[None, :])).sum()) / math.log(2.0)


def test_single_antenna_is_binary_channel(onebit, pm_one):
    _, q1 = fc.gauss_phi_q(1.0)
    hb = -q1 * math.log2(q1) - (1 - q1) * math.log2(1 - q1)
    assert fc.mi_finite_output(onebit, pm_one, 1) == pytest.approx(1.0 - hb, rel=1e-12)


def test_single_point_input_zero_bits(onebit):
    single = fc.DiscreteInput(np.array([0.3]), np.array([1.0]))
    for n_r in [1, 7, 50]:
        assert fc.mi_finite_output(onebit, single, n_r) == 0.0


def test_mi_nondecreasing_in_antennas(onebit, pm_one):
    mis = [fc.mi_finite_output(onebit, pm_one, n) for n in [1, 2, 4, 8]]
    assert all(b >= a for a, b in zip(mis, mis[1:]))
    assert mis[-1] > 0.9  # approaches the 1-bit ceiling
    assert all(m <= 1.0 + 1e-12 for m in mis)


def test_matches_independent_binomial_path(onebit, pm_one):
    p_hi = np.array([float(fc.gauss_phi_q(-x)[1]) for x in pm_one.points])
    for n_r in [1, 5, 16, 100]:
        want = mi_binomial_oracle(p_hi, pm_one.probs, n_r)
        assert fc.mi_finite_output(onebit, pm_one, n_r) == pytest.approx(want, abs=1e-12)


def test_data_processing_in_antenna_count(onebit):
    d = fc.DiscreteInput(np.array([-1.5, 0.2, 1.0]), np.array([0.3, 0.3, 0.4]))
    for k in [1, 3, 10]:
        assert (fc.mi_finite_output(onebit, d, 2 * k)
                >= fc.mi_finite_output(onebit, d, k) - 1e-12)


def test_mi_bounded_by_input_entropy(onebit):
    d = fc.DiscreteInput(np.linspace(-2, 2, 5), np.full(5, 0.2))
    assert fc.mi_finite_output(onebit, d, 200) <= math.log2(5)


def test_relabeling_outputs_invariant():
    pmf = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    w = np.array([0.4, 0.6])
    perm = [2, 0, 1]
    a = fc.mi_from_pmf_matrix(pmf, w, 6)
    b = fc.mi_from_pmf_matrix(pmf[:, perm], w, 6)
    assert a == pytest.approx(b, abs=1e-13)


def test_prior_grid_single_point(onebit):
    prior = fc.tilted_prior(onebit, 0.0)
    assert fc.mi_finite_output(onebit, fc.discretize_prior(prior, 1), 10) == 0.0


def test_discretize_prior_needs_an_integer(onebit):
    # a grid size of 2.5 gave the points [-1.2, 0.4, 2.0], the last one on the upper bound
    prior = fc.tilted_prior(onebit, 0.0)
    with pytest.raises(DomainError):
        fc.discretize_prior(prior, 2.5)
    assert fc.discretize_prior(prior, np.int64(3)).points.tolist() == pytest.approx([-4 / 3, 0.0, 4 / 3])


def test_prior_grid_smoke_envelope():
    channel = fc.quantized_awgn_channel(2.0, [0.0])
    P = 4.0 / 9.0
    s = fc.solve_lambda_star(channel, P)
    prior = fc.tilted_prior(channel, s.lambda_star, P)
    mi = fc.mi_finite_output(channel, fc.discretize_prior(prior, 257), 64)
    assert 0.0 < mi < s.capacity_fn(64) + 0.5


def test_budget_error(onebit):
    d = fc.DiscreteInput(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(BudgetError):
        fc.mi_finite_output(onebit, d, 10 ** 8)


def test_input_validation(onebit):
    with pytest.raises(ValidationError):
        fc.DiscreteInput(np.array([0.0, 1.0]), np.array([0.7, 0.7]))
    with pytest.raises(DomainError):
        fc.mi_finite_output(onebit, fc.DiscreteInput(np.array([0.0]), np.array([1.0])), 0)
    with pytest.raises(TypeError):
        fc.mi_finite_output(fc.awgn_channel(1.0),
                            fc.DiscreteInput(np.array([0.0]), np.array([1.0])), 2)


@pytest.mark.parametrize("n_r", [0, -1])
def test_ba_needs_an_antenna(onebit, n_r):
    # without the check, BA returned uniform weights and 0.0 bits
    with pytest.raises(DomainError):
        fc.blahut_arimoto(onebit, [-1.0, 1.0], n_r)


def test_type_index_validation():
    t = fc.TypeIndex((3, 0, 2))
    assert t.counts == (3, 0, 2)
    with pytest.raises(ValidationError):
        fc.TypeIndex((1, -2))
    with pytest.raises(ValidationError):
        fc.TypeIndex((0.5, 0.5))


# --- Blahut-Arimoto ----------------------------------------------------------

def test_ba_symmetric_fixed_point(onebit):
    dist, bits = fc.blahut_arimoto(onebit, np.array([-1.0, 1.0]), 8)
    assert np.allclose(dist.probs, 0.5, atol=1e-9)
    uniform = fc.mi_finite_output(onebit, fc.DiscreteInput(np.array([-1.0, 1.0]),
                                                           np.array([0.5, 0.5])), 8)
    assert bits == pytest.approx(uniform, abs=1e-9)


def test_ba_dominates_uniform(onebit):
    channel = fc.quantized_awgn_channel(2.0, [0.0])
    c = fc.jeffreys_constellation(channel, 1.0, 16)
    uniform = fc.mi_finite_output(channel, c, 25)
    _, bits = fc.blahut_arimoto(channel, c.points, 25)
    assert bits >= uniform - 1e-9


def test_ba_single_point(onebit):
    dist, bits = fc.blahut_arimoto(onebit, np.array([0.4]), 10)
    assert dist.probs[0] == 1.0
    assert bits == pytest.approx(0.0, abs=1e-12)


def test_ba_gap_monotone(onebit):
    _, _, info = fc.blahut_arimoto(onebit, np.linspace(-2, 2, 9), 12, tol=1e-11,
                                   full_output=True)
    gaps = info["gaps_bits"]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


# --- Gaussian sufficient statistic -------------------------------------------

def test_gaussian_sufficient_single_point():
    assert fc.mi_gaussian_sufficient(
        fc.DiscreteInput(np.array([0.7]), np.array([1.0])), 100) == 0.0


def test_gaussian_sufficient_matches_monte_carlo(pm_one):
    mi = fc.mi_gaussian_sufficient(pm_one, 1)
    rng = np.random.default_rng(5)
    n = 10 ** 7
    th = rng.choice([-1.0, 1.0], size=n)
    y = th + rng.normal(size=n)
    lp = -0.5 * (y - th) ** 2
    mix = 0.5 * np.exp(-0.5 * (y - 1.0) ** 2) + 0.5 * np.exp(-0.5 * (y + 1.0) ** 2)
    vals = (lp - np.log(mix)) / math.log(2.0)
    mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
    assert abs(mi - mc) < 3.0 * se


def test_gaussian_sufficient_uniform_gap_shrinks():
    pts = np.linspace(-1.0, 1.0, 513)
    d = fc.DiscreteInput(pts, np.full(513, 1.0 / 513.0))
    gaps = []
    for n_r in [100, 1000, 10000]:
        cap = 0.5 * math.log2(2.0 * n_r / (math.pi * math.e))
        gaps.append(abs(fc.mi_gaussian_sufficient(d, n_r) - cap))
    assert gaps[0] > gaps[1] > gaps[2]


def test_single_outcome_alphabet_zero_bits():
    pmf = np.array([[1.0], [1.0]])
    assert fc.mi_from_pmf_matrix(pmf, np.array([0.5, 0.5]), 10) == 0.0


def test_three_output_matches_direct_enumeration():
    # small enough to enumerate raw output strings directly
    pmf = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.25, 0.5, 0.25]])
    w = np.array([0.2, 0.5, 0.3])
    n_r = 4
    from itertools import product

    total = 0.0
    for outcome in product(range(3), repeat=n_r):
        p_cond = np.array([np.prod([pmf[x, o] for o in outcome]) for x in range(3)])
        mix = float(w @ p_cond)
        for x in range(3):
            if p_cond[x] > 0:
                total += w[x] * p_cond[x] * math.log2(p_cond[x] / mix)
    assert fc.mi_from_pmf_matrix(pmf, w, n_r) == pytest.approx(total, abs=1e-12)
