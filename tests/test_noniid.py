import math

import numpy as np
import pytest

import fishercap as fc
from fishercap import noniid
from fishercap.errors import DomainError, ValidationError


def test_white_noise_rate_is_one():
    acov = fc.white_noise_autocovariance()
    for n in [1, 4, 64]:
        assert fc.fisher_rate_finite(acov, n) == pytest.approx(1.0, rel=1e-12)
    assert fc.fisher_rate_limit(acov) == 1.0


def test_single_output_is_reciprocal_variance():
    acov = fc.white_noise_autocovariance(variance=2.5)
    assert fc.fisher_rate_finite(acov, 1) == pytest.approx(1.0 / 2.5, rel=1e-14)


def test_ar_rate_converges_to_third():
    acov = fc.ar1_autocovariance(0.5)
    assert fc.fisher_rate_limit(acov) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert abs(fc.fisher_rate_finite(acov, 4096) - 1.0 / 3.0) < 1e-2


def test_ar_monotone_convergence():
    acov = fc.ar1_autocovariance(0.5)
    limit = fc.fisher_rate_limit(acov)
    errs = [abs(fc.fisher_rate_finite(acov, 2 ** k) - limit) for k in range(6, 13)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_limit_scales_inversely_with_noise():
    base = fc.ar1_autocovariance(0.5)
    scaled = fc.ar1_autocovariance(0.5, variance=3.0)
    assert fc.fisher_rate_limit(scaled) == pytest.approx(fc.fisher_rate_limit(base) / 3.0,
                                                         rel=1e-14)


def test_nonsummable_autocovariance_rejected():
    # the limit is read from series_sum, never summed: an autocovariance without one has none
    acov = fc.Autocovariance(gamma=lambda k: 1.0 / (abs(k) + 1.0))
    with pytest.raises(DomainError, match="^fisher_rate_limit: the autocovariance states no series_sum$"):
        fc.fisher_rate_limit(acov)


def test_correlated_channel_needs_a_record():
    # params must rebuild the channel, so an autocovariance without a record is refused
    acov = fc.Autocovariance(gamma=lambda k: 0.5 ** abs(k), series_sum=3.0)
    with pytest.raises(ValidationError, match="white_noise_autocovariance, ar1_autocovariance or "
                                              "autocovariance_from_json"):
        fc.correlated_awgn_channel(1.0, acov)


def test_constant_autocovariance_not_pd():
    acov = fc.Autocovariance(gamma=lambda k: 1.0, series_sum=None)
    with pytest.raises(DomainError):
        fc.fisher_rate_finite(acov, 16)


def test_indefinite_autocovariance_not_pd():
    # [[1, .9, .2], [.9, 1, .9], [.2, .9, 1]] has a negative eigenvalue; a bare
    # Toeplitz solve would still return a vector here
    gamma = [1.0, 0.9, 0.2]
    acov = fc.Autocovariance(gamma=lambda k: gamma[k])
    assert fc.fisher_rate_finite(acov, 2) == pytest.approx(1.0 / 1.9, rel=1e-14)
    with pytest.raises(DomainError, match="not PD at n=3"):
        fc.fisher_rate_finite(acov, 3)


def test_one_recursion_serves_every_order():
    # the CLI's ladder: terms up to the largest n, then a sum per n, the same bits
    gamma = [1.0, 0.9, 0.2]
    indefinite = fc.Autocovariance(gamma=lambda k: gamma[k])
    for acov, top in ((fc.ar1_autocovariance(0.5), 300), (indefinite, 3)):
        terms = noniid._levinson_terms(acov, top)
        for n in range(1, terms.size + 1):
            assert noniid._rate(terms, n) == fc.fisher_rate_finite(acov, n)
    assert terms.size == 2
    with pytest.raises(DomainError, match="not PD at n=3"):
        noniid._rate(terms, 3)


@pytest.mark.parametrize("rho", [-0.6, 0.3, 0.5, 0.9])
def test_ar1_finite_rate_closed_form(rho):
    # Sigma_n^{-1} of an AR(1) is tridiagonal: row sums (1 - rho) at the two
    # ends and (1 - rho)^2 inside, all over 1 - rho^2
    for n in [2, 7, 4096]:
        want = (2 * (1 - rho) + (n - 2) * (1 - rho) ** 2) / (1 - rho * rho) / n
        got = fc.fisher_rate_finite(fc.ar1_autocovariance(rho), n)
        assert got == pytest.approx(want, rel=1e-14)


def test_tilted_prior_invariant_to_correlation():
    # constant Fisher rate cancels in the prior, whatever the correlation
    white = fc.correlated_awgn_channel(1.0, fc.white_noise_autocovariance())
    correlated = fc.correlated_awgn_channel(1.0, fc.ar1_autocovariance(0.5))
    P = 1.0 / 9.0
    sw = fc.solve_lambda_star(white, P)
    sc = fc.solve_lambda_star(correlated, P)
    assert sw.lambda_star == pytest.approx(sc.lambda_star, rel=1e-9, abs=1e-12)
    pw = fc.tilted_prior(white, sw.lambda_star, P)
    pc = fc.tilted_prior(correlated, sc.lambda_star, P)
    grid = -1.0 + 2.0 * (np.arange(257) + 0.5) / 257
    assert np.max(np.abs(pw.density(grid) - pc.density(grid))) < 1e-12
    # the capacity offset, by contrast, does move with the correlation
    assert sw.jf != pytest.approx(sc.jf, rel=1e-3)


def test_correlated_channel_from_json():
    channel = fc.channel_from_json(
        {"kind": "correlated_awgn", "A": 2.0, "acov": {"kind": "ar1", "rho": 0.5}})
    assert channel.kind == "correlated_awgn" and channel.param_space.profile_bounds == (-2.0, 2.0)
    limit = fc.fisher_rate_limit(fc.ar1_autocovariance(0.5))
    theta = np.linspace(-2.0, 2.0, 5)
    np.testing.assert_allclose(channel.fisher(theta), limit, rtol=1e-15)
    assert channel.fisher(0.3) == pytest.approx(1.0 / 3.0, rel=1e-14)
    with pytest.raises(ValidationError, match="acov"):
        fc.channel_from_json({"kind": "correlated_awgn", "A": 2.0})


def test_autocovariance_json():
    acov = fc.noniid.autocovariance_from_json('{"kind": "ar1", "rho": 0.5}')
    assert fc.fisher_rate_limit(acov) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValidationError):
        fc.noniid.autocovariance_from_json({"kind": "fractal"})


@pytest.mark.parametrize("record", [{"kind": "white"}, {"kind": "ar1", "rho": 0.5}], ids=["white", "ar1"])
def test_autocovariance_field_the_kind_lacks_is_refused(record):
    kind = record["kind"]
    # the optional variance is taken, an extra or misspelt field is not
    acov = fc.noniid.autocovariance_from_json({**record, "variance": 4.0})
    assert fc.noniid.autocovariance_from_json(acov.record).record == acov.record
    for field in ("colour", "varience"):
        with pytest.raises(ValidationError, match=rf"^autocovariance_from_json: kind '{kind}' has "
                                                  rf"no field '{field}' \(its fields: kind, "):
            fc.noniid.autocovariance_from_json({**record, field: 4.0})


def test_validation():
    with pytest.raises(DomainError):
        fc.ar1_autocovariance(1.0)
    with pytest.raises(ValidationError):
        fc.Autocovariance(gamma=lambda k: -1.0)
    with pytest.raises(DomainError):
        fc.fisher_rate_finite(fc.white_noise_autocovariance(), 0)


def test_a_lag_that_is_not_finite_is_named():
    # once reported as "Toeplitz matrix not PD at n=4": a NaN reflection coefficient made the
    # error variance NaN
    nan_lag = fc.Autocovariance(lambda k: 1.0 if k == 0 else math.nan, series_sum=1.0)
    with pytest.raises(DomainError, match=r"^fisher_rate_finite: need a finite gamma\(1\), got nan$"):
        fc.fisher_rate_finite(nan_lag, 4)
    assert fc.fisher_rate_finite(nan_lag, 1) == 1.0  # gamma(1) is not read at n = 1
    # the CLI's ladder reads the lags up to its largest n, through the same check
    gamma = [1.0, 0.5, 0.25]
    late = fc.Autocovariance(lambda k: gamma[k] if k < 3 else math.inf, series_sum=2.5)
    with pytest.raises(DomainError, match=r"^fisher_rate_finite: need a finite gamma\(3\), got inf$"):
        noniid._rates(late, [2, 8])
    assert noniid._rates(late, [3, 1, 2]) == [fc.fisher_rate_finite(late, n) for n in (3, 1, 2)]


def test_a_lag_that_is_not_a_real_is_named():
    # a string or a bool lag was read as a number: False as white noise, True as a singular matrix
    for lag in ("0.5", False, True):
        acov = fc.Autocovariance(lambda k, lag=lag: 1.0 if k == 0 else lag, series_sum=2.0)
        want = rf"^fisher_rate_finite: need a real gamma\(1\), got {lag!r}$"
        with pytest.raises(ValidationError, match=want):
            fc.fisher_rate_finite(acov, 3)


def test_the_ladder_checks_each_n_once_and_matches_one_n_at_a_time():
    acov = fc.ar1_autocovariance(0.5)
    ladder = [64, 1, 300, 2.0]
    assert noniid._rates(acov, ladder) == [fc.fisher_rate_finite(acov, n) for n in ladder]
    assert noniid._rates(acov, []) == []
    for bad, error in ((0, DomainError), (2.5, DomainError), ("3", ValidationError), (True, ValidationError)):
        with pytest.raises(error, match="^fisher_rate_finite: need an integer n >= 1, got "):
            noniid._rates(acov, [4, bad])
