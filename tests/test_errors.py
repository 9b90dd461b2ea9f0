"""Invalid scalar and vector inputs raise DomainError or ValidationError, never a wrong answer."""

import math

import numpy as np
import pytest

import fishercap as fc
from fishercap import channels as ch
from fishercap import receiver_quant as rq
from fishercap.constellation import BarrierObjective
from fishercap.errors import DomainError, ValidationError, _count, _probabilities, _real, _reals


def _onebit():
    return fc.quantized_awgn_channel(2.0, [0.0])


def _two_points():
    return fc.DiscreteInput(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def _prior():
    return fc.tilted_prior(fc.awgn_channel(1.0), 0.0)


def _poly():
    return fc.PolyDensity(np.array([0.5]), (-1.0, 1.0))


def _quantizer():
    return fc.build_quantizer(4.0, 8)


def _vector_points():
    return fc.DiscreteInput([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])


# Each call is refused.  The calls up to "poly_density_support_string" once returned a value
# (a NaN, a truncated count, a string read as a number) or raised a bare TypeError or an
# exit-2 RangeError or ConvergenceError; the rest reach refusals that no other test reaches.
INVALID_CALLS = {
    "clip_inf": lambda: ch.clipped_awgn_channel(1.0, math.inf),
    "peak_string": lambda: fc.awgn_channel("2"),
    "build_quantizer_L_2.5": lambda: fc.build_quantizer(1.0, 2.5),
    "quantizer_L_2.5": lambda: fc.Quantizer1D(1.0, 2.5),
    "fisher_rate_n_2.5": lambda: fc.fisher_rate_finite(fc.ar1_autocovariance(0.5), 2.5),
    "mi_n_r_2.5": lambda: fc.mi_finite_output(_onebit(), _two_points(), 2.5),
    "mi_n_r_bool": lambda: fc.mi_finite_output(_onebit(), _two_points(), True),
    "mi_nan_weight": lambda: fc.mi_from_pmf_matrix([[0.5, 0.5], [0.1, 0.9]], [math.nan, 1.0], 3),
    "mi_nan_pmf_entry": lambda: fc.mi_from_pmf_matrix([[math.nan, 0.5], [0.1, 0.9]], [0.5, 0.5], 3),
    "pam_P_nan": lambda: fc.pam_constellation(fc.awgn_channel(1.0), math.nan, 4),
    "mimo_nt_2.5": lambda: ch.mimo_imperfect_csi_channel(1.0, 2.5, 0.1),
    "fit_degree_2.5": lambda: fc.fit_poly_density(fc.awgn_channel(1.0), 0.5, 2.5),
    "discrete_input_nan_prob": lambda: fc.DiscreteInput(np.array([0.0, 1.0]), np.array([math.nan, 1.0])),
    "jf_P_nan": lambda: fc.tilted_prior(fc.awgn_channel(1.0), 0.0).jf(math.nan),
    "thresholds_string": lambda: fc.channel_from_json(
        {"kind": "quantized_awgn", "A": 1, "thresholds": ["0"]}),
    "thresholds_bool": lambda: fc.channel_from_json(
        {"kind": "quantized_awgn", "A": 1, "thresholds": [True, 1.5]}),
    "dither_points_string": lambda: fc.channel_from_json(
        {"kind": "dithered_onebit", "A": 1, "points": ["0", "1"]}),
    "poisson_support_string": lambda: fc.channel_from_json(
        {"kind": "poisson", "A": 1, "h": {"values": ["1"], "probs": [1.0]},
         "mu": {"values": [1.0], "probs": [1.0]}}),
    "prior_cdf_inverse_string": lambda: fc.prior_cdf_inverse(_prior(), "0.5"),
    "prior_cdf_bool": lambda: _prior().cdf(True),
    "poly_cdf_inverse_string": lambda: _poly().inverse("0.25"),
    "quantized_fisher_theta_nan": lambda: fc.quantized_fisher(
        fc.awgn_channel(1.0), fc.build_quantizer(4.0, 8), math.nan),
    "type_from_samples_nan": lambda: fc.type_from_samples(
        fc.build_quantizer(4.0, 8), [math.nan, 0.1]),
    "mimo_fisher_matrix_nan": lambda: ch.mimo_imperfect_csi_channel(1.0, 1, 0.1).fisher([math.nan, 0.0]),
    "discrete_input_nan_point": lambda: fc.DiscreteInput([math.nan, 1.0], [0.5, 0.5]),
    "exact_loglik_theta_nan": lambda: fc.exact_loglik(fc.awgn_channel(1.0), [0.1], math.nan),
    "gauss_mass_nan": lambda: fc.gauss_mass(math.nan, 1.0),
    "quantized_pmf_dtheta_nan": lambda: fc.awgn_channel(1.0).cell_mass_dtheta(math.nan, [0.0]),
    "poly_density_nan_coeff": lambda: fc.PolyDensity(np.array([math.nan]), (-1.0, 1.0)),
    "radial_direction_nan": lambda: fc.radial_constellation_isotropic(
        fc.mimo_imperfect_csi_channel(1.0, 1, 0.1), 0.5, 2, [[math.nan, 0.0]]),
    "loglog_slope_L_nan": lambda: rq._fit_loglog_slope([math.nan, 2, 4, 8], [1, .5, .25, .1]),
    "loglog_slope_L_below_1": lambda: rq._fit_loglog_slope([-1, 2, 4, 8], [1, .5, .25, .1]),
    "prior_density_string": lambda: _prior().density("0.5"),
    "prior_density_bool": lambda: _prior().density(True),
    "prior_cdf_nan": lambda: _prior().cdf(math.nan),
    "prior_inverse_1.5": lambda: _prior().inverse(1.5),
    "prior_inverse_nan": lambda: _prior().inverse(math.nan),
    "poly_pdf_3": lambda: _poly().pdf(3.0),
    "poly_pdf_nan": lambda: _poly().pdf(math.nan),
    "fit_lambda_string": lambda: fc.fit_poly_density(fc.awgn_channel(1.0), "0.5", 4),
    "fit_lambda_bool": lambda: fc.fit_poly_density(fc.awgn_channel(1.0), True, 4),
    "fit_lambda_negative": lambda: fc.fit_poly_density(fc.awgn_channel(1.0), -1.0, 4),
    "fit_lambda_nan": lambda: fc.fit_poly_density(fc.awgn_channel(1.0), math.nan, 4),
    "lag_string": lambda: fc.fisher_rate_finite(
        fc.Autocovariance(lambda k: 1.0 if k == 0 else "0.5", series_sum=2.0), 3),
    "lag_bool": lambda: fc.fisher_rate_finite(
        fc.Autocovariance(lambda k: 1.0 if k == 0 else False, series_sum=2.0), 3),
    "poly_density_support_string": lambda: fc.PolyDensity(np.array([0.5]), ("-1", "1")),
    "parameter_space_unknown_shape": lambda: ch.ParameterSpace(1, "cube", (0.0, 1.0)),
    "parameter_space_ball_from_1": lambda: ch.ParameterSpace(2, "ball", (1.0, 2.0)),
    "parameter_space_bounds_not_a_pair": lambda: ch.ParameterSpace(1, "interval", (0.0, 1.0, 2.0)),
    "parameter_space_bounds_scalar": lambda: ch.ParameterSpace(1, "interval", 1.0),
    "poisson_law_shapes_differ": lambda: fc.poisson_channel(1.0, ([0.5, 1.0], [1.0]), ([1.0], [1.0])),
    "poly_density_support_reversed": lambda: fc.PolyDensity(np.array([0.5]), (1.0, -1.0)),
    "fit_on_a_ball": lambda: fc.fit_poly_density(fc.mimo_imperfect_csi_channel(1.0, 1, 0.1), 0.5, 2),
    "full_coeffs_count": lambda: BarrierObjective(fc.awgn_channel(1.0), 0.5, 2, 1.0).full_coeffs([0.0]),
    "pmf_not_2d": lambda: fc.mi_from_pmf_matrix([0.5, 0.5], [1.0], 3),
    "pmf_row_sum": lambda: fc.mi_from_pmf_matrix([[0.5, 0.6], [0.1, 0.9]], [0.5, 0.5], 3),
    "pmf_weights_misaligned": lambda: fc.mi_from_pmf_matrix([[0.5, 0.5], [0.1, 0.9]], [1.0], 3),
    "mi_vector_points": lambda: fc.mi_finite_output(_onebit(), _vector_points(), 3),
    "mi_gaussian_vector_points": lambda: fc.mi_gaussian_sufficient(_vector_points(), 3),
    "ba_vector_points": lambda: fc.blahut_arimoto(_onebit(), [[-1.0], [1.0]], 3),
    "ba_no_points": lambda: fc.blahut_arimoto(_onebit(), [], 3),
    "rate_limit_sum_0": lambda: fc.fisher_rate_limit(fc.Autocovariance(lambda k: 1.0, series_sum=0.0)),
    "series_sum_string": lambda: fc.Autocovariance(lambda k: 1.0, series_sum="3"),
    "series_sum_nan": lambda: fc.Autocovariance(lambda k: 1.0, series_sum=math.nan),
    "series_sum_inf": lambda: fc.Autocovariance(lambda k: 1.0, series_sum=math.inf),
    "series_sum_0": lambda: fc.Autocovariance(lambda k: 1.0, series_sum=0),
    "series_sum_negative": lambda: fc.Autocovariance(lambda k: 1.0, series_sum=-1.0),
    "gamma_0_nan": lambda: fc.Autocovariance(lambda k: math.nan),
    "gamma_not_callable": lambda: fc.Autocovariance([1.0, 0.5]),
    "type_from_no_samples": lambda: fc.type_from_samples(_quantizer(), []),
    "type_from_2d_samples": lambda: fc.type_from_samples(_quantizer(), [[0.1, 0.2]]),
    "approx_loglik_type_length": lambda: fc.approx_loglik(
        fc.awgn_channel(1.0), _quantizer(), fc.TypeIndex((1, 2)), 0.0),
    "approx_loglik_empty_type": lambda: fc.approx_loglik(
        fc.awgn_channel(1.0), _quantizer(), fc.TypeIndex((0,) * 9), 0.0),
    "ml_detect_no_points": lambda: fc.ml_detect(
        fc.awgn_channel(1.0), _quantizer(), fc.TypeIndex((1,) * 9), []),
    "loglog_slope_shapes_differ": lambda: rq._fit_loglog_slope([2, 4, 8], [1, .5]),
}


@pytest.mark.parametrize("call", INVALID_CALLS.values(), ids=INVALID_CALLS.keys())
def test_invalid_inputs_raise(call):
    with pytest.raises((DomainError, ValidationError)):
        call()


def test_autocovariance_refusals_keep_their_classes():
    # a value that is not a number is malformed; a number out of range lies outside the domain,
    # except gamma(0), whose refusal has always been a ValidationError
    for name, error in (("series_sum_string", ValidationError), ("series_sum_nan", DomainError),
                        ("series_sum_inf", DomainError), ("series_sum_0", DomainError),
                        ("series_sum_negative", DomainError), ("gamma_0_nan", ValidationError),
                        ("gamma_not_callable", ValidationError)):
        with pytest.raises(error, match="^Autocovariance: need a "):
            INVALID_CALLS[name]()


# An array u is checked once, entry by entry, with the classes of a scalar u.
INVALID_ARRAY_U = {
    f"{name}_{label}": (inverse, u, error)
    for name, inverse in (("prior_cdf_inverse", lambda u: fc.prior_cdf_inverse(_prior(), u)),
                          ("poly_cdf_inverse", lambda u: _poly().inverse(u)))
    for label, u, error in (("string_entry", [0.5, "0.5"], ValidationError),
                            ("nan_entry", [0.5, math.nan], DomainError),
                            ("entry_1.2", [[0.5], [1.2]], DomainError))
}


@pytest.mark.parametrize("inverse,u,error", INVALID_ARRAY_U.values(), ids=INVALID_ARRAY_U.keys())
def test_invalid_array_u_raises(inverse, u, error):
    with pytest.raises(error):
        inverse(u)


def test_real_accepts_numbers_and_refuses_strings_and_bools():
    assert _real(np.float32(0.5), "f: x") == 0.5
    assert _real(np.int64(3), "f: x", 0.0) == 3.0
    assert _real(0.0, "f: lambda", 0.0, closed=True) == 0.0
    for bad in ("1", b"1", True, np.True_, None, [1.0]):
        with pytest.raises(ValidationError, match="^f: need a real x"):
            _real(bad, "f: x")
    for bad in (0.0, 1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^f: need a finite x > 0 and < 1"):
            _real(bad, "f: x", 0.0, 1.0)
    with pytest.raises(ValidationError):
        _real(-1.0, "f: x", 0.0, error=ValidationError)


def test_real_closed_bounds_admit_both_ends():
    assert _real(1.0, "f: u", 0.0, 1.0, closed=True) == 1.0
    assert _real(0.0, "f: u", 0.0, 1.0, closed=True) == 0.0
    with pytest.raises(DomainError, match="^f: need a finite u >= 0 and <= 1"):
        _real(1.5, "f: u", 0.0, 1.0, closed=True)


def test_reals_returns_float_arrays_of_any_shape():
    a = np.arange(3)
    assert _reals(a, "f: x").dtype == float and _reals(a, "f: x").tolist() == [0.0, 1.0, 2.0]
    assert _reals([[1, 2.5], (3, np.float32(4))], "f: x").tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert _reals(0.5, "f: x").shape == ()
    assert _reals([0.0, 1.0], "f: x", 0.0, 1.0).tolist() == [0.0, 1.0]  # closed at both ends
    assert _reals([-math.inf, math.inf], "f: x", finite=False).tolist() == [-math.inf, math.inf]
    for bad in ("1", b"1", True, np.array([True]), np.array(["1"]), None, [1.0, None],
                [True, 1.5], [[1.0], [np.True_]], ("0", 1.0), [[1.0], [1.0, 2.0]]):
        with pytest.raises(ValidationError, match="^f: need real x"):
            _reals(bad, "f: x")
    for bad, first in (([0.5, -0.5, -1.0], "-0.5"), (np.array([math.nan, 0.5]), "nan"),
                       ([[0.5], [1.5]], "1.5"), (math.inf, "inf")):  # the first bad entry
        with pytest.raises(DomainError, match=rf"^f: need finite x in \[0, 1\], got {first}$"):
            _reals(bad, "f: x", 0.0, 1.0)
    with pytest.raises(DomainError, match="^f: need non-NaN x, got nan$"):
        _reals([math.inf, math.nan], "f: x", finite=False)
    with pytest.raises(ValidationError):
        _reals([-1.0], "f: x", 0.0, error=ValidationError)


def test_points_and_edges_take_numpy_floats_and_closed_ends():
    prior = _prior()
    assert fc.prior_cdf_inverse(prior, 1) == prior.hi and fc.prior_cdf_inverse(prior, 0) == prior.lo
    assert prior.cdf(np.float64(prior.hi)) == 1.0
    assert _poly().inverse(np.float32(1.0)) == 1.0
    pts = np.array([-0.5, 0.5], dtype=np.float32)
    assert fc.DiscreteInput(pts, [0.5, 0.5]).points.tolist() == [-0.5, 0.5]
    onebit = fc.quantized_awgn_channel(1.0, np.array([0.0], dtype=np.float32))
    assert onebit.output_pmf(np.float64(0.0)).tolist() == [0.5, 0.5]
    assert fc.ml_detect(fc.awgn_channel(1.0), fc.build_quantizer(4.0, 8),
                        fc.TypeIndex((0, 0, 0, 0, 0, 5, 0, 0, 0)), [np.float64(-0.5), 0.5]) == 1
    assert fc.gauss_mass(-math.inf, [0.0, math.inf]).tolist() == [0.5, 1.0]


def test_count_accepts_integer_values_only():
    assert _count(np.int64(3), "f: n", 1) == 3
    assert _count(2.0, "f: n", 1) == 2 and isinstance(_count(2.0, "f: n", 1), int)
    assert _count(0, "f: n", 0) == 0
    for bad in (True, "3", None, np.float64(3.0) + 0j):
        with pytest.raises(ValidationError):
            _count(bad, "f: n", 1)
    for bad in (2.5, math.nan, math.inf, 0):
        with pytest.raises(DomainError, match="^f: need an integer n >= 1"):
            _count(bad, "f: n", 1)


def test_probabilities_need_finite_entries_summing_to_one():
    assert _probabilities([0.25, 0.75], "f: w", 1e-12).tolist() == [0.25, 0.75]
    assert _probabilities(np.array([1], dtype=np.int64), "f: w", 1e-12).dtype == float
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [-0.5, 1.5], [0.5, 0.6], [], [[1.0]], ["a"],
                ["0.5", "0.5"], [True], None, [[0.5], [0.25, 0.25]]):
        with pytest.raises(ValidationError, match="^f: w must be a probability vector"):
            _probabilities(bad, "f: w", 1e-12)


def test_midpoint_grid_takes_an_integer_valued_float():
    awgn = fc.awgn_channel(3.0)
    four = fc.jeffreys_constellation(awgn, 1.0, 4).points.tolist()
    assert fc.jeffreys_constellation(awgn, 1.0, 4.0).points.tolist() == four
