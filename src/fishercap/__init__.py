"""Large-antenna-array capacities from per-antenna Fisher information.

The library computes asymptotic capacities and the tilted Jeffreys
priors that achieve them, designs practical constellations from the
prior's inverse cdf, evaluates exact mutual information through the
multinomial type statistic, and quantifies the capacity loss of
bin-quantized receivers.
"""

from .channels import (
    ChannelSpec,
    DiscreteInput,
    ParameterSpace,
    awgn_channel,
    channel_from_json,
    clipped_awgn_channel,
    dithered_onebit_channel,
    energy_detection_channel,
    mimo_imperfect_csi_channel,
    noncoherent_channel,
    poisson_channel,
    quantized_awgn_channel,
    truncated_awgn_channel,
)
from .constellation import (
    PolyDensity,
    approx_jeffreys_constellation,
    fit_poly_density,
    jeffreys_constellation,
    pam_constellation,
    poly_cdf,
    poly_cdf_inverse,
    radial_constellation_isotropic,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DegenerateChannelError,
    DomainError,
    FisherCapError,
    PositivityError,
    RangeError,
    ToleranceError,
    UnboundedTiltError,
    ValidationError,
)
from .jeffreys import (
    JeffreysSolution,
    TiltedPrior,
    average_cost,
    jeffreys_factor,
    prior_cdf,
    prior_cdf_inverse,
    solve_lambda_star,
    tilted_prior,
)
from .mutual_info import (
    TypeIndex,
    blahut_arimoto,
    discretize_prior,
    mi_finite_output,
    mi_from_pmf_matrix,
    mi_gaussian_sufficient,
)
from .noniid import (
    Autocovariance,
    ar1_autocovariance,
    correlated_awgn_channel,
    fisher_rate_finite,
    fisher_rate_limit,
    white_noise_autocovariance,
)
from .quad import integrate_interval
from .receiver_quant import (
    Quantizer1D,
    ScalingResult,
    approx_loglik,
    bin_probs_and_dtheta,
    build_quantizer,
    capacity_loss_eL,
    default_radius_schedule,
    exact_loglik,
    fit_loglog_slope,
    ml_detect,
    quantized_fisher,
    scaling_study,
    type_from_samples,
)
from .specfun import (
    bessel_i01_scaled,
    exp_integral_e1,
    gauss_mass,
    gauss_phi_q,
    log_gamma,
)

__version__ = "0.1.0"
