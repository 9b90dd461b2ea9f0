"""Fisher information rate for stationary correlated Gaussian noise.

For y_i = theta + z_i with zero-mean stationary Gaussian noise of
autocovariance gamma(k), the n-output Fisher information is
(1/n) 1^T Sigma_n^{-1} 1 with Sigma_n = [gamma(j - k)]; as n grows it
converges to 1 / sum_k gamma(k), the reciprocal of the spectral density
at frequency zero (times 2 pi).  Because the limit is constant in
theta, the tilted prior is untouched by the correlation; only the
capacity offset moves.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import CHANNEL_BUILDERS, _from_record, _interval_channel
from .errors import DomainError, ValidationError, _count, _real

_MAX_TERMS = 10 ** 6  # terms of the numerical sum in fisher_rate_limit


@dataclass(frozen=True, eq=False)
class Autocovariance:
    """Symmetric summable autocovariance gamma(k); series_sum = sum_k gamma(k).

    ``record`` is the ``autocovariance_from_json`` record it was built
    from, when it has one.
    """

    gamma: callable
    series_sum: float | None = None
    record: dict | None = None

    def __post_init__(self):
        if self.gamma(0) <= 0:
            raise ValidationError("Autocovariance: gamma(0) must be positive")


def white_noise_autocovariance(variance=1.0):
    v = _real(variance, "white_noise_autocovariance: variance", 0.0)
    return Autocovariance(gamma=lambda k: v if k == 0 else 0.0, series_sum=v,
                          record={"kind": "white", "variance": v})


def ar1_autocovariance(rho, variance=1.0):
    """Geometric autocovariance gamma(k) = variance * rho^|k|."""
    rho = _real(rho, "ar1_autocovariance: rho", -1.0, 1.0)
    v = _real(variance, "ar1_autocovariance: variance", 0.0)
    return Autocovariance(
        gamma=lambda k: v * rho ** abs(k),
        series_sum=v * (1.0 + rho) / (1.0 - rho),
        record={"kind": "ar1", "rho": rho, "variance": v},
    )


def fisher_rate_finite(acov, n):
    """(1/n) 1^T Sigma_n^{-1} 1 by the Levinson-Durbin recursion, in O(n^2) with no n x n matrix.

    The order-k prediction-error filter a_k = (1, -phi_k1, ..., -phi_kk) of
    the noise, with error variance e_k, factors the inverse as
    Sigma_n^{-1} = sum_{k<n} a_k a_k^T / e_k (each a_k padded to length n),
    so 1^T Sigma_n^{-1} 1 = sum_k (1^T a_k)^2 / e_k.  The recursion gives
    1^T a_k = prod_{m<=k} (1 - kappa_m) and e_k = e_{k-1} (1 - kappa_k^2)
    from the reflection coefficients kappa_k; Sigma_n is positive definite
    iff every e_k > 0.
    """
    n = _count(n, "fisher_rate_finite: n", 1)
    return _rate(_levinson_terms(acov, n), n)


def _levinson_terms(acov, n):
    """The terms (1^T a_k)^2 / e_k, k < n, up to the first e_k <= 0; term k does not depend on n."""
    gamma = np.array([acov.gamma(k) for k in range(n)], dtype=float)
    phi = np.zeros(n)  # phi[:k] = phi_k1..phi_kk
    err = gamma[0]
    ones_a = 1.0  # 1^T a_k
    terms = np.empty(n)
    terms[0] = 1.0 / err
    for k in range(1, n):
        prev = phi[:k - 1]
        kappa = (gamma[k] - prev @ gamma[k - 1:0:-1]) / err
        phi[:k - 1] = prev - kappa * prev[::-1]
        phi[k - 1] = kappa
        err *= (1.0 - kappa) * (1.0 + kappa)
        if not err > 0.0:
            return terms[:k]
        ones_a *= 1.0 - kappa
        terms[k] = ones_a * ones_a / err
    return terms


def _rate(terms, n):
    """fisher_rate_finite at n from the ``_levinson_terms`` of an order >= n."""
    if terms.size < n:
        raise DomainError(f"fisher_rate_finite: Toeplitz matrix not PD at n={n}")
    return math.fsum(terms[:n]) / n


def fisher_rate_limit(acov):
    """Limit 1 / sum_k gamma(k), summed numerically when no closed form is known."""
    if acov.series_sum is not None:
        total = float(acov.series_sum)
    else:
        total = float(acov.gamma(0))
        converged = 0
        for k in range(1, _MAX_TERMS + 1):
            term = 2.0 * float(acov.gamma(k))
            total += term
            if abs(term) < 1e-15 * max(abs(total), 1.0):
                converged += 1
                if converged >= 8:
                    break
            else:
                converged = 0
        else:
            raise DomainError("fisher_rate_limit: autocovariance does not appear summable")
    if not total > 0:
        raise DomainError("fisher_rate_limit: sum of gamma must be positive")
    return 1.0 / total


def correlated_awgn_channel(peak, acov):
    """Effective per-antenna channel once the noise correlation is folded in.

    Fisher information is the (theta-independent) rate limit, so the
    tilted prior coincides with the white-noise one while the capacity
    offset tracks the correlation.  ``params`` carry ``acov.record``, so
    ``channel_from_json(channel.params)`` rebuilds the channel.
    """
    A = _real(peak, "correlated_awgn_channel: peak", 0.0, error=ValidationError)
    rate = fisher_rate_limit(acov)
    return _interval_channel("correlated_awgn", A, -A, lambda t: np.full_like(t, rate),
                             {"acov": acov.record})


_ACOV_BUILDERS = {  # kind -> (fields, builder), as channels.CHANNEL_BUILDERS
    "white": (("variance?",), lambda r: white_noise_autocovariance(r.get("variance", 1.0))),
    "ar1": (("rho", "variance?"), lambda r: ar1_autocovariance(r["rho"], r.get("variance", 1.0))),
}


def autocovariance_from_json(record):
    """Parse {"kind": "white"|"ar1", ...} (dict or JSON string) into an Autocovariance."""
    return _from_record(_ACOV_BUILDERS, record, "autocovariance_from_json")


CHANNEL_BUILDERS["correlated_awgn"] = (("A", "acov"), lambda r: correlated_awgn_channel(
    r["A"], autocovariance_from_json(r["acov"])))
