"""Bin-quantized receivers: approximate log-likelihood and the information binning loses.

Outputs are folded into L uniform interior bins on [-r, r] plus one
overflow bin for |y| > r (bin index 0); ``Quantizer1D(r, L)`` checks r
and L, in one place.  This receiver is the ADC of ``channels`` with its
cuts at the L + 1 bin edges: the channel's ``cell_mass_dtheta`` gives
the cells (-inf, -r], the L bins and (r, inf), and the two tail cells
merge into the overflow bin.  The per-bin type, ``TypeIndex``, drives a
log-likelihood whose cost is O(L) regardless of the array size, and the
information lost to binning is tracked by

    e_L = integral over Theta of ln( J(theta) / J_L(theta) ) dtheta,

the log ratio of the full to the binned Fisher information over the
parameter space.  It is not the capacity loss, nor proportional to it:
on AWGN with A = 3 and P = 2, e_L over the capacity loss goes from 8.3
at L = 8 to 14.5 at L = 1024.  The chain rule for Fisher information
guarantees J_L <= J pointwise and that nested refinements never hurt.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import _pmf_fisher
from .errors import DomainError, ValidationError, _count, _real, _reals
from .quad import _midpoints
from .specfun import _scalar

_SLOPE_FLOOR = 1e-15  # _fit_loglog_slope drops e_L values below this (underflowed)
_EL_CHUNK = 64  # e_L grid points per quantized_fisher call: a (64, L+1) cell block bounds memory


@dataclass(frozen=True)
class Quantizer1D:
    """L uniform interior bins of width 2r/L on [-r, r]; bin 0 collects |y| > r."""

    r: float
    L: int

    def __post_init__(self):
        object.__setattr__(self, "r", _real(self.r, "Quantizer1D: r", 0.0))
        object.__setattr__(self, "L", _count(self.L, "Quantizer1D: L", 1))

    @property
    def edges(self):
        """The L + 1 bin edges from -r to r, a float array: the cut points of the binned receiver."""
        return np.linspace(-self.r, self.r, self.L + 1)

    @property
    def num_cells(self):
        return self.L + 1


@dataclass(frozen=True)
class TypeIndex:
    """Per-bin output counts; the sufficient statistic of an i.i.d. block."""

    counts: tuple

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.size == 0 or np.any(c < 0) or not np.issubdtype(c.dtype, np.integer):
            raise ValidationError("TypeIndex: counts must be nonnegative integers")
        object.__setattr__(self, "counts", tuple(c.tolist()))


def build_quantizer(r, L):
    """Uniform quantizer: L interior bins of width 2r/L plus the overflow bin."""
    return Quantizer1D(r, L)


def _merge_tails(cells):
    # (-inf, -r], the L bins, (r, inf) -> overflow bin, the L bins
    return np.concatenate([(cells[..., -1] + cells[..., 0])[..., None], cells[..., 1:-1]], axis=-1)


def _bin_probs_and_dtheta(channel, q, theta):
    """Bin probabilities p_l(theta) and derivatives, overflow first.

    One ``cell_mass_dtheta`` call on the bin edges, tails merged.
    Shapes are ``theta.shape + (L+1,)``; probabilities sum to one and
    the derivatives to zero.
    """
    if channel.cell_mass_dtheta is None:
        raise TypeError(f"receiver_quant: channel {channel.kind!r} has no closed-form cell masses")
    p, dp = channel.cell_mass_dtheta(theta, q.edges)
    return _merge_tails(p), _merge_tails(dp)


def quantized_fisher(channel, q, theta):
    """Fisher information of the binned output, sum of (dp)^2 / p over cells."""
    return _scalar(_pmf_fisher(*_bin_probs_and_dtheta(channel, q, theta)))


def capacity_loss_eL(channel, q, grid_size=1025):
    """Integrated log Fisher ratio over Theta on a midpoint grid.

    Returns +inf when the binned Fisher information vanishes somewhere
    on the grid (infinite loss), never raises for that case.
    """
    lo, hi = channel.param_space.profile_bounds
    grid = _midpoints(lo, hi, _count(grid_size, "capacity_loss_eL: grid_size", 1))
    j_full = np.asarray(channel.fisher(grid), dtype=float)
    j_bin = np.concatenate([quantized_fisher(channel, q, grid[i:i + _EL_CHUNK])
                            for i in range(0, grid.size, _EL_CHUNK)])
    if np.any(j_bin <= 0.0):
        return math.inf
    vals = np.log(j_full / j_bin)
    return float(vals.mean() * (hi - lo))


def type_from_samples(q, samples):
    """Bin a sample vector into the L+1 cells of the quantizer."""
    y = _reals(samples, "type_from_samples: samples")
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("type_from_samples: samples must be a nonempty 1-D array")
    # bin l >= 1 is (edge l-1, edge l], with -r in bin 1
    idx = np.clip(np.searchsorted(q.edges, y), 1, q.L)
    idx[np.abs(y) > q.r] = 0
    return TypeIndex(np.bincount(idx, minlength=q.num_cells))


def exact_loglik(channel, samples, theta):
    """Sum of per-antenna log densities at theta; cost grows with n_r."""
    if channel.output_logdensity_dtheta is None:
        raise TypeError(f"exact_loglik: channel {channel.kind!r} has no scalar log-density")
    y = _reals(samples, "exact_loglik: samples")
    logp, _ = channel.output_logdensity_dtheta(y, _real(theta, "exact_loglik: theta"))
    return float(np.sum(logp))


def approx_loglik(channel, q, type_index, theta):
    """n_r * sum_l pi(l) ln p(l | theta); O(L) regardless of n_r.

    theta is a scalar or an array, and the result has its shape; each
    value is the same float as the scalar call at that theta.  A value
    is -inf (a sentinel, not an exception) when some observed cell has
    zero probability under that theta.
    """
    counts = np.asarray(type_index.counts, dtype=float)
    if counts.size != q.num_cells:
        raise ValidationError("approx_loglik: type length must equal L + 1")
    n_r = counts.sum()
    if n_r <= 0:
        raise ValidationError("approx_loglik: empty type")
    p, _ = _bin_probs_and_dtheta(channel, q, theta)
    observed = counts > 0
    with np.errstate(divide="ignore"):  # log 0 = -inf, times a positive count stays -inf
        return _scalar((np.log(p[..., observed]) * counts[observed]).sum(axis=-1))


def ml_detect(channel, q, type_index, constellation):
    """Index of the constellation point maximizing the binned log-likelihood.

    The first argmax of ``approx_loglik`` over the points: ties break
    toward the smaller index, and if every candidate scores -inf,
    index 0 is returned.
    """
    points = getattr(constellation, "points", constellation)  # the channel checks each point
    if np.ndim(points) != 1 or np.size(points) == 0:
        raise ValidationError("ml_detect: constellation must hold scalar points")
    return int(np.argmax(approx_loglik(channel, q, type_index, points)))


def _fit_loglog_slope(L_values, e_values):
    """Least-squares slope of ln e against ln L (each L >= 1, two distinct), dropping underflowed points."""
    L = _reals(L_values, "fit_loglog_slope: L_values", 1.0)
    e = _reals(e_values, "fit_loglog_slope: e_values")
    if L.ndim != 1 or L.shape != e.shape:
        raise DomainError("fit_loglog_slope: L_values and e_values must be matching 1-D sequences")
    keep = e >= _SLOPE_FLOOR
    if not np.all(keep):
        warnings.warn(
            f"fit_loglog_slope: dropped {int((~keep).sum())} point(s) below {_SLOPE_FLOOR:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    L, e = L[keep], e[keep]
    if np.unique(L).size < 2:
        raise DomainError("fit_loglog_slope: fewer than two distinct usable L values")
    slope, _ = np.polyfit(np.log(L), np.log(e), 1)
    return float(slope)


@dataclass(frozen=True)
class ScalingResult:
    L_values: tuple
    e_values: tuple
    slope: float


def scaling_study(channel, r_schedule, L_list):
    """e_L over a geometric ladder of bin counts, with its log-log slope.

    ``r_schedule`` maps L to the overflow radius; for Gaussian tails
    r(L) = 3 + sqrt(ln L) balances overflow mass against bin width.
    """
    L = [_count(x, "scaling_study: L", 1) for x in L_list]
    if len(L) < 4:
        raise ValidationError("scaling_study: need at least 4 bin counts")
    ratios = [L[i + 1] / L[i] for i in range(len(L) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 for r in ratios) or ratios[0] == 1.0:
        raise ValidationError("scaling_study: L_list must be geometric with a ratio other than 1")
    es = []
    for l in L:
        q = build_quantizer(r_schedule(l), l)
        es.append(capacity_loss_eL(channel, q))
    slope = _fit_loglog_slope(L, es)
    return ScalingResult(tuple(L), tuple(es), slope)


def default_radius_schedule(L):
    """Overflow radius 3 + sqrt(ln L) for Gaussian-tailed outputs."""
    return 3.0 + math.sqrt(math.log(L))
