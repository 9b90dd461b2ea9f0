"""Bin-quantized receivers: approximate log-likelihood and its capacity loss.

Outputs are folded into L uniform interior bins on [-r, r] plus one
overflow bin for |y| > r (bin index 0).  The per-bin type then drives a
log-likelihood whose cost is O(L) regardless of the array size, and the
information lost to binning is tracked by

    e_L = integral over Theta of ln( J(theta) / J_L(theta) ) dtheta,

which is proportional to the capacity loss of the binned receiver.  The
chain rule for Fisher information guarantees J_L <= J pointwise and
that nested refinements never hurt.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .mutual_info import TypeIndex

NEG_INF = float("-inf")
_SLOPE_FLOOR = 1e-15  # fit_loglog_slope drops e_L values below this (underflowed)


@dataclass(frozen=True)
class Quantizer1D:
    """Uniform interior bins on [-r, r]; bin 0 collects |y| > r."""

    r: float
    L: int
    edges: tuple

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if not self.r > 0 or self.L < 1:
            raise ValidationError("Quantizer1D: need r > 0 and L >= 1")
        if e.shape != (self.L + 1,) or np.any(np.diff(e) <= 0):
            raise ValidationError("Quantizer1D: edges must be L+1 strictly increasing values")
        if abs(e[0] + self.r) > 1e-12 or abs(e[-1] - self.r) > 1e-12:
            raise ValidationError("Quantizer1D: edges must span [-r, r]")
        width = 2.0 * self.r / self.L
        if np.any(np.abs(np.diff(e) - width) > 1e-9 * max(width, 1.0)):
            raise ValidationError("Quantizer1D: interior bins must have uniform width 2r/L")
        object.__setattr__(self, "edges", tuple(float(x) for x in e))

    @property
    def num_cells(self):
        return self.L + 1


def build_quantizer(r, L):
    """Uniform quantizer: L interior bins of width 2r/L plus the overflow bin."""
    r = float(r)
    L = int(L)
    if not r > 0 or L < 1:
        raise DomainError("build_quantizer: need r > 0 and L >= 1")
    return Quantizer1D(r=r, L=L, edges=tuple(np.linspace(-r, r, L + 1)))


def _require_mass(channel):
    if channel.interval_mass_dtheta is None:
        raise TypeError(
            f"receiver_quant: channel {channel.kind!r} has no closed-form bin masses"
        )
    return channel.interval_mass_dtheta


def bin_probs_and_dtheta(channel, q, theta):
    """Cell probabilities p_l(theta) and derivatives, overflow first.

    Shapes are ``theta.shape + (L+1,)``; probabilities sum to one and
    the derivatives to zero.
    """
    mass = _require_mass(channel)
    th = np.asarray(theta, dtype=float)
    edges = np.asarray(q.edges)
    lo = edges[:-1]
    hi = edges[1:]
    p_in, dp_in = mass(lo, hi, th[..., None])
    p_hi, dp_hi = mass(q.r, np.inf, th)
    p_lo, dp_lo = mass(-np.inf, -q.r, th)
    p = np.concatenate([np.asarray(p_hi + p_lo)[..., None], p_in], axis=-1)
    dp = np.concatenate([np.asarray(dp_hi + dp_lo)[..., None], dp_in], axis=-1)
    return p, dp


def quantized_fisher(channel, q, theta):
    """Fisher information of the binned output, sum of (dp)^2 / p over cells."""
    p, dp = bin_probs_and_dtheta(channel, q, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, dp * dp / np.where(p > 0.0, p, 1.0), 0.0)
    j = terms.sum(axis=-1)
    return float(j) if np.ndim(theta) == 0 else j


def capacity_loss_eL(channel, q, grid_size=1025):
    """Integrated log Fisher ratio over Theta on a midpoint grid.

    Returns +inf when the binned Fisher information vanishes somewhere
    on the grid (infinite loss), never raises for that case.
    """
    lo, hi = channel.param_space.profile_bounds
    grid = lo + (hi - lo) * (np.arange(grid_size) + 0.5) / grid_size
    j_full = np.asarray(channel.fisher(grid), dtype=float)
    j_bin = quantized_fisher(channel, q, grid)
    if np.any(j_bin <= 0.0):
        return math.inf
    vals = np.log(j_full / j_bin)
    return float(vals.mean() * (hi - lo))


def type_from_samples(q, samples):
    """Bin a sample vector into the L+1 cells of the quantizer."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValidationError("type_from_samples: samples must be a nonempty 1-D array")
    edges = np.asarray(q.edges)
    counts = np.zeros(q.num_cells, dtype=np.int64)
    overflow = np.abs(y) > q.r
    counts[0] = int(overflow.sum())
    inner = y[~overflow]
    idx = np.clip(np.searchsorted(edges, inner, side="left"), 1, q.L)
    np.add.at(counts, idx, 1)
    return TypeIndex(tuple(int(c) for c in counts))


def exact_loglik(channel, samples, theta):
    """Sum of per-antenna log densities at theta; cost grows with n_r."""
    if channel.output_logdensity_dtheta is None:
        raise TypeError(f"exact_loglik: channel {channel.kind!r} has no scalar log-density")
    y = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("exact_loglik: samples must be finite")
    logp, _ = channel.output_logdensity_dtheta(y, float(theta))
    return float(np.sum(logp))


def approx_loglik(channel, q, type_index, theta):
    """n_r * sum_l pi(l) ln p(l | theta); O(L) regardless of n_r.

    Returns -inf (a sentinel, not an exception) when some observed cell
    has zero probability under theta.
    """
    counts = np.asarray(type_index.counts, dtype=float)
    if counts.size != q.num_cells:
        raise ValidationError("approx_loglik: type length must equal L + 1")
    n_r = counts.sum()
    if n_r <= 0:
        raise ValidationError("approx_loglik: empty type")
    p, _ = bin_probs_and_dtheta(channel, q, theta)
    observed = counts > 0
    if np.any(p[observed] <= 0.0):
        return NEG_INF
    return float(counts[observed] @ np.log(p[observed]))


@dataclass(frozen=True, eq=False)
class ApproxLogLik:
    """Per-candidate bin log-probabilities, bundled with an observed type."""

    log_bin_probs: np.ndarray  # (num_candidates, L + 1); -inf marks empty cells
    type_index: TypeIndex

    def logliks(self):
        counts = np.asarray(self.type_index.counts, dtype=float)
        observed = counts > 0
        lp = self.log_bin_probs[:, observed]
        out = np.where(np.any(np.isneginf(lp), axis=1), NEG_INF, lp @ counts[observed])
        return out

    def detect(self):
        ll = self.logliks()
        if np.all(np.isneginf(ll)):
            return 0
        return int(np.argmax(ll))


def build_detector(channel, q, candidates, type_index):
    cand = np.asarray(candidates, dtype=float)
    p, _ = bin_probs_and_dtheta(channel, q, cand)
    with np.errstate(divide="ignore"):
        lp = np.where(p > 0.0, np.log(np.clip(p, 1e-320, None)), NEG_INF)
    return ApproxLogLik(log_bin_probs=lp, type_index=type_index)


def ml_detect(channel, q, type_index, constellation):
    """Index of the constellation point maximizing the binned log-likelihood.

    Ties break toward the smaller index; if every candidate scores
    -inf, index 0 is returned.
    """
    points = np.asarray(getattr(constellation, "points", constellation), dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ValidationError("ml_detect: constellation must hold scalar points")
    return build_detector(channel, q, points, type_index).detect()


def fit_loglog_slope(L_values, e_values):
    """Least-squares slope of ln e against ln L, dropping underflowed points."""
    L = np.asarray(L_values, dtype=float)
    e = np.asarray(e_values, dtype=float)
    keep = e >= _SLOPE_FLOOR
    if not np.all(keep):
        warnings.warn(
            f"fit_loglog_slope: dropped {int((~keep).sum())} point(s) below {_SLOPE_FLOOR:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    L, e = L[keep], e[keep]
    if L.size < 2:
        raise DomainError("fit_loglog_slope: fewer than two usable points")
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
    L = [int(x) for x in L_list]
    if len(L) < 4:
        raise ValidationError("scaling_study: need at least 4 bin counts")
    ratios = [L[i + 1] / L[i] for i in range(len(L) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 for r in ratios):
        raise ValidationError("scaling_study: L_list must be geometric")
    es = []
    for l in L:
        q = build_quantizer(float(r_schedule(l)), l)
        es.append(capacity_loss_eL(channel, q))
    slope = fit_loglog_slope(L, es)
    return ScalingResult(tuple(L), tuple(es), slope)


def default_radius_schedule(L):
    """Overflow radius 3 + sqrt(ln L) for Gaussian-tailed outputs."""
    return 3.0 + math.sqrt(math.log(L))
