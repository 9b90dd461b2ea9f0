"""Per-antenna channel families: parameter space, cost, Fisher information.

Every channel here admits a smooth one-to-one parameterization of the
per-antenna output distribution by theta (the input itself for scalar
channels, the input magnitude for energy detection and the noncoherent
channel, the stacked real/imaginary input for the fading channel).  The
cost is the squared working coordinate in all cases, so the average
power constraint reads E[c(theta)] <= P.

A ``ChannelSpec`` bundles the callables the rest of the library needs:

* ``cost``, ``sqrt_det_fisher`` act on the 1-D working coordinate
  (theta for interval spaces, the radius r for ball spaces) and are
  vectorized.  ``cost`` defaults to the squared coordinate and, on
  interval spaces, ``sqrt_det_fisher`` to ``sqrt(fisher)``; every
  channel here keeps the default cost, and only the noncoherent
  (closed form) and the fading (ball space) channels pass their own
  ``sqrt_det_fisher``.
* ``fisher`` is vectorized theta -> J(theta) for d = 1 and maps a full
  d-vector to the d x d matrix otherwise.
* finite-output channels expose ``output_pmf``; scalar continuous
  channels may expose ``output_logdensity_dtheta`` and closed-form cell
  masses through ``cell_mass_dtheta(theta, cuts)``.

Every callable is pointwise: a batch of theta gets the bits of each
theta alone.  Energy detection's J, the one without a closed form, is a
fixed Gauss-Legendre rule in the centred amplitude, with no nested
quadrature.

A channel is evaluated through its spec only, and each check lives in
one place.  The constructor checks the channel's parameters, once, with
the ``errors`` helper of each kind (``_real``, ``_count``,
``_probabilities``, and ``_reals`` for arrays such as thresholds), and
states the channel's formula in its docstring.  Every spec callable
that takes theta, ``cell_mass_dtheta`` and ``output_logdensity_dtheta``
included, checks it once: it rejects a theta that is not finite or lies
outside the parameter space; ``fisher``, ``sqrt_det_fisher`` and
``output_pmf`` return a float for a scalar theta.  Behind each callable
is a private kernel that takes the checked theta array and the checked
parameters and checks neither.  The one other per-call check is of the
cuts a caller passes to ``cell_mass_dtheta``.

The cell model is the L-level ADC's: sorted cut points c_1 < ... < c_K
split the output line into the cells (-inf, c_1], ..., (c_K, inf), and
``cell_mass_dtheta`` returns their masses and theta-derivatives, shape
``theta.shape + (K+1,)``, from one tail pass over the cuts.  AWGN's is
the ADC's with its thresholds at the cuts; truncated AWGN clips the
cuts to +-B and normalizes.  The binned receiver of ``receiver_quant``
is this ADC with its cuts at the bin edges.

``DiscreteInput`` is the library's one finite distribution, points
with probabilities: the input sets of ``mutual_info``, the designs of
``constellation`` and the dither law of ``dithered_onebit_channel``.
It lives here, the lowest module that needs it.

Channels can also be built from JSON records, e.g.
``{"kind": "quantized_awgn", "A": 1.0, "thresholds": [-1, 0, 1]}``;
see ``channel_from_json`` for the full schema.
"""

import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError, _count, _probabilities, _real, _reals
from .quad import NODES, WEIGHTS
from .specfun import _bessel_i01e, _cell_mass, _gauss_tails, _phi_raw, _q_pair, gauss_mass


@dataclass(frozen=True)
class ParameterSpace:
    """Where theta lives: an interval [lo, hi] or a radius-A ball in R^d.

    Ball spaces are isotropic: the cost and sqrt(det J) of a channel on a
    ball depend on the radius only, and the library works on that radial
    profile.
    """

    dim: int
    shape: str  # "interval" | "ball"
    lo: float = 0.0
    hi: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dim", _count(self.dim, "ParameterSpace: dim", 1, ValidationError))
        if self.shape == "interval":
            if self.dim != 1 or not self.lo < self.hi:
                raise ValidationError("interval space needs dim=1 and lo < hi")
        elif self.shape == "ball":
            object.__setattr__(self, "radius", _real(self.radius, "ParameterSpace: radius", 0.0,
                                                     error=ValidationError))
        else:
            raise ValidationError(f"unknown shape {self.shape!r}")

    @classmethod
    def interval(cls, lo, hi):
        return cls(dim=1, shape="interval", lo=float(lo), hi=float(hi))

    @classmethod
    def ball(cls, dim, radius):
        return cls(dim=dim, shape="ball", radius=radius)

    @property
    def profile_bounds(self):
        """Bounds of the 1-D working coordinate (theta, or the radius)."""
        if self.shape == "interval":
            return self.lo, self.hi
        return 0.0, self.radius


@dataclass(frozen=True, eq=False)
class DiscreteInput:
    """A finite distribution: points, shape (M,) or (M, d), with their probabilities.

    The one type for an input set (a designed constellation, the weights
    Blahut-Arimoto returns) and for the dither law of the dithered 1-bit
    ADC.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = _reals(self.points, "DiscreteInput: points", error=ValidationError)
        pr = _probabilities(self.probs, "DiscreteInput: probs", 1e-12)
        if pts.shape[:1] != pr.shape:
            raise ValidationError("DiscreteInput: points and probs must align")
        # read-only copies: neither the caller nor a reader can change a built set
        for name, v in (("points", pts.copy()), ("probs", pr.copy())):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def avg_power(self):
        return float(self.probs @ _power_per_point(self.points))

    @property
    def peak_power(self):
        return float(_power_per_point(self.points).max())


def _power_per_point(pts):
    return pts * pts if pts.ndim == 1 else (pts * pts).sum(axis=1)


def _squared(t):
    return np.square(np.asarray(t, dtype=float))


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """The callables and JSON params of one channel; defaults as in the module docstring."""

    kind: str
    param_space: ParameterSpace
    fisher: Callable
    cost: Callable = _squared
    sqrt_det_fisher: Callable | None = None
    alphabet_size: int | None = None
    output_pmf: Callable | None = None
    output_logdensity_dtheta: Callable | None = None
    cell_mass_dtheta: Callable | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sqrt_det_fisher is None:
            if self.param_space.shape != "interval":
                raise ValidationError(f"ChannelSpec {self.kind!r}: a ball space needs sqrt_det_fisher")
            fisher = self.fisher
            object.__setattr__(self, "sqrt_det_fisher", lambda t: np.sqrt(fisher(t)))


def _check_profile(theta, lo, hi, what):
    return _reals(theta, f"{what}: theta", lo - 1e-12, hi + 1e-12)


def _on_space(fn, lo, hi, what):
    """``fn`` called on finite theta in [lo, hi] only; a 0-d result becomes a float."""
    def checked(theta):
        out = fn(_check_profile(theta, lo, hi, what))
        return float(out) if np.ndim(out) == 0 else out
    return checked


# ---------------------------------------------------------------------------
# Fisher information kernels
# ---------------------------------------------------------------------------
# A kernel takes theta as the float array its spec callable has checked against
# the parameter space, and parameters its constructor has checked; it checks
# neither.  Each channel's formula is stated in its constructor's docstring.

def _clip_term(s):
    # Q(s) + s phi(s) - phi(s)^2 / Q(s) elementwise, decaying to 0 as s -> inf;
    # one tail pass over the stacked arguments
    phi, q, hazard, _ = _gauss_tails(s)
    return q + s * phi - phi * hazard


def _fisher_clipped(t, B):
    loss = _clip_term(np.stack([B + t, B - t]))
    return 1.0 - loss[0] - loss[1]


def _validate_thresholds(thresholds):
    t = _reals(thresholds, "thresholds", error=ValidationError)
    if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
        raise ValidationError("thresholds must be a nonempty, strictly increasing 1-D sequence")
    return t


def _adc_edges(thresholds):
    # the ADC's cell edges -inf, t_1, ..., t_K, inf, thresholds checked
    return np.concatenate(([-np.inf], _validate_thresholds(thresholds), [np.inf]))


def _gauss_cells(edges):
    # unit-Gaussian masses of the cells between consecutive (theta-shifted)
    # edges and their theta-derivatives, one tail pass over the edges
    phi = _phi_raw(edges)
    return _cell_mass(edges), phi[..., :-1] - phi[..., 1:]


def _pmf_fisher(p, dp):
    # sum over the last axis of dp^2 / p; cells whose mass underflows contribute nothing,
    # and where dp^2 falls below the normal range (J itself may not) the term is dp (dp / p)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = dp * dp
        terms = np.where(p > 0.0, sq / np.where(p > 0.0, p, 1.0), 0.0)
        low = np.flatnonzero(sq < sys.float_info.min)
        if low.size:
            d, m = dp.flat[low], p.flat[low]
            terms.flat[low] = np.where(m > 0.0, d * (d / m), 0.0)
    return terms.sum(axis=-1)


def _energy_density_score(y, theta):
    # Density of y~ = 2|x+z|^2 given theta = |x| and its score, from one
    # scaled-Bessel evaluation at s = theta sqrt(2 y~):
    # density 0.5 * exp(-(sqrt(y~) - sqrt(2) theta)^2 / 2) * i0e(s),
    # score -2 theta + sqrt(2 y~) i1e(s) / i0e(s).
    root = np.sqrt(2.0 * y)
    s = theta * root
    i0, i1 = _bessel_i01e(s)
    expo = -0.5 * (np.sqrt(y) - math.sqrt(2.0) * theta) ** 2
    ratio = np.where(s > 0.0, i1 / i0, 0.0)
    return 0.5 * np.exp(expo) * i0, -2.0 * theta + root * ratio


# Energy detection's rule: 12 equal 15-node Gauss-Legendre panels on [0, 1], mapped onto
# z in [max(-sqrt(2) theta, -Z), Z].  Against mpmath (theta from 1e-4 to 100) it is within
# 1e-14 relative from Z = 9 or 6 panels on; Z = 8.5 or 4 panels miss 1e-12.
_ENERGY_Z, _ENERGY_PANELS = 10.0, 12
_ENERGY_CHUNK = 1024  # theta per pass: each temporary holds at most 1024 x 180 floats
_ENERGY_NODES = ((np.arange(_ENERGY_PANELS)[:, None] + 0.5 + 0.5 * NODES) / _ENERGY_PANELS).ravel()
_ENERGY_WEIGHTS = np.tile(0.5 * WEIGHTS / _ENERGY_PANELS, _ENERGY_PANELS)


def _fisher_energy(th):
    flat = np.ravel(th)
    j = np.empty(flat.size)
    for k in range(0, flat.size, _ENERGY_CHUNK):
        t = flat[k:k + _ENERGY_CHUNK, None]
        lo = np.maximum(-math.sqrt(2.0) * t, -_ENERGY_Z)
        span = _ENERGY_Z - lo
        z = lo + span * _ENERGY_NODES
        r = z + math.sqrt(2.0) * t
        s = math.sqrt(2.0) * t * r
        i0, i1 = _bessel_i01e(s)
        score = -2.0 * t + math.sqrt(2.0) * r * np.where(s > 0.0, i1 / i0, 0.0)
        terms = score * score * np.exp(-0.5 * z * z) * i0 * r * _ENERGY_WEIGHTS
        j[k:k + _ENERGY_CHUNK] = terms.sum(axis=-1) * span[:, 0]
    return j.reshape(th.shape)


def _mimo_sqrt_det(r, nt, s2):
    denom = 1.0 + s2 * r * r
    base = (2.0 * (1.0 - s2) / denom) ** nt
    bump = np.sqrt(1.0 + (2.0 * s2 ** 2 / (1.0 - s2)) * r * r / denom)
    return base * bump


def _mimo_fisher_matrix(th, s2):
    gamma = (1.0 - s2) * np.eye(th.size)
    s = 1.0 + s2 * float(th @ th)
    return (2.0 / s) * gamma + (4.0 * s2 ** 2 / s ** 2) * np.outer(th, th)


def _fisher_noncoherent(t, s2):
    # 4 s^2 t^2 / d^2 with d = 1 + s t^2, s^2 squared in numpy (inf where a Python float
    # raises OverflowError); as (2 s t / d)^2 where s^2 or d^2 overflows
    d = 1.0 + s2 * t * t
    with np.errstate(over="ignore", invalid="ignore"):
        dd = d * d
        j = 4.0 * np.float64(s2) ** 2 * t * t / dd
        return np.where(np.isfinite(j) & np.isfinite(dd), j, (2.0 * s2 * t / d) ** 2)


def _validate_discrete(dist, name):
    probs = _probabilities(dist[1], f"{name}: probs", 1e-12)
    values = _reals(dist[0], f"{name}: support", 0.0)
    if values.shape != probs.shape:
        raise ValidationError(f"{name}: expected (values, probs) 1-D pair")
    return values, probs


def _fisher_poisson(t, hv, hp, mv, mp):
    denom = hv[:, None, None] * t[None, None, ...] + mv[None, :, None]
    if np.any(denom <= 0):
        raise DomainError("poisson.fisher: h*theta + mu must be positive on the support")
    w = (hp[:, None] * mp[None, :])[..., None]
    return (w * hv[:, None, None] ** 2 / denom).sum(axis=(0, 1)).reshape(t.shape)


def _fisher_dithered(t, pts, w):
    _, _, h_up, h_down = _gauss_tails(t[..., None] - pts)  # phi/Q at u and at -u, one tail pass
    return (h_up * h_down * w).sum(axis=-1)


# ---------------------------------------------------------------------------
# Channel constructors
# ---------------------------------------------------------------------------

def _interval_channel(kind, A, lo, fisher, params, **outputs):
    """The spec on [lo, A] whose params are kind, A and ``params``; default cost and sqrt(J).

    Wraps ``fisher`` and every callable in ``outputs`` so that each takes
    theta in [lo, A] only.  The constructor has checked the peak A.
    """
    for name in ("sqrt_det_fisher", "output_pmf"):
        if name in outputs:
            outputs[name] = _on_space(outputs[name], lo, A, f"{kind}.{name}")
    if "cell_mass_dtheta" in outputs:
        cells = outputs["cell_mass_dtheta"]
        outputs["cell_mass_dtheta"] = lambda theta, cuts: cells(
            _check_profile(theta, lo, A, f"{kind}.cell_mass_dtheta"), cuts)
    if "output_logdensity_dtheta" in outputs:
        logdensity = outputs["output_logdensity_dtheta"]
        outputs["output_logdensity_dtheta"] = lambda y, theta: logdensity(
            y, _check_profile(theta, lo, A, f"{kind}.output_logdensity_dtheta"))
    return ChannelSpec(kind=kind, param_space=ParameterSpace.interval(lo, A),
                       fisher=_on_space(fisher, lo, A, f"{kind}.fisher"),
                       params={"kind": kind, "A": A, **params}, **outputs)


def awgn_channel(peak):
    """Real AWGN with unit noise variance, input on [-A, A]: J(theta) = 1.

    ``cell_mass_dtheta`` is the ADC's at the given cuts, which it checks.
    """
    A = _real(peak, "awgn_channel: peak", 0.0, error=ValidationError)

    def logdensity_dtheta(y, theta):
        r = np.asarray(y, dtype=float) - theta
        return -0.5 * np.log(2.0 * np.pi) - 0.5 * r * r, r

    return _interval_channel(
        "awgn", A, -A, np.ones_like, {},
        output_logdensity_dtheta=logdensity_dtheta,
        cell_mass_dtheta=lambda theta, cuts: _gauss_cells(_adc_edges(cuts) - theta[..., None]),
    )


def clipped_awgn_channel(peak, clip):
    """AWGN whose output saturates at +-B (atoms at the rails).

    J(theta) = 1 - sum over s in {B+theta, B-theta} of
    (Q(s) + s phi(s) - phi(s)^2/Q(s)); the loss term vanishes as the
    clip level recedes.
    """
    A = _real(peak, "clipped_awgn_channel: peak", 0.0, error=ValidationError)
    B = _real(clip, "clipped_awgn_channel: B", 0.0, error=ValidationError)

    def logdensity_dtheta(y, theta):
        # Density w.r.t. Lebesgue measure on (-B, B) plus atoms at +-B.
        yy = np.asarray(y, dtype=float)
        r = yy - theta
        interior = (-0.5 * np.log(2.0 * np.pi) - 0.5 * r * r, r)
        # Q and phi/Q at the rails B - theta (upper atom) and B + theta (lower), one tail pass
        _, (q_hi, q_lo), (h_hi, h_lo), _ = _gauss_tails(np.stack([B - theta, B + theta]))
        logp = np.where(yy >= B, np.log(q_hi), np.where(yy <= -B, np.log(q_lo), interior[0]))
        dlog = np.where(yy >= B, h_hi, np.where(yy <= -B, -h_lo, interior[1]))
        return logp, dlog

    return _interval_channel(
        "clipped_awgn", A, -A, lambda t: _fisher_clipped(t, B), {"B": B},
        output_logdensity_dtheta=logdensity_dtheta,
    )


def truncated_awgn_channel(peak, support_radius):
    """AWGN conditioned on |y| < B: a bounded-support output family.

    Serves as the bounded-tail case for quantized-receiver scaling
    studies.  J(theta) is the variance of the truncated Gaussian,
    1 + (a phi(a) - b phi(b))/z - ((phi(a) - phi(b))/z)^2 with
    a = -B - theta, b = B - theta and z = P(|y| < B | theta).  Needs z
    to be a normal float on all of [-A, A]; z is smallest at theta = +-A.
    """
    A = _real(peak, "truncated_awgn_channel: peak", 0.0, error=ValidationError)
    B = _real(support_radius, "truncated_awgn_channel: B", 0.0, error=ValidationError)

    def _z_dz(t):
        # P(|y| < B | theta) and its theta-derivative
        return gauss_mass(-B - t, B - t), _phi_raw(-B - t) - _phi_raw(B - t)

    def fisher(t):
        a = -B - t
        b = B - t
        z = gauss_mass(a, b)
        pa, pb = _phi_raw(a), _phi_raw(b)
        return 1.0 + (a * pa - b * pb) / z - ((pa - pb) / z) ** 2

    def cell_mass_dtheta(theta, cuts):
        # the AWGN cells with every edge clipped to [-B, B], normalized by P(|y| < B);
        # the derivative divides by z twice in turn, never by z * z, which underflows first
        t = theta[..., None]
        c = np.clip(_validate_thresholds(cuts), -B, B)
        m, dm = _gauss_cells(np.concatenate(([-B], c, [B])) - t)
        z, dz = _z_dz(t)
        return m / z, dm / z - (m / z) * (dz / z)

    def logdensity_dtheta(y, theta):
        yy = _reals(y, "truncated_awgn.output_logdensity_dtheta: y",
                    math.nextafter(-B, 0.0), math.nextafter(B, 0.0))  # strictly inside (-B, B)
        r = yy - theta
        z, dz = _z_dz(theta)
        return (-0.5 * np.log(2.0 * np.pi) - 0.5 * r * r - np.log(z), r - dz / z)

    spec = _interval_channel(
        "truncated_awgn", A, -A, fisher, {"B": B},
        output_logdensity_dtheta=logdensity_dtheta,
        cell_mass_dtheta=cell_mass_dtheta,
    )
    if not _cell_mass(np.array([-B - A, B - A]))[0] >= sys.float_info.min:  # z at theta = A
        raise ValidationError(
            f"truncated_awgn_channel: P(|y| < B) at theta = A is below the normal float range "
            f"(A={A}, B={B})")
    return spec


def quantized_awgn_channel(peak, thresholds):
    """AWGN followed by an L-level ADC with the given thresholds.

    Level l has the Gaussian mass p_l of the cell (t_{l-1}, t_l] around
    theta, with t_0 = -inf and t_L = +inf, and

        J(theta) = sum_l [phi(theta-t_{l-1}) - phi(theta-t_l)]^2
                         / [Q(theta-t_l) - Q(theta-t_{l-1})],

    with phi(+-inf) = 0, Q(-inf) = 1, Q(inf) = 0.  Cells whose mass
    underflows contribute nothing.  The cell edges are built once, here.
    """
    A = _real(peak, "quantized_awgn_channel: peak", 0.0, error=ValidationError)
    edges = _adc_edges(thresholds)

    def cells(t):
        return _gauss_cells(edges - t[..., None])

    return _interval_channel(
        "quantized_awgn", A, -A, lambda t: _pmf_fisher(*cells(t)),
        {"thresholds": edges[1:-1].tolist()},
        alphabet_size=edges.size - 1,
        output_pmf=lambda t: cells(t)[0],
    )


def energy_detection_channel(peak):
    """Complex AWGN observed through the magnitude only; theta = |x| in [0, A].

    Given theta = |x|, the statistic 2|y|^2 = r^2 is noncentral
    chi-square with 2 degrees of freedom; J(theta) is the second moment
    of the score -2 theta + sqrt(2) r I1/I0(s), s = sqrt(2) theta r: in
    the centred amplitude z = r - sqrt(2) theta, the integral of
    score^2 exp(-z^2/2) i0e(s) r over z >= -sqrt(2) theta, by a fixed
    Gauss-Legendre rule on [max(-sqrt(2) theta, -Z), Z].  Each value
    depends on its own theta alone; J tends to 2.
    """

    def logdensity_dtheta(y, theta):
        # y here is the scaled energy statistic 2|output|^2
        yy = _reals(y, "energy_detection.output_logdensity_dtheta: y", 0.0)
        density, score = _energy_density_score(yy, theta)
        with np.errstate(divide="ignore"):
            logp = np.log(density)  # -inf far in the tail
        return logp, score

    A = _real(peak, "energy_detection_channel: peak", 0.0, error=ValidationError)
    return _interval_channel(
        "energy_detection", A, 0.0, _fisher_energy, {},
        output_logdensity_dtheta=logdensity_dtheta,
    )


def mimo_imperfect_csi_channel(peak, nt, sigma2):
    """Fading channel with isotropic channel-estimate error of variance sigma2.

    Parameter space is the radius-A ball in R^(2 nt); theta stacks the
    real and imaginary input parts.  For channel-estimate rows with
    uncorrelated real/imaginary parts of variance (1 - sigma2)/2 per
    component, the lifted estimate covariance is Gamma = (1 - sigma2) I and

        J(theta) = 2/(1+sigma2 |theta|^2) Gamma
                   + 4 sigma2^2/(1+sigma2 |theta|^2)^2 theta theta^T,

    so cost and sqrt(det J) depend on the radius r = |theta| only:

        sqrt(det J(r)) = (2(1-sigma2)/(1+sigma2 r^2))^nt
                         * sqrt(1 + (2 sigma2^2/(1-sigma2)) r^2/(1+sigma2 r^2)).

    ``fisher`` takes the full 2 nt-vector and checks its values, its
    shape and its norm.
    """
    A = _real(peak, "mimo_imperfect_csi_channel: peak", 0.0, error=ValidationError)
    nt = _count(nt, "mimo_imperfect_csi_channel: nt", 1, ValidationError)
    sigma2 = _real(sigma2, "mimo_imperfect_csi_channel: sigma2", 0.0, 1.0)

    def fisher(theta):
        th = _reals(theta, "mimo_imperfect_csi.fisher: theta")
        if th.shape != (2 * nt,):
            raise DomainError(f"mimo_imperfect_csi.fisher: theta must have shape ({2 * nt},)")
        _check_profile(np.linalg.norm(th), 0.0, A, "mimo_imperfect_csi.fisher")
        return _mimo_fisher_matrix(th, sigma2)

    return ChannelSpec(
        kind="mimo_imperfect_csi",
        param_space=ParameterSpace.ball(dim=2 * nt, radius=A),
        fisher=fisher,
        sqrt_det_fisher=_on_space(lambda r: _mimo_sqrt_det(r, nt, sigma2), 0.0, A,
                                  "mimo_imperfect_csi.sqrt_det_fisher"),
        params={"kind": "mimo_imperfect_csi", "A": A, "nt": nt, "sigma2": sigma2},
    )


def noncoherent_channel(peak, sigma2):
    """Fading with no channel estimate; output depends on |x| = theta only.

    J(theta) = 4 s^2 t^2/(1+s t^2)^2 with s = sigma2 and t = theta, so
    sqrt(J) = 2 s t/(1+s t^2); J is formed as (2 s t/(1+s t^2))^2 where
    s^2 or the squared denominator overflows.
    """
    A = _real(peak, "noncoherent_channel: peak", 0.0, error=ValidationError)
    sigma2 = _real(sigma2, "noncoherent_channel: sigma2", 0.0)

    return _interval_channel(
        "noncoherent", A, 0.0, lambda t: _fisher_noncoherent(t, sigma2), {"sigma2": sigma2},
        sqrt_det_fisher=lambda t: 2.0 * sigma2 * t / (1.0 + sigma2 * t * t),
    )


def poisson_channel(peak, h_dist, mu_dist):
    """Optical intensity channel; theta in [0, A] is the transmitted intensity.

    J(theta) = E_{h,mu}[h^2 / (h theta + mu)] over the finite supports of
    the fading gain h and the background intensity mu, both known to the
    receiver; ``fisher`` refuses a theta where h theta + mu = 0 on the
    support.
    """
    A = _real(peak, "poisson_channel: peak", 0.0, error=ValidationError)
    hv, hp = _validate_discrete(h_dist, "poisson_channel h_dist")
    mv, mp = _validate_discrete(mu_dist, "poisson_channel mu_dist")

    return _interval_channel(
        "poisson", A, 0.0, lambda t: _fisher_poisson(t, hv, hp, mv, mp),
        {"h": {"values": hv.tolist(), "probs": hp.tolist()},
         "mu": {"values": mv.tolist(), "probs": mp.tolist()}},
    )


def dithered_onebit_channel(peak, dither):
    """1-bit ADC with dithering; outputs are the pairs (s_i, sign).

    Outcome order: (s_0, +1), (s_0, -1), (s_1, +1), ... with
    p(y, s | theta) = p(s) Q((s - theta) y), and

        J(theta) = E_s[phi^2(theta-s) / (Q(theta-s)(1 - Q(theta-s)))],

    evaluated as the product of the two Gaussian hazards so that deep
    tails never underflow.

    ``dither`` is a sequence of distinct threshold shifts s, drawn with
    equal probabilities 1/n, or a ``DiscreteInput`` of distinct scalar
    shifts with their probabilities.
    """
    A = _real(peak, "dithered_onebit_channel: peak", 0.0, error=ValidationError)
    if not isinstance(dither, DiscreteInput):
        pts = _reals(dither, "dithered_onebit_channel: dither", error=ValidationError)
        if pts.ndim != 1 or pts.size == 0:
            raise ValidationError("dithered_onebit_channel: need at least one point, in a 1-D list")
        dither = DiscreteInput(pts, np.full(pts.size, 1.0 / pts.size))
    pts, w = dither.points, dither.probs
    if pts.ndim != 1 or np.unique(pts).size != pts.size:
        raise ValidationError("dithered_onebit_channel: dither points must be distinct scalars")

    def pmf(th):
        u = pts - th[..., None]
        q_plus, q_minus = _q_pair(u)  # y = +1, y = -1
        stacked = np.stack([w * q_plus, w * q_minus], axis=-1)
        return stacked.reshape(th.shape + (2 * pts.size,))

    return _interval_channel(
        "dithered_onebit", A, -A, lambda t: _fisher_dithered(t, pts, w),
        {"points": pts.tolist(), "weights": w.tolist()},
        alphabet_size=2 * pts.size,
        output_pmf=pmf,
    )


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

# kind -> (fields, builder of a ChannelSpec from its JSON record).  A field
# "x?" is optional and "x.y" is field y of the object x.  The builders look
# the constructors up when called, so a constructor rebound on this module
# is the one used.  ``noniid`` adds "correlated_awgn" on import: it imports
# this module, so this module cannot import it back.
CHANNEL_BUILDERS = {
    "awgn": (("A",), lambda r: awgn_channel(r["A"])),
    "clipped_awgn": (("A", "B"), lambda r: clipped_awgn_channel(r["A"], r["B"])),
    "truncated_awgn": (("A", "B"), lambda r: truncated_awgn_channel(r["A"], r["B"])),
    "quantized_awgn": (("A", "thresholds"), lambda r: quantized_awgn_channel(r["A"], r["thresholds"])),
    "energy_detection": (("A",), lambda r: energy_detection_channel(r["A"])),
    "mimo_imperfect_csi": (("A", "nt", "sigma2"),
                           lambda r: mimo_imperfect_csi_channel(r["A"], r["nt"], r["sigma2"])),
    "noncoherent": (("A", "sigma2"), lambda r: noncoherent_channel(r["A"], r["sigma2"])),
    "poisson": (("A", "h.values", "h.probs", "mu.values", "mu.probs"),
                lambda r: poisson_channel(r["A"], (r["h"]["values"], r["h"]["probs"]),
                                          (r["mu"]["values"], r["mu"]["probs"]))),
    "dithered_onebit": (("A", "points", "weights?"), lambda r: dithered_onebit_channel(
        r["A"], DiscreteInput(r["points"], r["weights"]) if "weights" in r else r["points"])),
}


def channel_from_json(record):
    """Build a ChannelSpec from a JSON record (dict or JSON string).

    Supported kinds and fields:

    * ``awgn``: A
    * ``clipped_awgn``: A, B
    * ``truncated_awgn``: A, B
    * ``quantized_awgn``: A, thresholds
    * ``energy_detection``: A
    * ``mimo_imperfect_csi``: A, nt, sigma2
    * ``noncoherent``: A, sigma2
    * ``poisson``: A, h {values, probs}, mu {values, probs}
    * ``dithered_onebit``: A, points [, weights]
    * ``correlated_awgn``: A, acov (an ``autocovariance_from_json`` record)
    """
    return _from_record(CHANNEL_BUILDERS, record, "channel_from_json")


def _from_record(builders, record, what):
    """The kind's builder (``builders[kind]``) applied to a JSON record (dict or JSON string).

    A malformed record raises ValidationError: bad JSON, not an object,
    an unknown kind, a field the kind does not have, or a field that is
    missing (KeyError) or of the wrong type (TypeError) for the kind's
    builder.
    """
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{what}: invalid JSON ({e})") from e
    if not isinstance(record, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in builders:
        raise ValidationError(f"{what}: unknown kind {kind!r}")
    fields, build = builders[kind]
    _check_fields(record, ("kind", *fields), f"{what}: kind {kind!r}")
    try:
        return build(record)
    except KeyError as e:
        raise ValidationError(f"{what}: kind {kind!r} is missing field {e}") from e
    except TypeError as e:
        raise ValidationError(f"{what}: kind {kind!r} has a field of the wrong type ({e})") from e


def _check_fields(record, fields, what):
    """Refuse a field of the record object that is not in ``fields`` (see CHANNEL_BUILDERS)."""
    names = {f.split(".")[0].rstrip("?") for f in fields}
    for name, value in record.items():
        if name not in names:
            raise ValidationError(f"{what} has no field {name!r} (its fields: {', '.join(fields)})")
        if isinstance(value, dict):  # an object with fields x.y checks them in turn
            inner = [f.partition(".")[2] for f in fields if f.startswith(f"{name}.")]
            if inner:
                _check_fields(value, inner, f"{what}, object {name!r},")
