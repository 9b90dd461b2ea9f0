"""Exact mutual information across n_r i.i.d. antennas via the type statistic.

For a finite output alphabet of size L, the per-bin count vector t (the
type) is a sufficient statistic of the n_r-antenna output, so
I(X; Y^{n_r}) = I(X; T), a finite sum over the C(n_r + L - 1, L - 1)
compositions of n_r into L parts.  With S_i(t) = sum_l t_l log p(l | x_i),

    log p(t | x_i) = log multinomial(t) + S_i(t),

and one kernel, ``_type_blocks``, streams (log multinomial, S) over
blocks of compositions that numpy builds, most of them by copying
contiguous slices of the shorter vectors.  Each block lives in buffers
allocated once per call, and the consumers write every step into
buffers as well: the block loop allocates no (M x block) array, and
each step is the numpy operation a plain array expression would run,
in the same order, so the bits do not depend on the buffers.  Both
consumers start there:

* ``mi_from_pmf_matrix`` sums w_i p(t|i) [log p(t|i) - log p(t)] block
  by block.  The log-multinomial cancels inside the bracket, so it only
  weights the sum, and one exp pass per block, shifted by the largest
  log(w_i p(t|i)) of each type, gives both the mixture and the weights.
  Log-pmfs routinely reach -1e4, hence the shift.  The form
  H(T) - H(T|X) would lose about four digits to cancellation.
* ``blahut_arimoto`` keeps one (M x types) matrix E = exp(S - rm), with
  rm the largest S of each type, the type weights
  g = exp(log multinomial + rm) and the constant C = (E o S) g.  Each
  iteration is then two matrix-vector products: the mixture
  log p_r(t) = log multinomial + rm + log(r^T E), and the divergences
  D(p(.|x_i) || p_r) = C - E (g o (rm + log(r^T E))).

Zero-probability bins enter the log-pmf as ``_LOG_ZERO``, and zero
weights likewise, so their exp() is exactly 0.

An input set is a ``channels.DiscreteInput``, the library's one finite
distribution; ``discretize_prior`` and ``blahut_arimoto`` return one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import DiscreteInput
from .errors import BudgetError, ConvergenceError, DomainError, ValidationError
from .errors import _count, _probabilities, _real, _reals
from .quad import _midpoints, integrate_interval
from .specfun import SQRT_2PI, log_gamma

_EVAL_BUDGET = 10 ** 8  # log-pmf evaluations one MI or BA call may enumerate
_LOG_ZERO = -1e6  # stand-in for log 0; k * _LOG_ZERO stays finite, exp() is exactly 0
_BLOCK_TYPES = 1 << 12  # types per streamed block (M x 4096 doubles stay cache-sized)
_SLICE_TOTALS = 32  # one slice copy costs about as much as gathering 140 columns, 32 of them a full block
_BA_MAX_ITER = 10 ** 4
_SPAN_SIGMAS = 40.0  # the sample-mean MI integrates this many sigmas beyond the extreme points


@dataclass(frozen=True)
class TypeIndex:
    """Per-bin output counts; the sufficient statistic of an i.i.d. block."""

    counts: tuple

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.size == 0 or np.any(c < 0) or not np.issubdtype(c.dtype, np.integer):
            raise ValidationError("TypeIndex: counts must be nonnegative integers")
        object.__setattr__(self, "counts", tuple(c.tolist()))


def _add_part(v, v_sum, starts, r0, r1):
    """Columns r0:r1 of the graded extension of v by one part, and their sums.

    The columns of v are the j-part vectors with sum <= n by increasing
    sum (sums in v_sum), so those with sum <= s are its first C(s + j, j)
    columns.  The extension lists the (j+1)-part vectors with sum <= n
    the same way: for each total s in turn, that prefix of v with the
    part that tops each column up to s.  ``starts[s] = C(s + j, j + 1)``
    is where total s begins.
    """
    r = np.arange(r0, r1)
    s = np.searchsorted(starts, r, side="right") - 1
    i = r - starts[s]
    return np.vstack([v[:, i], s - v_sum[i]]), s


def _num_types(n, parts):
    return math.comb(n + parts - 1, parts - 1)


def _rows(buf, rows, cols):
    """The first rows * cols entries of a flat buffer as a contiguous (rows, cols) array."""
    return buf[:rows * cols].reshape(rows, cols)


def _starts(j, n):
    # C(s + j, j + 1) for s = 0..n+1: partial sums of C(s + j, j), which are j-fold partial sums of ones
    counts = np.ones(n + 1, dtype=np.int64)
    for _ in range(j):
        counts = np.cumsum(counts)
    return np.concatenate(([0], np.cumsum(counts)))


def _composition_chunks(n, parts, chunk):
    """Every composition of n into `parts` parts exactly once, one per column.

    Blocks have shape (parts, <= chunk) and are views of one buffer, so
    each is valid until the next is drawn.  A composition is
    (n - s, tail), with tail one of the (parts - 1)-part vectors of sum
    s <= n.  Those are built one part at a time by ``_add_part``: the
    vectors of the first parts - 2 parts whole (C(n + parts - 2, parts - 2)
    of them, a share (parts - 1)/(n + parts - 1) of the total), the last
    extension block by block.  A block that spans at most
    ``_SLICE_TOTALS`` totals copies each total's columns as one slice of
    v; a block that spans more (every block for parts = 2, the first
    ones for parts = 3) gathers them column by column.
    """
    if parts == 1:
        yield np.full((1, 1), n, dtype=np.int64)
        return
    v, v_sum = np.zeros((0, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for j in range(parts - 2):
        v, v_sum = _add_part(v, v_sum, _starts(j, n), 0, math.comb(n + j + 1, j + 1))
    starts = _starts(parts - 2, n)
    total = _num_types(n, parts)
    buf = np.empty(parts * min(chunk, total), dtype=np.int64)
    for r0 in range(0, total, chunk):
        r1 = min(r0 + chunk, total)
        block = _rows(buf, parts, r1 - r0)
        s_first, s_last = np.searchsorted(starts, (r0, r1 - 1), side="right") - 1
        if s_last - s_first < _SLICE_TOTALS:
            for s in range(s_first, s_last + 1):
                lo, hi = max(r0, starts[s]), min(r1, starts[s + 1])
                cols, tail = slice(lo - r0, hi - r0), slice(lo - starts[s], hi - starts[s])
                block[0, cols] = n - s
                block[1:-1, cols] = v[:, tail]
                np.subtract(s, v_sum[tail], out=block[-1, cols])
        else:
            block[1:], s = _add_part(v, v_sum, starts, r0, r1)
            np.subtract(n, s, out=block[0])
        yield block


def _type_blocks(logp, n_r):
    """Per block of types: (log multinomial coefficient, S = logp @ counts).

    S has one row per input and one column per type; in that layout the
    reductions over inputs run along contiguous rows.  Both arrays are
    contiguous views of buffers allocated once per call: each block
    overwrites the last, and the caller may overwrite them in turn.
    """
    lg = log_gamma(np.arange(n_r + 1) + 1.0)
    m, parts = logp.shape
    width = min(_BLOCK_TYPES, _num_types(n_r, parts))
    ll_buf, lg_buf, log_multi_buf = np.empty(m * width), np.empty(parts * width), np.empty(width)
    for counts in _composition_chunks(n_r, parts, _BLOCK_TYPES):
        n_t = counts.shape[1]
        log_multi = log_multi_buf[:n_t]
        # counts lie in [0, n_r]; mode="raise" would gather through a temporary
        lg.take(counts, out=_rows(lg_buf, parts, n_t), mode="clip").sum(axis=0, out=log_multi)
        np.subtract(lg[n_r], log_multi, out=log_multi)
        yield log_multi, np.matmul(logp, counts, out=_rows(ll_buf, m, n_t))


def _logsumexp(x):
    """log sum exp(x) of a 1-D array, shifted by its maximum.

    The maxima are taken out of the sum, which enters through log1p, as
    scipy.special.logsumexp does.
    """
    top = x.max()
    is_top = x == top
    n_top = np.count_nonzero(is_top)
    rest = np.where(is_top, 0.0, np.exp(x - top)).sum() / n_top
    return np.log1p(rest) + np.log(float(n_top)) + top


def _log_pmf_matrix(pmf):
    pmf = _reals(pmf, "pmf", -1e-12, error=ValidationError)  # -1e-12 absorbs rounding
    if pmf.ndim != 2:
        raise ValidationError("expected a (num_inputs, L) pmf matrix")
    if not np.all(np.abs(pmf.sum(axis=1) - 1.0) <= 1e-9):
        raise ValidationError("pmf rows must be finite probability vectors")
    with np.errstate(divide="ignore"):
        logs = np.log(np.clip(pmf, 0.0, None))
    return np.where(pmf > 0.0, logs, _LOG_ZERO)


def _check_budget(n_r, parts, num_inputs):
    n_types = _num_types(n_r, parts)
    if n_types * num_inputs > _EVAL_BUDGET:
        raise BudgetError(
            f"mutual_info: {n_types} types x {num_inputs} inputs exceeds the "
            f"budget of {_EVAL_BUDGET} log-pmf evaluations; reduce L or n_r, or fall "
            "back to Monte-Carlo estimation outside this library"
        )


def mi_from_pmf_matrix(pmf, weights, n_r):
    """I(X; T) in bits for the per-antenna pmf matrix p(l | x_i).

    Sums over every multinomial type of n_r draws, streamed in blocks
    with flat memory; exact up to floating point.
    """
    logp = _log_pmf_matrix(pmf)
    w = _probabilities(weights, "mi_from_pmf_matrix: weights", 1e-9)
    if w.shape[0] != logp.shape[0]:
        raise ValidationError("weights must align with the pmf rows")
    n_r = _count(n_r, "mi_from_pmf_matrix: n_r", 1)
    parts = logp.shape[1]
    if parts == 1:
        return 0.0  # a single-outcome alphabet carries no information
    _check_budget(n_r, parts, logp.shape[0])
    logw = np.where(w > 0.0, np.log(np.clip(w, 1e-300, None)), _LOG_ZERO)

    # each step of the block formula writes into buffers allocated once per call
    m = logp.shape[0]
    width = min(_BLOCK_TYPES, _num_types(n_r, parts))
    e_buf, a_buf, per_type_buf = np.empty(m * width), np.empty(width), np.empty(width)
    nats = 0.0
    for log_multi, ll in _type_blocks(logp, n_r):
        n_t = ll.shape[1]
        e, a, per_type = _rows(e_buf, m, n_t), a_buf[:n_t], per_type_buf[:n_t]
        # a = max_i log(w_i p(t|i)) - log multinomial, so w_i p(t|i) = exp(log multinomial + a) E_it
        for ll_row, lw, e_row in zip(ll, logw, e):  # row by row: a column broadcast is slower
            np.add(ll_row, lw, out=e_row)
        e.max(axis=0, out=a)
        np.exp(np.subtract(e, a, out=e), out=e)
        log_mix = np.add(a, np.log(e.sum(axis=0, out=per_type), out=per_type), out=per_type)
        bracket = np.subtract(ll, log_mix, out=ll)  # log p(t|i) - log p(t)
        np.multiply(e, bracket, out=bracket).sum(axis=0, out=per_type)
        nats += float(per_type @ np.exp(np.add(log_multi, a, out=a), out=a))
    return max(nats, 0.0) / math.log(2.0)


def _pmf_for_points(channel, points):
    if points.ndim != 1:
        raise ValidationError("finite-output channels here take scalar inputs")
    if channel.output_pmf is None:
        raise TypeError(f"mutual_info: channel {channel.kind!r} is not finite-output")
    return channel.output_pmf(points)


def mi_finite_output(channel, input_dist, n_r):
    """Exact I(X; Y^{n_r}) in bits for a finite-output channel."""
    pmf = _pmf_for_points(channel, input_dist.points)
    return mi_from_pmf_matrix(pmf, input_dist.probs, n_r)


def discretize_prior(prior, grid_size):
    """Midpoint discretization of a tilted prior as a DiscreteInput."""
    pts = _midpoints(prior.lo, prior.hi, _count(grid_size, "discretize_prior: grid_size", 1))
    w = np.asarray(prior.density(pts), dtype=float)
    if np.any(w < 0):
        raise DomainError("discretize_prior: negative density")
    total = w.sum()
    if total <= 0:
        raise DomainError("discretize_prior: density vanishes on the grid")
    return DiscreteInput(pts, w / total)


def blahut_arimoto(channel, points, n_r, tol=1e-9, full_output=False):
    """Capacity-achieving input weights over fixed points, via Blahut-Arimoto.

    Alternates the standard updates on the type-likelihood matrix until
    the capacity upper/lower bound gap drops below ``tol`` bits (finite,
    > 0), and raises ConvergenceError after 10,000 iterations.
    Returns ``(DiscreteInput, bits)``; with ``full_output`` also a dict
    carrying the per-iteration bound gaps.
    """
    pts = _reals(points, "blahut_arimoto: points")
    if pts.ndim != 1 or pts.size == 0:
        raise ValidationError("blahut_arimoto: points must be a nonempty 1-D array")
    n_r = _count(n_r, "blahut_arimoto: n_r", 1)
    tol = _real(tol, "blahut_arimoto: tol", 0.0)
    pmf = _pmf_for_points(channel, pts)
    parts = pmf.shape[1]
    _check_budget(n_r, parts, pts.size)
    logp = _log_pmf_matrix(pmf)

    # One (M x types) matrix E = exp(S - rm) holds all the likelihoods:
    # p(t|i) = g_t E_it with g = exp(log multinomial + rm).
    m = pts.size
    e = np.empty((m, _num_types(n_r, parts)))
    rm = np.empty(e.shape[1])
    g = np.empty(e.shape[1])
    c = np.zeros(m)  # C_i = sum_t p(t|i) S_it
    col = 0
    for log_multi, ll in _type_blocks(logp, n_r):
        cols = slice(col, col + ll.shape[1])
        ll.max(axis=0, out=rm[cols])
        np.exp(np.subtract(ll, rm[cols], out=e[:, cols]), out=e[:, cols])
        np.exp(np.add(log_multi, rm[cols], out=g[cols]), out=g[cols])
        c += np.multiply(e[:, cols], ll, out=ll) @ g[cols]
        col = cols.stop

    log_r = np.full(m, -math.log(m))
    log_mix = np.empty(e.shape[1])  # log p_r(t) - log multinomial
    g_log_mix = np.empty(e.shape[1])
    gaps = []
    nats_tol = tol * math.log(2.0)
    c_low = 0.0
    for _ in range(_BA_MAX_ITER):
        r = np.exp(log_r)
        np.add(rm, np.log(np.matmul(r, e, out=log_mix), out=log_mix), out=log_mix)
        d_x = c - e @ np.multiply(g, log_mix, out=g_log_mix)  # D(p(.|x_i) || p_r) in nats
        c_low = float(r @ d_x)
        c_up = float(d_x.max())
        gaps.append((c_up - c_low) / math.log(2.0))
        if c_up - c_low < nats_tol:
            break
        log_r = log_r + d_x
        log_r -= _logsumexp(log_r)
    else:
        raise ConvergenceError(
            f"blahut_arimoto: bound gap {gaps[-1]:.3e} bits after {_BA_MAX_ITER} iterations"
        )
    result = DiscreteInput(pts, np.exp(log_r) / np.exp(log_r).sum())
    bits = c_low / math.log(2.0)
    if full_output:
        return result, bits, {"gaps_bits": gaps, "iterations": len(gaps)}
    return result, bits


def mi_gaussian_sufficient(input_dist, n_r):
    """Exact MI for the unit-noise scalar Gaussian channel via the sample mean.

    The mean of n_r unit-variance observations is Gaussian with variance
    1/n_r and is sufficient, so I(theta; ybar) is a one-dimensional
    mixture-entropy integral.
    """
    pts, w = input_dist.points, input_dist.probs
    if pts.ndim != 1:
        raise ValidationError("mi_gaussian_sufficient: scalar inputs only")
    n_r = _count(n_r, "mi_gaussian_sufficient: n_r", 1)
    if pts.size == 1:
        return 0.0
    sigma = 1.0 / math.sqrt(n_r)
    lo = pts.min() - _SPAN_SIGMAS * sigma
    hi = pts.max() + _SPAN_SIGMAS * sigma

    def neg_mix_entropy(y):
        z = (y[:, None] - pts[None, :]) / sigma
        mix = (np.exp(-0.5 * z * z) / (SQRT_2PI * sigma)) @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -mix * np.log2(mix)
        return np.where(mix > 0.0, ent, 0.0)

    h_mix, _ = integrate_interval(neg_mix_entropy, lo, hi)
    h_cond = 0.5 * math.log2(2.0 * math.pi * math.e * sigma * sigma)
    return max(h_mix - h_cond, 0.0)
