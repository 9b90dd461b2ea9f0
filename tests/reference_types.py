"""The type kernel as it was before it reused buffers: the oracle of test_type_kernel.py.

Each block of compositions is gathered column by column (``searchsorted``
and fancy indexing, then two ``vstack``), and every step of the MI and
Blahut-Arimoto block formulas allocates its result.  The buffered kernel
in ``fishercap.mutual_info`` must give the same blocks in the same order
and the same bits.
"""

import math

import numpy as np

from fishercap.errors import ConvergenceError
from fishercap.specfun import log_gamma


def _add_part(v, v_sum, starts, r0, r1):
    r = np.arange(r0, r1)
    s = np.searchsorted(starts, r, side="right") - 1
    i = r - starts[s]
    return np.vstack([v[:, i], s - v_sum[i]]), s


def _starts(j, n):
    return np.array([math.comb(s + j, j + 1) for s in range(n + 2)], dtype=np.int64)


def composition_chunks(n, parts, chunk):
    if parts == 1:
        yield np.full((1, 1), n, dtype=np.int64)
        return
    v, v_sum = np.zeros((0, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for j in range(parts - 2):
        v, v_sum = _add_part(v, v_sum, _starts(j, n), 0, math.comb(n + j + 1, j + 1))
    starts = _starts(parts - 2, n)
    total = math.comb(n + parts - 1, parts - 1)
    for r0 in range(0, total, chunk):
        tail, s = _add_part(v, v_sum, starts, r0, min(r0 + chunk, total))
        yield np.vstack([n - s, tail])


def _type_blocks(logp, n_r, chunk):
    lg = log_gamma(np.arange(n_r + 1) + 1.0)
    for counts in composition_chunks(n_r, logp.shape[1], chunk):
        yield lg[n_r] - lg[counts].sum(axis=0), logp @ counts


def _column_exp(x):
    m = x.max(axis=0)
    return m, np.exp(x - m)


def mi_bits(logp, w, n_r, chunk):
    """mi_from_pmf_matrix after its checks: logp from _log_pmf_matrix, w the weights."""
    if logp.shape[1] == 1:
        return 0.0
    logw = np.where(w > 0.0, np.log(np.clip(w, 1e-300, None)), -1e6)
    nats = 0.0
    for log_multi, ll in _type_blocks(logp, n_r, chunk):
        a, e = _column_exp(ll + logw[:, None])
        bracket = ll - (a + np.log(e.sum(axis=0)))
        nats += float((e * bracket).sum(axis=0) @ np.exp(log_multi + a))
    return max(nats, 0.0) / math.log(2.0)


def _logsumexp(x):
    top = x.max()
    is_top = x == top
    n_top = np.count_nonzero(is_top)
    rest = np.where(is_top, 0.0, np.exp(x - top)).sum() / n_top
    return np.log1p(rest) + np.log(float(n_top)) + top


def blahut_arimoto(logp, n_r, tol, chunk):
    """(weights, bits, gaps in bits) of blahut_arimoto after its checks."""
    m = logp.shape[0]
    e = np.empty((m, math.comb(n_r + logp.shape[1] - 1, logp.shape[1] - 1)))
    rm = np.empty(e.shape[1])
    g = np.empty(e.shape[1])
    c = np.zeros(m)
    col = 0
    for log_multi, ll in _type_blocks(logp, n_r, chunk):
        cols = slice(col, col + ll.shape[1])
        rm[cols], e[:, cols] = _column_exp(ll)
        g[cols] = np.exp(log_multi + rm[cols])
        c += (e[:, cols] * ll) @ g[cols]
        col = cols.stop

    log_r = np.full(m, -math.log(m))
    gaps = []
    nats_tol = tol * math.log(2.0)
    c_low = 0.0
    for _ in range(10 ** 4):
        r = np.exp(log_r)
        log_mix = rm + np.log(r @ e)
        d_x = c - e @ (g * log_mix)
        c_low = float(r @ d_x)
        c_up = float(d_x.max())
        gaps.append((c_up - c_low) / math.log(2.0))
        if c_up - c_low < nats_tol:
            break
        log_r = log_r + d_x
        log_r -= _logsumexp(log_r)
    else:
        raise ConvergenceError("reference blahut_arimoto: no convergence")
    return np.exp(log_r) / np.exp(log_r).sum(), c_low / math.log(2.0), gaps
