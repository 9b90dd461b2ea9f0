"""The tilt and the tilt solve against the versions they replaced (reference_tilt.py).

``quad`` keeps its panels in arrays, the profile table stores one row
per panel, keyed by its ends, evaluates each root partition from its
stored rows and grades its cuts from a ladder.  None of this may move a
bit: the leaves and the node sums are compared with ``==`` over every
interval channel kind and the ball channel.  The solve returns the first
of the reference's Newton tilts with |M - P| < 1e-10 P, where the
reference went on to replay a bisection: its lambda*, JF and M are that
tilt's by ``==``, and it may not tilt more often than the reference.
The last tilts are memoized, and a tilt runs once however often it is
asked for.

The inverse cdf solves every point of a design in one array pass.  The
three designs give the reference's per-point designs by ``==``, and an
array call of ``prior_cdf``, ``prior_cdf_inverse`` or
``poly_cdf_inverse`` gives, element by element, the scalar calls, which
give the reference's scalar values.
"""

import dataclasses
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishercap as fc
import reference_tilt as ref
from fishercap import jeffreys
from fishercap.errors import FisherCapError
from test_properties import KINDS, SETTINGS, _cost_span

KINDS = {**KINDS, "correlated_awgn": st.builds(
    lambda A, rho: {"kind": "correlated_awgn", "A": A, "acov": {"kind": "ar1", "rho": rho}},
    st.floats(0.5, 4.0), st.floats(-0.9, 0.9))}
per_kind = pytest.mark.parametrize("kind", sorted(KINDS))
MORE = settings(SETTINGS, max_examples=30)  # each example takes milliseconds
ZOO_POISSON = {"kind": "poisson", "A": 4.0,
               "h": {"values": [0.5, 1.0], "probs": [0.5, 0.5]},
               "mu": {"values": [0.5, 1.0], "probs": [0.5, 0.5]}}


def _same(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _solve_counting_tilts(channel, P):
    """solve_lambda_star(channel, P) and the number of tilts the table evaluated (one _quad call each)."""
    with mock.patch.object(jeffreys, "_quad", wraps=jeffreys._quad) as counted:
        return fc.solve_lambda_star(channel, P), counted.call_count


@per_kind
@MORE
@given(data=st.data(), bits=st.floats(0.0, 60.0), before=st.floats(0.0, 60.0))
def test_tilt_is_the_reference_tilt(kind, data, bits, before):
    record = data.draw(KINDS[kind])
    channel = fc.channel_from_json(record)
    lam, lam_before = bits / _cost_span(channel), before / _cost_span(channel)
    table, want_table = jeffreys._ProfileTable(channel), ref.ProfileTable(channel)
    # a tilt before the one compared, so some panels are stored and some are not
    table.tilt(lam_before)
    want_table.tilt(lam_before)
    got, want = table.tilt(lam), want_table.tilt(lam)
    for name in ("a", "b", "x", "values", "sums"):
        assert _same(getattr(got.leaves, name), getattr(want.leaves, name)), name
    assert got.leaves.err == want.leaves.err
    assert (got.z, got.m, got.var) == (want.z, want.m, want.var)


def _reference_newton(channel, P):
    """The reference solve, and the solution at each tilt its Newton saw: top, then each iterate.

    The list is empty when the reference returns lambda* = 0 before any Newton step.
    """
    tilts, newton = [], []
    tilt, newton_root = ref.ProfileTable.tilt, ref.newton_root

    def recorded_tilt(table, lam):
        tilts.append(tilt(table, lam))
        return tilts[-1]

    def recorded_newton_root(table, P, lo, hi):
        start = len(tilts)
        root = newton_root(table, P, lo, hi)
        newton.extend(ref._solution(table, P, t) for t in [hi, *tilts[start:]])
        return root

    with mock.patch.object(ref.ProfileTable, "tilt", recorded_tilt), \
            mock.patch.object(ref, "newton_root", recorded_newton_root):
        want = ref.solve_lambda_star(channel, P)
    return want, newton


def _within_tolerance(s, P):
    return abs(s.m_at_star - P) < jeffreys._M_TOL_REL * P


def _solved(s):
    return s.lambda_star, s.jf, s.log2_jf, s.m_at_star


@per_kind
@MORE
@given(data=st.data(), frac=st.floats(0.002, 0.9))
def test_solve_is_the_reference_solve(kind, data, frac):
    record = data.draw(KINDS[kind])
    channel = fc.channel_from_json(record)
    P = frac * _cost_span(channel)
    want, newton = _reference_newton(fc.channel_from_json(record), P)
    got, tilts = _solve_counting_tilts(channel, P)
    # the first Newton tilt within tolerance, else the last one Newton ran
    if newton:
        expected = next((s for s in newton if _within_tolerance(s, P)), newton[-1])
    else:
        expected = want
    assert _solved(got) == _solved(expected)
    assert tilts <= want.tilts


def test_newton_stops_at_the_first_tilt_within_tolerance():
    # the reference's sixth Newton tilt reads |M - P| = 2.2e-16 P (the fifth 1.1e-9 P);
    # it goes on tilting to the root to rounding and then through its bisection replay
    P = 4.0
    channel = fc.channel_from_json(ZOO_POISSON)
    want, newton = _reference_newton(fc.channel_from_json(ZOO_POISSON), P)
    got, tilts = _solve_counting_tilts(channel, P)
    first = next(i for i, s in enumerate(newton) if _within_tolerance(s, P))
    assert 0 < first < len(newton) - 1
    assert _solved(got) == _solved(newton[first])
    assert (tilts, want.tilts) == (8, 13)
    # the prior the solve returns is the reference's tilt there, panel for panel
    for name in ("a", "b", "values", "sums"):
        assert _same(getattr(got.prior.leaves, name), getattr(newton[first].prior.leaves, name))
    assert math.isfinite(got.prior.var) and got.prior.var == newton[first].prior.var


ADC4 = {"kind": "quantized_awgn", "A": 2.0, "thresholds": [-1.0, 0.0, 1.0]}


def _same_tilt(got, want):
    for name in ("a", "b", "x", "values", "sums"):
        assert _same(getattr(got.leaves, name), getattr(want.leaves, name)), name
    assert got.leaves.err == want.leaves.err
    assert (got.z, got.m, got.var) == (want.z, want.m, want.var)


def test_a_tilt_is_evaluated_once_while_memoized():
    channel = fc.channel_from_json(ADC4)
    table = jeffreys._table(channel)
    first = table.tilt(0.7)
    table.tilt(1.3)
    assert table.tilt(0.7) is first
    _same_tilt(first, jeffreys._ProfileTable(channel).tilt(0.7))
    # jf then M at one lambda: one tilt
    with mock.patch.object(jeffreys, "_quad", wraps=jeffreys._quad) as counted:
        fc.jeffreys_factor(channel, 2.1, 0.5)
        fc.average_cost(channel, 2.1)
    assert counted.call_count == 1
    # the memo holds the last 16 tilts of all tables
    for k in range(40):
        table.tilt(3.0 + k)
    assert len(jeffreys._TILTS) == jeffreys._TILT_MEMO_SIZE == 16
    again = table.tilt(0.7)
    assert again is not first
    _same_tilt(again, first)


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        channel = fc.channel_from_json(ADC4)
        fc.solve_lambda_star(channel, 0.5)
        table = weakref.ref(jeffreys._table(channel))
        del channel
        jeffreys._table.cache_clear()
        assert table() is not None  # the memo still holds its tilts
        other = jeffreys._ProfileTable(fc.channel_from_json(ADC4))
        for k in range(jeffreys._TILT_MEMO_SIZE):
            other.tilt(1.0 + k)
        assert table() is None
    finally:
        gc.enable()


def test_a_fresh_solve_calls_the_channel_once_before_newton():
    calls, at_newton = [], []
    channel = fc.channel_from_json(ADC4)
    counted = dataclasses.replace(channel, sqrt_det_fisher=lambda t: calls.append(t.size)
                                  or channel.sqrt_det_fisher(t))
    newton_root = jeffreys._newton_root

    def recorded(*args):
        at_newton.append(len(calls))
        return newton_root(*args)

    with mock.patch.object(jeffreys, "_newton_root", recorded):
        got = fc.solve_lambda_star(counted, 0.25)
    # the root panels of lambda = 0 and of 1/P, which grades its cuts, in one call; Newton was reached
    assert at_newton == [1]
    assert got.lambda_star == fc.solve_lambda_star(channel, 0.25).lambda_star


def _fit(channel, P, degree):
    """A polynomial fit of the prior at (channel, P), or None where the fit is refused."""
    try:
        return fc.fit_poly_density(channel, fc.solve_lambda_star(channel, P).lambda_star, degree)
    except FisherCapError:  # e.g. J vanishes at an end of the fit grid
        return None


@per_kind
@settings(MORE, max_examples=10)
@given(data=st.data(), frac=st.floats(0.01, 1.0), M=st.integers(2, 300), degree=st.integers(0, 8))
def test_designs_are_the_per_point_designs(kind, data, frac, M, degree):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    P = frac * _cost_span(channel)
    pairs = [(fc.jeffreys_constellation(channel, P, M), ref.jeffreys_constellation(channel, P, M))]
    if channel.param_space.shape == "ball":
        dirs = np.vstack((np.eye(channel.param_space.dim), -np.eye(channel.param_space.dim)))
        pairs.append((fc.radial_constellation_isotropic(channel, P, M, dirs),
                      ref.radial_constellation_isotropic(channel, P, M, dirs)))
    else:
        poly = _fit(channel, P, degree)
        if poly is not None:
            pairs.append((fc.approx_jeffreys_constellation(poly, P, M),
                          ref.approx_jeffreys_constellation(poly, P, M)))
    for got, want in pairs:
        assert _same(got.points, want.points) and _same(got.probs, want.probs)


def _each_shape(fn, x):
    """fn on x as a 0-d array, a (6,) array and a (2, 3) array; each equals fn on each float alone."""
    alone = [fn(float(v)) for v in x]
    assert all(type(v) is float for v in alone)
    assert fn(np.array(x[0])) == alone[0] and type(fn(np.array(x[0]))) is float
    assert fn(np.array(x)).tolist() == alone
    assert fn(np.array(x).reshape(2, 3)).tolist() == [alone[:3], alone[3:]]
    return alone


@per_kind
@settings(MORE, max_examples=10)
@given(data=st.data(), bits=st.floats(0.0, 40.0), degree=st.integers(0, 8),
       fracs=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                      min_size=6, max_size=6))
def test_array_calls_are_the_scalar_calls(kind, data, bits, degree, fracs):
    channel = fc.channel_from_json(data.draw(KINDS[kind]))
    prior = fc.tilted_prior(channel, bits / _cost_span(channel))
    theta = [prior.lo + f * (prior.hi - prior.lo) for f in fracs]
    cdf = _each_shape(lambda t: fc.prior_cdf(prior, t), theta)
    assert cdf == [ref.prior_cdf(prior, t) for t in theta]
    inverse = _each_shape(lambda u: fc.prior_cdf_inverse(prior, u), fracs)
    assert inverse == [ref.prior_cdf_inverse(prior, u) for u in fracs]
    poly = _fit(channel, prior.table.c_min + 0.5 * _cost_span(channel), degree) \
        if channel.param_space.shape == "interval" else None
    if poly is not None:
        inverse = _each_shape(lambda u: fc.poly_cdf_inverse(poly, u), fracs)
        assert inverse == [ref.poly_cdf_inverse(poly, u) for u in fracs]
