"""The tilt and the tilt solve against the versions they replaced (reference_tilt.py).

``quad`` keeps its panels in arrays, the profile table stores one row
per panel and grades its cuts from a ladder, and Newton stops once
|M - P| <= 1e-10 P / 16.  None of this may move a bit: the leaves, the
node sums and the solved tilt are compared with ``==`` over every
interval channel kind and the ball channel, and the solve may not tilt
more often than the reference.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fishercap as fc
import reference_tilt as ref
from fishercap import jeffreys
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
    """solve_lambda_star(channel, P) and the number of tilts it ran (one quad call each)."""
    with mock.patch.object(jeffreys, "quad", wraps=jeffreys.quad) as counted:
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


@per_kind
@MORE
@given(data=st.data(), frac=st.floats(0.002, 0.9))
def test_solve_is_the_reference_solve(kind, data, frac):
    record = data.draw(KINDS[kind])
    channel = fc.channel_from_json(record)
    P = frac * _cost_span(channel)
    want = ref.solve_lambda_star(fc.channel_from_json(record), P)
    got, tilts = _solve_counting_tilts(channel, P)
    assert (got.lambda_star, got.jf, got.log2_jf, got.m_at_star) == (
        want.lambda_star, want.jf, want.log2_jf, want.m_at_star)
    assert tilts <= want.tilts


def test_newton_stops_at_the_bisection_resolution():
    # the reference Newton runs on past |M - P| = 4e-12 P here; the new one stops there
    P = 4.0
    want = ref.solve_lambda_star(fc.channel_from_json(ZOO_POISSON), P)
    roots, newton_root = [], jeffreys._newton_root
    with mock.patch.object(jeffreys, "_newton_root",
                           lambda *args: roots.append(newton_root(*args)) or roots[-1]):
        got, tilts = _solve_counting_tilts(fc.channel_from_json(ZOO_POISSON), P)
    assert (got.lambda_star, got.jf, got.log2_jf, got.m_at_star) == (
        want.lambda_star, want.jf, want.log2_jf, want.m_at_star)
    assert 0.0 < abs(roots[0].m - P) <= jeffreys._M_TOL_REL * P / 16.0
    assert tilts < want.tilts
    # the prior the solve returns is the reference prior, panel for panel
    for name in ("a", "b", "values", "sums"):
        assert _same(getattr(got.prior.leaves, name), getattr(want.prior.leaves, name))
    assert math.isfinite(got.prior.var) and got.prior.var == want.prior.var
