"""Folded helpers against the versions they replaced, bit for bit.

Energy detection's J now reads its density and score from the kernel it
shares with the output log-density, and ``gauss_mass`` is the one-cell
case of ``_cell_mass``.  Neither may move a bit: each is compared with
``==`` against its earlier copy, kept in ``reference_fisher.py`` and
``reference_specfun.py``, at theta = 0 and at +-inf edges too.  The
polynomial fit's Newton stages cap the step with one expression and hand
the final gradient norm up from the last stage; every field the fit
records, or the refusal it ends in, is compared with ``==`` against the
earlier stages in ``reference_fit.py``.  Without ``full_output`` the fit
keeps no record (no Hessian eigenvalues are computed) and must end the
same way.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fishercap as fc
from fishercap import constellation
import reference_fisher
import reference_fit
import reference_specfun

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

energy_theta = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 60.0))
edge = st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 38.0, -38.0]), st.floats(-40.0, 40.0))


def test_energy_fisher_is_the_reference_on_a_long_grid():
    # 4,001 theta in four chunks of the rule, theta = 0 first
    theta = np.linspace(0.0, 100.0, 4001)
    got = fc.energy_detection_channel(100.0).fisher(theta)
    assert got.tobytes() == reference_fisher.fisher_energy(theta).tobytes()


@SETTINGS
@given(thetas=st.lists(energy_theta, min_size=1, max_size=6))
def test_energy_fisher_is_the_reference(thetas):
    theta = np.array(thetas)
    channel = fc.energy_detection_channel(60.0)
    assert channel.fisher(theta).tobytes() == reference_fisher.fisher_energy(theta).tobytes()
    assert channel.fisher(thetas[0]) == reference_fisher.fisher_energy(theta[:1])[0]


@SETTINGS
@given(pairs=st.lists(st.tuples(edge, edge), min_size=1, max_size=6))
def test_gauss_mass_is_the_reference(pairs):
    a, b = (np.array(v) for v in zip(*pairs))
    assert fc.gauss_mass(a, b).tobytes() == reference_specfun.gauss_mass(a, b).tobytes()
    assert fc.gauss_mass(a[0], b[0]) == reference_specfun.gauss_mass(a[0], b[0])
    # an edge row broadcast against a column of edges
    assert (fc.gauss_mass(a[:, None], b).tobytes()
            == reference_specfun.gauss_mass(a[:, None], b).tobytes())


# every interval channel family, its peak drawn by the test
INTERVAL_CHANNELS = [
    fc.awgn_channel,
    lambda A: fc.clipped_awgn_channel(A, 1.5),
    lambda A: fc.truncated_awgn_channel(A, 1.0),
    lambda A: fc.quantized_awgn_channel(A, [0.0]),
    lambda A: fc.quantized_awgn_channel(A, [-1.0, 0.0, 1.0]),
    fc.energy_detection_channel,
    lambda A: fc.noncoherent_channel(A, 0.5),
    lambda A: fc.poisson_channel(A, ([0.5, 1.0], [0.5, 0.5]), ([0.5, 1.0], [0.5, 0.5])),
    lambda A: fc.dithered_onebit_channel(A, [-0.5, 0.0, 0.5]),
    lambda A: fc.correlated_awgn_channel(A, fc.ar1_autocovariance(0.5)),
]


def _outcome(fit):
    """Every field a fit records (its coefficients alone without a record), or the class and
    message of its refusal."""
    try:
        out = fit()
    except Exception as e:  # noqa: BLE001 - a refusal of any class is an outcome to compare
        return type(e), str(e)
    if isinstance(out, fc.PolyDensity):
        return (out.coeffs.tobytes(),)
    poly, info = out
    return (poly.coeffs.tobytes(), info.newton_iterations, info.objective_path,
            info.min_hessian_eigenvalues, info.final_gradient_norm)


def _counting_eigvalsh(fit):
    """(fit's outcome, the np.linalg.eigvalsh calls it made), counted as constellation calls it."""
    calls = []
    eigvalsh = constellation.np.linalg.eigvalsh

    def counted(h):
        calls.append(h)
        return eigvalsh(h)

    with mock.patch.object(constellation.np.linalg, "eigvalsh", counted):
        return _outcome(fit), len(calls)


# The tilt depth lambda A^2 is the log2 range of the tilt 2^(-lambda theta^2) over theta; a
# design at power P = 0.05 A^2 reaches a depth near 14.  Deep, low-degree fits press against
# the positivity boundary and their Hessians reach condition numbers near 1/eps, so the draw
# covers that range, and a refusal must be the reference's own, in class and message.  The
# examples are fits at lambda*(P = 0.05 A^2) whose outcome a positive-definiteness test by the
# smallest eigenvalue, instead of Cholesky's, would change (two finish, two refuse, one swaps
# the refusal's class).
@settings(SETTINGS, max_examples=60)
@example(make=INTERVAL_CHANNELS[1], peak=1.0, depth=14.382078274137989, degree=3)
@example(make=INTERVAL_CHANNELS[2], peak=4.0, depth=0.8103412183540193 * 16.0, degree=3)
@example(make=INTERVAL_CHANNELS[4], peak=1.0, depth=14.342043059819913, degree=3)
@example(make=INTERVAL_CHANNELS[8], peak=1.0, depth=14.186513307028966, degree=5)
@example(make=INTERVAL_CHANNELS[8], peak=2.0, depth=3.365048075918637 * 4.0, degree=3)
@given(make=st.sampled_from(INTERVAL_CHANNELS), peak=st.floats(0.5, 4.0),
       depth=st.floats(0.0, 30.0), degree=st.integers(2, 8))
def test_fit_is_the_reference(make, peak, depth, degree):
    channel, lam = make(peak), depth / (peak * peak)
    want = _outcome(lambda: reference_fit.fit_poly_density(channel, lam, degree))
    got, recorded = _counting_eigvalsh(
        lambda: fc.fit_poly_density(channel, lam, degree, full_output=True))
    assert got == want
    # without full_output the fit computes no record, and ends with the same coefficients or refusal
    plain, unrecorded = _counting_eigvalsh(lambda: fc.fit_poly_density(channel, lam, degree))
    refused = len(got) == 2
    assert plain == (got if refused else got[:1])
    assert unrecorded == 0 and (refused or recorded == len(got[3]))
