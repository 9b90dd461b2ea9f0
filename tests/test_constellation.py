import dataclasses
import json
import math
import os

import numpy as np
import pytest

import fishercap as fc
from fishercap import constellation, jeffreys
from fishercap.cli import main
from fishercap.constellation import _GAMMAS, BarrierObjective, PolyFitInfo
from fishercap.errors import (
    ConvergenceError,
    DomainError,
    PositivityError,
    ValidationError,
)


@pytest.fixture(scope="module")
def awgn():
    return fc.awgn_channel(1.0)


@pytest.fixture(scope="module")
def awgn_fit(awgn):
    s = fc.solve_lambda_star(awgn, 1.0 / 9.0)
    poly, info = fc.fit_poly_density(awgn, s.lambda_star, 8, full_output=True)
    return s, poly, info


def test_constellation_is_a_discrete_input(awgn):
    assert isinstance(fc.pam_constellation(awgn, 1.0 / 9.0, 4), fc.DiscreteInput)
    c = fc.DiscreteInput(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    assert (c.avg_power, c.peak_power) == (1.0, 1.0)
    # the powers come from the points: 0.2 * 0.25 + 0.8 * 4, and 4
    c = fc.DiscreteInput(np.array([0.5, -2.0]), np.array([0.2, 0.8]))
    assert (c.avg_power, c.peak_power) == (0.2 * 0.25 + 0.8 * 4.0, 4.0)
    planar = fc.DiscreteInput(np.array([[1.0, 1.0], [0.0, 3.0]]), np.array([0.5, 0.5]))
    assert (planar.avg_power, planar.peak_power) == (5.5, 9.0)
    with pytest.raises(ValidationError, match="^DiscreteInput: probs"):
        fc.DiscreteInput(np.array([-1.0, 1.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValidationError, match="^DiscreteInput: points and probs"):
        fc.DiscreteInput(np.array([0.0, 1.0]), np.array([1.0]))


def test_discrete_input_owns_read_only_arrays(awgn):
    p, w = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    d = fc.DiscreteInput(p, w)
    p[0], w[:] = 3.0, [1.0, 0.0]
    assert (d.avg_power, d.peak_power) == (1.0, 1.0)
    with pytest.raises(ValueError):
        d.points[0] = 3.0
    with pytest.raises(ValueError):
        d.probs[0] = 1.0
    pam = fc.pam_constellation(awgn, 1.0 / 9.0, 4)
    assert not (pam.points.flags.writeable or pam.probs.flags.writeable)


# --- exact Jeffreys constellation -------------------------------------------

def test_uniform_prior_two_points(awgn):
    c = fc.jeffreys_constellation(awgn, 0.5, 2)
    assert np.allclose(c.points, [-0.5, 0.5], atol=1e-10)
    assert np.allclose(c.probs, 0.5)


def test_uniform_prior_four_points(awgn):
    c = fc.jeffreys_constellation(awgn, 0.5, 4)
    assert np.allclose(c.points, [-0.75, -0.25, 0.25, 0.75], atol=1e-10)
    assert c.avg_power == pytest.approx(0.3125, abs=1e-9)  # below P, so c_P = 1


def test_constellation_symmetry_onebit():
    channel = fc.quantized_awgn_channel(2.0, [0.0])
    c = fc.jeffreys_constellation(channel, 4.0 / 9.0, 16)
    assert np.allclose(c.points, -c.points[::-1], atol=1e-9)
    assert np.all(np.diff(c.points) > 0)


def test_power_scaling_active(awgn):
    P = 0.05  # below the uniform prior's second moment
    c = fc.jeffreys_constellation(awgn, P, 8)
    assert c.avg_power <= P + 1e-12
    assert c.peak_power <= 1.0 + 1e-12
    # the PAM grid always exceeds a small budget, so there scaling binds
    pam = fc.pam_constellation(awgn, P, 8)
    assert pam.avg_power == pytest.approx(P, rel=1e-12)


def test_doubling_never_increases_max_gap():
    channel = fc.quantized_awgn_channel(2.0, [0.0])
    for m in [4, 8, 16]:
        a = fc.jeffreys_constellation(channel, 1.0, m).points
        b = fc.jeffreys_constellation(channel, 1.0, 2 * m).points
        assert np.max(np.diff(b)) <= np.max(np.diff(a)) + 1e-12


def test_pam_baseline(awgn):
    c = fc.pam_constellation(awgn, 0.5, 5)
    assert np.allclose(c.points, np.linspace(-1, 1, 5))
    tight = fc.pam_constellation(awgn, 0.1, 5)
    assert tight.avg_power <= 0.1 + 1e-12


# --- polynomial density fit --------------------------------------------------

def test_degree_zero_uniform_target(awgn):
    poly = fc.fit_poly_density(awgn, 0.0, 0)
    assert poly.coeffs.shape == (1,)
    assert poly.coeffs[0] == pytest.approx(0.5, rel=1e-12)
    prior = fc.tilted_prior(awgn, 0.0)
    grid = np.linspace(-0.99, 0.99, 11)
    assert np.allclose(poly.pdf(grid), prior.density(grid), atol=1e-12)


def test_degree8_awgn_kl_under_1e3(awgn, awgn_fit):
    s, poly, info = awgn_fit
    prior = fc.tilted_prior(awgn, s.lambda_star)

    def integrand(t):
        f = poly.pdf(t)
        ratio = np.log2(np.maximum(f, 1e-300)) - np.log2(prior.density(t))
        return np.where(f > 0, f * ratio, 0.0)

    kl_bits, _ = fc.integrate_interval(integrand, -1.0, 1.0)
    assert 0.0 <= kl_bits < 1e-3


def test_gradient_matches_finite_differences(awgn):
    s = fc.solve_lambda_star(awgn, 1.0 / 9.0)
    problem = BarrierObjective(awgn, s.lambda_star, 8, 1e-2)
    rng = np.random.default_rng(3)
    xi = rng.normal(scale=0.05, size=8)
    assert math.isfinite(problem.value(xi))
    g = problem.gradient(xi)
    h = 1e-6
    fd = np.zeros_like(g)
    for i in range(8):
        e = np.zeros(8)
        e[i] = h
        fd[i] = (problem.value(xi + e) - problem.value(xi - e)) / (2 * h)
    rel = np.abs(g - fd) / np.maximum(np.abs(g), 1e-12)
    assert rel.max() < 1e-6


def test_hessian_matches_independent_quadrature(awgn):
    # the solver's Simpson Hessian against adaptive quadrature of the same form
    s = fc.solve_lambda_star(awgn, 1.0 / 9.0)
    gamma = 1e-3
    problem = BarrierObjective(awgn, s.lambda_star, 2, gamma)
    xi = np.array([0.01, 0.05])
    h = problem.hessian(xi)
    coeffs = problem.full_coeffs(xi)
    width = problem.width

    def entry(i, j):
        def integrand(tau):
            f = np.polynomial.polynomial.polyval(tau, coeffs)
            bi = tau ** (i + 1) - problem.alphas[i + 1] / problem.alphas[0]
            bj = tau ** (j + 1) - problem.alphas[j + 1] / problem.alphas[0]
            return bi * bj * (1.0 / f + (gamma / width) / (f * f))

        return fc.integrate_interval(integrand, -1.0, 1.0)[0]

    for i in range(2):
        for j in range(2):
            assert h[i, j] == pytest.approx(entry(i, j), rel=1e-6)


def test_hessian_pd_and_objective_monotone(awgn_fit):
    _, _, info = awgn_fit
    assert min(info.min_hessian_eigenvalues) > 0
    path = np.array(info.objective_path)
    assert info.total_iterations == len(path)
    # strict decrease within each stage (stage boundaries change gamma and
    # with it the objective being minimized)
    start = 0
    for iters in info.newton_iterations:
        seg = path[start:start + iters]
        assert np.all(np.diff(seg) < 0)
        start += iters


def test_fit_deterministic(awgn, awgn_fit):
    s, poly, info = awgn_fit
    poly2, info2 = fc.fit_poly_density(awgn, s.lambda_star, 8, full_output=True)
    assert np.array_equal(poly.coeffs, poly2.coeffs)
    assert info.newton_iterations == info2.newton_iterations


def test_fit_converges_on_wide_support_target():
    channel = fc.quantized_awgn_channel(10.0, [0.0])
    poly, info = fc.fit_poly_density(channel, 0.0, 8, full_output=True)
    assert info.final_gradient_norm < 1.0  # small-gamma stages end at the floor
    grid = np.linspace(-10, 10, 4097)
    assert np.all(poly.pdf(grid) > 0)


def test_fit_iteration_cap():
    channel = fc.quantized_awgn_channel(10.0, [0.0])
    with pytest.raises(ConvergenceError):
        fc.fit_poly_density(channel, 0.0, 8, max_newton=2)


def _counted(channel, *names):
    """The channel with each named callable recording the theta arrays it is called on."""
    seen = {name: [] for name in names}

    def counted(name):
        fn = getattr(channel, name)

        def wrapped(theta, *args, **kwargs):
            seen[name].append(np.array(theta))
            return fn(theta, *args, **kwargs)
        return wrapped

    return dataclasses.replace(channel, **{name: counted(name) for name in names}), seen


def test_fit_evaluates_the_channel_once(awgn):
    # each grid point once: cost in one call, fisher at the two ends and then at the interior
    lam = fc.solve_lambda_star(awgn, 1.0 / 9.0).lambda_star
    channel, seen = _counted(awgn, "cost", "fisher")
    poly, info = fc.fit_poly_density(channel, lam, 8, full_output=True)
    assert len(info.newton_iterations) == len(_GAMMAS)
    (grid,) = seen["cost"]
    ends, interior = seen["fisher"]
    assert grid.size == 4097 and ends.tolist() == [grid[0], grid[-1]]
    assert interior.tobytes() == grid[1:-1].tobytes()
    assert np.array_equal(poly.coeffs, fc.fit_poly_density(awgn, lam, 8).coeffs)


@pytest.mark.parametrize("make", [
    fc.awgn_channel,
    lambda A: fc.clipped_awgn_channel(A, 1.5),
    lambda A: fc.truncated_awgn_channel(A, 1.0),
    lambda A: fc.quantized_awgn_channel(A, [-1.0, 0.0, 1.0]),
    lambda A: fc.poisson_channel(A, ([0.5, 1.0], [0.5, 0.5]), ([0.5, 1.0], [0.5, 0.5])),
    lambda A: fc.dithered_onebit_channel(A, [-0.5, 0.0, 0.5]),
    lambda A: fc.correlated_awgn_channel(A, fc.ar1_autocovariance(0.5)),
])
@pytest.mark.parametrize("peak", [0.5, 3.0, 10.0])
def test_fit_grid_in_two_calls_is_one_call(make, peak):
    # J at the ends and at the interior, as the fit asks for it, is J on the whole grid, bit for bit
    channel, seen = _counted(make(peak), "fisher")
    BarrierObjective(channel, 0.0, 2, 1.0)
    ends, interior = seen["fisher"]
    j_ends, j_interior = channel.fisher(ends), channel.fisher(interior)
    grid = np.concatenate((ends[:1], interior, ends[1:]))
    parts = np.concatenate((j_ends[:1], j_interior, j_ends[1:]))
    assert grid.size == 4097 and parts.tobytes() == channel.fisher(grid).tobytes()


@pytest.mark.parametrize("channel", [fc.energy_detection_channel(1.5),
                                     fc.noncoherent_channel(3.0, 0.5)])
def test_fit_refuses_a_vanishing_prior_at_the_ends(channel):
    # J(0) = 0: the refusal costs the two end points, not the 4,097-point grid
    counted, seen = _counted(channel, "cost", "fisher")
    with pytest.raises(DomainError, match=r"^BarrierObjective: target prior vanishes on the grid$"):
        fc.fit_poly_density(counted, 0.5, 6)
    assert sum(t.size for t in seen["fisher"]) <= 2 and seen["cost"] == []


@pytest.mark.parametrize("gamma", [1e-2, 1e-7])
def test_stage_matches_fresh_objective(gamma):
    channel = fc.quantized_awgn_channel(2.0, [0.0])
    lam = fc.solve_lambda_star(channel, 0.444).lambda_star
    stage = BarrierObjective(channel, lam, 6, 10.0)
    stage.gamma = gamma  # what each barrier stage of a fit does to its one problem
    fresh = BarrierObjective(channel, lam, 6, gamma)
    rng = np.random.default_rng(7)
    for xi in [np.zeros(6), *rng.normal(scale=0.02, size=(3, 6))]:
        assert np.array_equal(stage.value(xi), fresh.value(xi))
        assert np.array_equal(stage.gradient(xi), fresh.gradient(xi))
        assert np.array_equal(stage.hessian(xi), fresh.hessian(xi))


def test_objective_at_an_infeasible_point():
    # f = 1.5 - 3 tau^2 is negative near tau = +-1: the value is +inf, and no Newton
    # quantity exists there
    problem = BarrierObjective(fc.awgn_channel(1.0), 0.5, 2, 1.0)
    xi = np.array([0.0, -3.0])
    assert problem.density_on_grid(xi).min() < 0
    assert problem.value(xi) == math.inf
    with pytest.raises(PositivityError):
        problem.gradient(xi)
    with pytest.raises(PositivityError):
        problem.hessian(xi)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        fc.fit_poly_density(fc.awgn_channel(1.0), 0.0, 4, max_newton=0)
    assert len(_GAMMAS) == 10
    assert _GAMMAS[0] == 10.0 and _GAMMAS[-1] == pytest.approx(1e-8, rel=1e-6)


@pytest.mark.parametrize("channel, degree, gamma", [
    (fc.truncated_awgn_channel(4, 1.0), 3, "1e-08"),
    (fc.quantized_awgn_channel(4, [-1, 0, 1]), 5, "1e-07"),
], ids=["truncated_awgn", "adc_4_level"])
def test_a_hessian_lu_cannot_solve_is_a_convergence_error(channel, degree, gamma):
    # Cholesky passes these Hessians and LU meets a zero pivot: numpy's "Singular matrix" escaped
    lam = fc.solve_lambda_star(channel, 0.8).lambda_star
    with pytest.raises(ConvergenceError, match=rf"^fit_poly_density: Hessian not PD at gamma={gamma}$"):
        fc.fit_poly_density(channel, lam, degree)


# --- polynomial cdf -----------------------------------------------------------

def test_poly_cdf_endpoints(awgn_fit):
    _, poly, _ = awgn_fit
    assert poly.cdf(-1.0) == 0.0
    assert poly.cdf(1.0) == pytest.approx(1.0, abs=1e-12)


def test_degree_zero_inverse():
    poly = fc.PolyDensity(np.array([0.5]), (-1.0, 1.0))
    assert poly.inverse(0.75) == pytest.approx(0.5, abs=1e-12)


def test_poly_cdf_on_an_array_gives_each_scalar_call():
    # one matvec over the array rounded 3,486 of these 4,001 sums unlike a scalar call, by up to 7.9e-14
    channel = fc.quantized_awgn_channel(2.0, [0.0])
    poly = fc.fit_poly_density(channel, fc.solve_lambda_star(channel, 0.5).lambda_star, 8)
    theta = np.linspace(-2.0, 2.0, 4001)
    want = [poly.cdf(t) for t in theta]
    assert poly.cdf(theta).tolist() == want
    assert poly.cdf(theta[:4000].reshape(2, 50, 40)).ravel().tolist() == want[:4000]


def test_poly_cdf_round_trip(awgn_fit):
    _, poly, _ = awgn_fit
    for u in [0.01, 0.37, 0.99]:
        theta = poly.inverse(u)
        assert poly.cdf(theta) == pytest.approx(u, abs=1e-12)


def test_poly_density_validation():
    with pytest.raises(PositivityError):
        fc.PolyDensity(np.array([0.0, 0.5]), (-1.0, 1.0))  # vanishes at 0
    with pytest.raises(ValidationError):
        fc.PolyDensity(np.array([1.0]), (-1.0, 1.0))  # integrates to 2
    with pytest.raises(DomainError):
        fc.PolyDensity(np.array([0.5]), (-1.0, 1.0)).inverse(1.5)


def test_poly_cdf_rejects_nan():
    with pytest.raises(DomainError):
        fc.PolyDensity(np.array([0.5]), (-1.0, 1.0)).cdf(math.nan)


def test_midpoint_grid_needs_an_integer():
    # M = 2.5 gave the grid [0.2, 0.6, 1.0], whose last point is the cdf endpoint
    with pytest.raises(DomainError):
        fc.jeffreys_constellation(fc.awgn_channel(3.0), 1.0, 2.5)
    # M = 2 pushes the midpoints 0.25 and 0.75 through the inverse cdf
    prior = fc.solve_lambda_star(fc.awgn_channel(3.0), 1.0).prior
    want = [fc.prior_cdf_inverse(prior, u) for u in (0.25, 0.75)]
    got = fc.jeffreys_constellation(fc.awgn_channel(3.0), 1.0, np.int64(2)).points
    assert got.tolist() == want


def _zoo(shape):
    with open(os.path.join(os.path.dirname(__file__), "data", "pinned_design_zoo.json"),
              encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        channel = fc.channel_from_json(case["channel"])
        if channel.param_space.shape == shape:
            yield case["label"], channel, case["P"]


def _count_solver_calls(monkeypatch):
    """Per call of the shared solver, the F_dF evaluations of each of its points."""
    calls, solve = [], jeffreys.invert_monotone

    def counted(F_dF, target, *args):
        calls.append(np.zeros(len(target), dtype=int))

        def F_dF_counted(x, k):
            calls[-1][k] += 1
            return F_dF(x, k)
        return solve(F_dF_counted, target, *args)

    monkeypatch.setattr(jeffreys, "invert_monotone", counted)
    monkeypatch.setattr(constellation, "invert_monotone", counted)
    return calls


_MAX_SOLVER_CALLS = 20  # a Newton step below half an ulp once made the solver bisect 45 times


def test_prior_inverse_takes_few_steps(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    for label, channel, P in _zoo("interval"):
        for M in (16, 64, 256):
            del calls[:]
            fc.jeffreys_constellation(channel, P, M)
            (steps,) = calls  # one solve for the whole design
            assert steps.size == M and steps.max() <= _MAX_SOLVER_CALLS, (label, M, steps.max())


def test_poly_inverse_takes_few_steps(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    for label, channel, P in _zoo("interval"):
        if label not in ("onebit", "adc4", "awgn", "truncated", "dithered", "poisson"):
            continue
        poly = fc.fit_poly_density(channel, fc.solve_lambda_star(channel, P).lambda_star, 8)
        del calls[:]
        fc.approx_jeffreys_constellation(poly, P, 256)
        (steps,) = calls
        assert steps.size == 256 and steps.max() <= _MAX_SOLVER_CALLS, (label, steps.max())


# --- approximate constellation -------------------------------------------------

def test_degree_zero_reproduces_uniform_constellation(awgn):
    poly = fc.fit_poly_density(awgn, 0.0, 0)
    c = fc.approx_jeffreys_constellation(poly, 0.5, 4)
    exact = fc.jeffreys_constellation(awgn, 0.5, 4)
    assert np.allclose(c.points, exact.points, atol=1e-10)


def test_degree8_close_to_exact_points(awgn, awgn_fit):
    s, poly, _ = awgn_fit
    approx = fc.approx_jeffreys_constellation(poly, 1.0 / 9.0, 16)
    exact = fc.jeffreys_constellation(awgn, 1.0 / 9.0, 16)
    assert np.max(np.abs(approx.points - exact.points)) < 1e-2


def test_approx_constellation_power(awgn_fit):
    _, poly, _ = awgn_fit
    c = fc.approx_jeffreys_constellation(poly, 0.25, 16)
    assert c.avg_power <= 0.25 + 1e-12


# --- isotropic radial design ----------------------------------------------------

@pytest.fixture(scope="module")
def mimo():
    return fc.mimo_imperfect_csi_channel(1.0, 4, 0.1)


def test_radial_two_point_line(mimo):
    d = np.zeros((2, 8))
    d[0, 0] = 1.0
    d[1, 0] = -1.0
    c = fc.radial_constellation_isotropic(mimo, 1.0 / 9.0, 1, d)
    assert c.points.shape == (2, 8)
    assert np.allclose(c.points[0], -c.points[1])


def test_radial_radii_increasing(mimo):
    d = np.zeros((1, 8))
    d[0, 0] = 1.0
    c = fc.radial_constellation_isotropic(mimo, 1.0 / 9.0, 6, d)
    radii = np.linalg.norm(c.points, axis=1)
    assert np.all(np.diff(radii) > 0)


def test_radial_mean_square_radius_within_budget(mimo):
    P = 1.0 / 9.0
    d = np.eye(8)[:3]
    c = fc.radial_constellation_isotropic(mimo, P, 8, d)
    assert c.avg_power <= P + 1e-12
    # tilted radial prior indeed has mean square radius at most P
    s = fc.solve_lambda_star(mimo, P)
    prior = fc.tilted_prior(mimo, s.lambda_star)
    msq, _ = fc.integrate_interval(lambda r: prior.density(r) * r * r, 0.0, 1.0)
    assert msq <= P + 1e-9


def test_radial_validation(mimo, awgn):
    with pytest.raises(DomainError):
        fc.radial_constellation_isotropic(awgn, 0.1, 4, np.eye(1))
    with pytest.raises(ValidationError):
        fc.radial_constellation_isotropic(mimo, 0.1, 4, np.zeros((1, 8)))
    with pytest.raises(ValidationError):
        fc.radial_constellation_isotropic(mimo, 0.1, 4, np.zeros((0, 8)))


def test_constellation_csv_export_scalar(awgn, capsys):
    # the CLI writes a design as index, point, probability rows
    assert main(["constellation", "--channel", json.dumps(awgn.params), "--P", "0.5", "--M", "4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,point (input units),probability"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "0"
    c = fc.jeffreys_constellation(awgn, 0.5, 4)
    assert [line.split(",")[1:] for line in lines[1:]] == [
        [f"{x:.17g}", f"{w:.17g}"] for x, w in zip(c.points, c.probs)]


def test_constellation_csv_export_vector(mimo, capsys):
    # a ball design has d columns per point: the library gives it from a direction set, and the
    # CLI, whose CSV holds one point column, refuses a ball channel in every mode
    d = np.zeros((2, 8))
    d[0, 0] = 1.0
    d[1, 1] = 1.0
    c = fc.radial_constellation_isotropic(mimo, 1.0 / 9.0, 2, d)
    assert c.points.shape == (4, 8) and c.probs.shape == (4,)
    for mode in ("jeffreys", "pam", "poly"):
        assert main(["constellation", "--channel", json.dumps(mimo.params), "--P", "0.1",
                     "--M", "4", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "radial_constellation_isotropic" in captured.err


class _FlatProblem:
    """A one-coefficient fit whose objective never decreases, with gradient g and unit Hessian.

    The Newton decrement squared is g^2, so g sets which way a failed line search ends.
    """

    gamma = 0.1
    basis = np.ones((3, 1))

    def __init__(self, g):
        self.g = np.array([g])

    def _density(self, xi):
        return np.ones(3)

    def _objective(self, f):
        return 0.0, np.zeros(3)

    def _value(self, f, log_f):
        return 0.0

    def _gradient(self, f, log_f):
        return self.g

    def _hessian(self, f):
        return np.eye(1)


_FLAT = (np.ones(3), np.zeros(3))  # the stub's density on its grid, and its log


def test_failed_line_search_raises_when_newton_promised_progress():
    # decrement^2 / 2 = 5e-7, far above 1e-12 (1 + |objective|): a stall, not the floor
    info = PolyFitInfo()
    with pytest.raises(ConvergenceError, match=r"^fit_poly_density: line search failed at stage gamma=0\.1$"):
        constellation._newton_stage(_FlatProblem(1e-3), np.zeros(1), *_FLAT, 100, info)
    assert info.min_hessian_eigenvalues == [1.0] and info.objective_path == []


def test_failed_line_search_ends_the_stage_at_the_objective_floor():
    # decrement^2 / 2 = 5e-15, above the 1e-15 early stop and below 1e-12: nothing is left to
    # resolve, so the stage ends where it stands
    info = PolyFitInfo()
    xi = np.array([0.25])
    out, _, _, iters, gnorm = constellation._newton_stage(_FlatProblem(1e-7), xi, *_FLAT, 100, info)
    assert out is xi and iters == 0 and gnorm == 1e-7
    assert info.min_hessian_eigenvalues == [1.0] and info.objective_path == []
