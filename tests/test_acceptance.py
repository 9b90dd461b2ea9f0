"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import fishercap as fc

DATA = os.path.join(os.path.dirname(__file__), "data", "specfun_oracle.json")


@contextmanager
def criterion(name, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None:
        assert elapsed < max_seconds, f"{name}: took {elapsed:.1f}s (limit {max_seconds}s)"
    print(f"{name}: PASS ({elapsed:.2f}s)")


def awgn_jf_closed(lam, A, P):
    _, q = fc.gauss_phi_q(math.sqrt(2.0 * lam * math.log(2.0)) * A)
    return 2.0 ** (lam * P) * math.sqrt(math.pi / (lam * math.log(2.0))) * (1.0 - 2.0 * q)


def test_criterion_01_awgn_closed_forms():
    with criterion("criterion-01 awgn-closed-forms", max_seconds=1.0):
        channel = fc.awgn_channel(1.0)
        for lam in [0.1, 1.0, 10.0]:
            got = fc.jeffreys_factor(channel, lam, 1.0 / 9.0)
            want = awgn_jf_closed(lam, 1.0, 1.0 / 9.0)
            assert abs(got - want) <= 1e-9 * abs(want)
        assert abs(fc.average_cost(channel, 0.0) - 1.0 / 3.0) <= 1e-12
        assert fc.solve_lambda_star(channel, 1.0 / 3.0 + 1e-6).lambda_star == 0.0
        assert fc.solve_lambda_star(channel, 1.0 / 3.0 - 1e-6).lambda_star > 0.0


def test_criterion_02_small_power_surrogate():
    with criterion("criterion-02 small-power-surrogate", max_seconds=1.0):
        channel = fc.awgn_channel(1.0)
        s = fc.solve_lambda_star(channel, 0.001)
        ratio = s.jf / math.sqrt(2.0 * math.pi * math.e * 0.001)
        assert 0.98 <= ratio <= 1.02


def test_criterion_03_tilted_cost_strictly_decreasing():
    with criterion("criterion-03 tilted-cost-decreasing", max_seconds=30.0):
        A = 1.0
        configs = {
            "awgn": fc.awgn_channel(A),
            "clipped B=0.5A": fc.clipped_awgn_channel(A, 0.5 * A),
            "clipped B=A": fc.clipped_awgn_channel(A, A),
            "adc L=2": fc.quantized_awgn_channel(A, [0.0]),
            "adc L=4": fc.quantized_awgn_channel(A, [-A, 0.0, A]),
            "energy detection": fc.energy_detection_channel(A),
            "noncoherent s2=0.5": fc.noncoherent_channel(A, 0.5),
            "poisson mu=0.3A": fc.poisson_channel(A, ([1.0], [1.0]), ([0.3 * A], [1.0])),
            "dithered N=3": fc.dithered_onebit_channel(
                A, np.linspace(-0.8 * A, 0.8 * A, 3)),
        }
        lams = np.geomspace(1e-3, 1e3, 64)
        for name, channel in configs.items():
            ms = np.array([fc.average_cost(channel, lam) for lam in lams])
            assert np.all(np.diff(ms) < 0.0), f"M not strictly decreasing for {name}"


def test_criterion_04_fisher_golden_values():
    with criterion("criterion-04 fisher-golden-values"):
        assert abs(fc.quantized_awgn_channel(1.0, [0.0]).fisher(0.0) - 2.0 / math.pi) <= 1e-9
        assert abs(fc.energy_detection_channel(1.0).fisher(0.0)) <= 1e-10
        assert abs(fc.noncoherent_channel(1.0, 1.0).fisher(1.0) - 1.0) <= 1e-12
        assert abs(fc.clipped_awgn_channel(1.0, 10.0).fisher(0.0) - 1.0) <= 1e-6
        finite = [
            fc.quantized_awgn_channel(1.0, [0.0]),
            fc.quantized_awgn_channel(1.0, [-1.0, 0.0, 1.0]),
            fc.dithered_onebit_channel(1.0, [-0.8, 0.0, 0.8]),
        ]
        h = 1e-5
        theta = np.linspace(-0.999, 0.999, 33)
        for channel in finite:
            analytic = channel.fisher(theta)
            p = channel.output_pmf(theta)
            dp = (channel.output_pmf(theta + h) - channel.output_pmf(theta - h)) / (2 * h)
            brute = np.where(p > 0, dp * dp / np.where(p > 0, p, 1.0), 0.0).sum(axis=-1)
            assert np.max(np.abs(analytic - brute) / analytic) < 1e-4, channel.kind


def test_criterion_05_asymptotic_convergence():
    with criterion("criterion-05 asymptotic-convergence", max_seconds=120.0):
        A = 2.0
        P = A * A / 9.0
        channel = fc.quantized_awgn_channel(A, [0.0])
        s = fc.solve_lambda_star(channel, P)
        prior = fc.tilted_prior(channel, s.lambda_star, P)
        gaps = []
        for n_r in [64, 256, 1024]:
            mi = fc.mi_finite_output(channel, fc.discretize_prior(prior, 257), n_r)
            gaps.append(abs(mi - s.capacity_fn(n_r)))
        assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_06_constellation_ordering():
    with criterion("criterion-06 constellation-ordering", max_seconds=300.0):
        A, M, n_r = 10.0, 16, 100
        P = A * A / 4.0
        channel = fc.quantized_awgn_channel(A, [0.0])
        jeff = fc.jeffreys_constellation(channel, P, M)
        pam = fc.pam_constellation(channel, P, M)
        mi_jeff = fc.mi_finite_output(channel, jeff, n_r)
        mi_pam = fc.mi_finite_output(channel, pam, n_r)
        assert mi_jeff > mi_pam

        s = fc.solve_lambda_star(channel, P)
        poly = fc.fit_poly_density(channel, s.lambda_star, 8)
        approx = fc.approx_jeffreys_constellation(poly, P, M)
        mi_poly = fc.mi_finite_output(channel, approx, n_r)
        assert mi_poly >= mi_jeff - 0.05

        _, mi_ba = fc.blahut_arimoto(channel, jeff.points, n_r)
        assert mi_ba - mi_jeff < 0.1


def test_criterion_07_polynomial_solver():
    with criterion("criterion-07 polynomial-solver"):
        channel = fc.awgn_channel(1.0)
        s = fc.solve_lambda_star(channel, 1.0 / 9.0)

        from fishercap.constellation import BarrierObjective

        problem = BarrierObjective(channel, s.lambda_star, 8, 1e-2)
        rng = np.random.default_rng(2024)
        xi = rng.normal(scale=0.05, size=8)
        assert math.isfinite(problem.value(xi))
        g = problem.gradient(xi)
        h = 1e-6
        fd = np.zeros_like(g)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd[i] = (problem.value(xi + e) - problem.value(xi - e)) / (2 * h)
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(g), 1e-12)) < 1e-6

        poly, info = fc.fit_poly_density(channel, s.lambda_star, 8, full_output=True)
        assert min(info.min_hessian_eigenvalues) > 0.0

        prior = fc.tilted_prior(channel, s.lambda_star)

        def integrand(t):
            f = poly.pdf(t)
            ratio = np.log2(np.maximum(f, 1e-300)) - np.log2(prior.density(t))
            return np.where(f > 0, f * ratio, 0.0)

        kl_bits, _ = fc.integrate_interval(integrand, -1.0, 1.0)
        assert 0.0 <= kl_bits < 1e-3

        _, info2 = fc.fit_poly_density(channel, s.lambda_star, 8, full_output=True)
        assert info.newton_iterations == info2.newton_iterations
        assert info.total_iterations == info2.total_iterations


def test_criterion_08_receiver_loss_scaling():
    with criterion("criterion-08 receiver-loss-scaling", max_seconds=120.0):
        channel = fc.awgn_channel(1.0)
        theta = -1.0 + 2.0 * (np.arange(257) + 0.5) / 257
        for (r, L) in [(2.0, 2), (4.0, 16), (6.0, 128)]:
            q = fc.build_quantizer(r, L)
            j_bin = fc.quantized_fisher(channel, q, theta)
            assert np.all(j_bin <= channel.fisher(theta) + 1e-12)
            assert fc.capacity_loss_eL(channel, q) >= 0.0
        prev = math.inf
        for L in [8, 16, 32, 64, 128]:
            e = fc.capacity_loss_eL(channel, fc.build_quantizer(6.0, L))
            assert e <= prev
            prev = e
        res = fc.scaling_study(channel, fc.default_radius_schedule,
                               [8, 16, 32, 64, 128, 256, 512, 1024])
        assert -2.6 <= res.slope <= -1.5


def test_criterion_09_correlated_noise():
    with criterion("criterion-09 correlated-noise"):
        acov = fc.ar1_autocovariance(0.5)
        assert abs(fc.fisher_rate_finite(acov, 4096) - 1.0 / 3.0) < 1e-2
        limit = fc.fisher_rate_limit(acov)
        errs = [abs(fc.fisher_rate_finite(acov, 2 ** k) - limit) for k in range(6, 13)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

        white = fc.correlated_awgn_channel(1.0, fc.white_noise_autocovariance())
        corr = fc.correlated_awgn_channel(1.0, acov)
        P = 1.0 / 9.0
        pw = fc.tilted_prior(white, fc.solve_lambda_star(white, P).lambda_star, P)
        pc = fc.tilted_prior(corr, fc.solve_lambda_star(corr, P).lambda_star, P)
        grid = -1.0 + 2.0 * (np.arange(257) + 0.5) / 257
        assert np.max(np.abs(pw.density(grid) - pc.density(grid))) < 1e-12


def test_criterion_10_special_function_oracle_tables():
    with criterion("criterion-10 special-function-tables"):
        with open(DATA, "r", encoding="utf-8") as fh:
            tables = json.load(fh)
        evaluators = {
            "gauss_q": lambda x: fc.gauss_phi_q(x)[1],
            "gauss_phi": lambda x: fc.gauss_phi_q(x)[0],
            "i0e": lambda x: fc.bessel_i01_scaled(x)[0],
            "i1e": lambda x: fc.bessel_i01_scaled(x)[1],
            "e1": fc.exp_integral_e1,
            "log_gamma": fc.log_gamma,
        }
        # ln Gamma(1) = 0 exactly; the oracle's 120-digit value there is a
        # ~1e-60 residual, so that one table gets a double-roundoff floor
        abs_floor = {"log_gamma": 1e-13}
        for name, rows in tables.items():
            assert len(rows) >= 20, name
            fn = evaluators[name]
            floor = abs_floor.get(name, 0.0)
            for x, want in rows:
                want = float(want)
                got = fn(float(x))
                if want == 0.0:
                    assert got == 0.0, f"{name}({x})"
                else:
                    assert abs(got - want) <= 1e-10 * abs(want) + floor, f"{name}({x})"
